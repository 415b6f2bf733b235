"""In-memory multiset tables: the storage layer of the engine substrate.

The paper's implementation layer runs on an ordinary relational DBMS storing
*SQL period relations*: plain multiset tables where the validity interval of
a tuple is kept in two regular attributes.  This module provides that
storage abstraction.  A :class:`Table` is simply a schema plus a list of
value tuples -- duplicates are meaningful (bag semantics) and order is not.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import PlanError

__all__ = ["Table", "TableError", "tuple_getter"]

Row = Tuple[Any, ...]


def tuple_getter(indexes: Sequence[int]) -> Callable[[Row], Tuple[Any, ...]]:
    """A fast row -> tuple-of-columns extractor (always returns a tuple).

    ``operator.itemgetter`` runs the multi-column case at C speed; the zero-
    and one-column cases (where itemgetter would not return a tuple) are
    special-cased so callers can rely on the result being a tuple.
    """
    if not indexes:
        empty: Row = ()
        return lambda row: empty
    if len(indexes) == 1:
        index = indexes[0]
        return lambda row: (row[index],)
    return itemgetter(*indexes)


class TableError(PlanError):
    """Raised for schema violations and malformed rows.

    A permanent :class:`~repro.errors.PlanError`: plans referencing unknown
    tables or attributes cannot succeed on retry.
    """


class Table:
    """A named multiset relation with a fixed schema.

    Rows are stored as tuples in schema order.  The class offers just enough
    relational plumbing for the physical operators (column lookup, row/dict
    conversion, appends); query logic lives in :mod:`repro.engine.batch`,
    which reads a table column-wise through :meth:`ColumnarBatch.from_table
    <repro.engine.batch.ColumnarBatch.from_table>`.
    """

    __slots__ = ("name", "schema", "rows", "_index", "_columns_cache")

    def __init__(
        self,
        name: str,
        schema: Iterable[str],
        rows: Iterable[Sequence[Any]] = (),
    ) -> None:
        self.name = name
        self.schema: Tuple[str, ...] = tuple(schema)
        if len(set(self.schema)) != len(self.schema):
            raise TableError(f"duplicate attribute names in schema {self.schema}")
        self._index: Dict[str, int] = {name: i for i, name in enumerate(self.schema)}
        self.rows: List[Row] = []
        # Memoised columnar transpose (rows identity, length, columns); owned
        # by ColumnarBatch.from_table, invalidated by growth or replacement.
        self._columns_cache: Optional[Tuple[List[Row], int, List[List[Any]]]] = None
        for row in rows:
            self.append(row)

    # -- construction ---------------------------------------------------------------------

    @classmethod
    def from_dicts(
        cls, name: str, schema: Iterable[str], rows: Iterable[Mapping[str, Any]]
    ) -> "Table":
        """Build a table from dictionaries (missing attributes become None)."""
        schema = tuple(schema)
        return cls(name, schema, ([row.get(a) for a in schema] for row in rows))

    def empty_copy(self, name: str | None = None) -> "Table":
        """A new empty table with the same schema."""
        return Table(name or self.name, self.schema)

    def clone(self, name: str | None = None) -> "Table":
        """A shallow copy (rows are immutable tuples, so sharing is safe)."""
        table = self.empty_copy(name)
        table.rows = list(self.rows)
        return table

    # -- mutation ---------------------------------------------------------------------------

    def append(self, row: Sequence[Any]) -> None:
        row = tuple(row)
        if len(row) != len(self.schema):
            raise TableError(
                f"row arity {len(row)} does not match schema arity {len(self.schema)} "
                f"of table {self.name!r}"
            )
        self.rows.append(row)

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        for row in rows:
            self.append(row)

    # -- lookup ------------------------------------------------------------------------------

    def column_index(self, attribute: str) -> int:
        try:
            return self._index[attribute]
        except KeyError as exc:
            raise TableError(
                f"unknown attribute {attribute!r} in table {self.name!r} "
                f"with schema {self.schema}"
            ) from exc

    def column_getter(self, attribute: str) -> Callable[[Row], Any]:
        """A fast positional accessor for one attribute."""
        index = self.column_index(attribute)
        return lambda row: row[index]

    def has_attribute(self, attribute: str) -> bool:
        return attribute in self._index

    def column(self, attribute: str) -> List[Any]:
        index = self.column_index(attribute)
        return [row[index] for row in self.rows]

    # -- views ---------------------------------------------------------------------------------

    def row_dict(self, row: Row) -> Dict[str, Any]:
        return dict(zip(self.schema, row))

    def iter_dicts(self) -> Iterator[Dict[str, Any]]:
        schema = self.schema
        for row in self.rows:
            yield dict(zip(schema, row))

    def to_dicts(self) -> List[Dict[str, Any]]:
        return list(self.iter_dicts())

    def sorted_rows(self, by: Sequence[str] | None = None) -> List[Row]:
        """Rows sorted by the given attributes (or the full row) -- for tests."""
        if by is None:
            return sorted(self.rows, key=repr)
        indexes = [self.column_index(a) for a in by]
        return sorted(self.rows, key=lambda row: tuple(repr(row[i]) for i in indexes))

    # -- dunder plumbing --------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {list(self.schema)}, {len(self.rows)} rows)"

    def pretty(self, limit: int = 20) -> str:
        """A small fixed-width rendering used by the examples."""
        header = " | ".join(self.schema)
        ruler = "-+-".join("-" * len(a) for a in self.schema)
        lines = [header, ruler]
        for row in self.rows[:limit]:
            lines.append(" | ".join(str(v) for v in row))
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)
