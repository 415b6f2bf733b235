"""The in-memory query engine: columnar batch execution.

Every in-memory plan runs here (:func:`repro.engine.executor.execute` is
the entry point).  Operators push whole :class:`ColumnarBatch` objects --
per-attribute lists plus a multiplicity column -- through column kernels:

* selections evaluate the predicate once per batch via
  :meth:`~repro.algebra.expressions.Expression.compile_batch` (or, over
  row-backed input, :meth:`~repro.algebra.expressions.Expression.compile`
  per row tuple) and filter with ``itertools.compress``;
* projections of plain attribute references are **zero-copy** (the output
  batch shares the input columns);
* joins whose predicate contains the interval-overlap pattern -- a pair of
  opposite-direction strict comparisons across the inputs, i.e.
  ``l.begin < r.end AND r.begin < l.end`` as emitted by the snapshot
  rewrite -- run as an **interval join** (see :mod:`repro.engine.parallel`):
  with equality conjuncts, a hash join on the keys that tests the overlap
  per candidate pair (sweeping skewed keys); without, a whole-column numpy
  route or a plane sweep over begin-sorted inputs whose inner scans are
  bounded with ``bisect``; partitions fan out across a ``multiprocessing``
  pool when asked.  Other joins hash the equality conjuncts, falling back
  to a nested loop when there are none;
* aggregation is hash aggregation and ``EXCEPT ALL`` nets multiplicities
  per distinct row;
* coalesce/split/temporal aggregation run batch-aware sweep kernels
  (:func:`repro.temporal.coalesce.coalesce_columns` and the partition
  helpers in :mod:`repro.engine.window`) that emit one output row per
  coalesced interval with a multiplicity instead of duplicating tuples.

Operators that naturally produce row tuples (joins, aggregation) emit
row-backed batches; selections and unions above them keep working on the
rows rather than transposing them, and pass-through operators (rename,
aliased scans, all-true selections) share their input's storage, so small
inputs pay few layout conversions.  Correctness is pinned against
the abstract per-snapshot model and SQLite by the batch differential suite
and the conformance sweep.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..abstract_model.krelation import aggregate_values
from ..algebra.expressions import Attribute, Expression
from ..algebra.operators import (
    Aggregation,
    ConstantRelation,
    Difference,
    Distinct,
    Join,
    Operator,
    Projection,
    RelationAccess,
    Rename,
    Selection,
    Union,
)
from . import parallel as _parallel
from .executor import ExecutionContext, ExecutorError, PhysicalOperator
from .predicates import (
    combine_residual,
    extract_interval_pattern,
    split_join_predicate,
)
from .table import Table

__all__ = ["ColumnarBatch", "execute_batch_plan"]

Row = Tuple[Any, ...]


class ColumnarBatch:
    """A batch of rows stored column-wise, with per-row multiplicities.

    ``columns`` holds one list per schema attribute; ``counts`` holds how
    many copies of each (logical) row the batch represents.  All lists have
    the same length.  Operators that only reorder or merge intervals (the
    coalesce sweep above all) emit one entry with ``counts[i] > 1`` instead
    of materialising duplicate tuples; everything else keeps counts at 1 and
    takes the all-ones fast paths.

    Columns may be shared between batches (projection is zero-copy), so
    kernels must never mutate a column in place -- always build a new list.

    A batch holds its entries in one or both of two layouts -- per-attribute
    ``columns`` and row tuples (``entry_rows``) -- and transposes lazily from
    whichever it has when the other is first asked for.  Operators that emit
    row tuples (the joins above all) build row-backed batches, so a plan
    that never reads the output column-wise skips the transpose entirely.
    """

    __slots__ = ("name", "schema", "_columns", "counts", "_index", "_ones", "_rows")

    def __init__(
        self,
        name: str,
        schema: Sequence[str],
        columns: Optional[List[List[Any]]],
        counts: List[int],
        all_ones: Optional[bool] = None,
        rows: Optional[List[Row]] = None,
    ) -> None:
        if columns is None and rows is None:
            raise ExecutorError("a ColumnarBatch needs columns or rows")
        self.name = name
        self.schema: Tuple[str, ...] = tuple(schema)
        self._columns = columns
        self._rows = rows
        self.counts = counts
        # Tri-state all-ones cache: constructors that know the counts shape
        # pass it; otherwise the first all_ones() call settles it.
        self._ones = all_ones
        self._index: Dict[str, int] = {a: i for i, a in enumerate(self.schema)}

    def relabel(self, name: str, schema: Sequence[str]) -> "ColumnarBatch":
        """The same entries under a new name and schema (storage shared)."""
        return ColumnarBatch(
            name, schema, self._columns, self.counts, self._ones, rows=self._rows
        )

    @property
    def columns(self) -> List[List[Any]]:
        """Per-attribute value lists, transposed from the rows on demand."""
        columns = self._columns
        if columns is None:
            rows = self._rows
            assert rows is not None
            if rows:
                columns = [list(column) for column in zip(*rows)]
            else:
                columns = [[] for _ in self.schema]
            self._columns = columns
        return columns

    # -- conversion -------------------------------------------------------------------

    @classmethod
    def from_table(cls, table: Table, name: Optional[str] = None) -> "ColumnarBatch":
        """Columnarise a base table, caching the transpose on the table.

        The transposed columns are the engine's storage layout, so
        they are memoised on the table itself (keyed by the identity and
        length of its rows list -- ``append``/``extend`` grow the list and
        ``clone`` replaces it, so either invalidates the cache).  Kernels
        never mutate columns in place, which makes sharing safe.
        """
        rows = table.rows
        cache = table._columns_cache
        if cache is not None and cache[0] is rows and cache[1] == len(rows):
            columns = cache[2]
        else:
            if rows:
                # zip(*rows) transposes at C speed; one list per attribute.
                columns = [list(column) for column in zip(*rows)]
            else:
                columns = [[] for _ in table.schema]
            table._columns_cache = (rows, len(rows), columns)
        return cls(
            name or table.name,
            table.schema,
            columns,
            [1] * len(rows),
            all_ones=True,
            rows=rows,
        )

    @classmethod
    def from_rows(
        cls, name: str, schema: Sequence[str], rows: Sequence[Row]
    ) -> "ColumnarBatch":
        rows = rows if isinstance(rows, list) else list(rows)
        return cls(name, tuple(schema), None, [1] * len(rows), all_ones=True, rows=rows)

    def entry_rows(self) -> List[Row]:
        """One tuple per batch entry (multiplicities NOT expanded), cached.

        The returned list is shared with the batch -- callers must not
        mutate it (copy before sorting or appending).
        """
        rows = self._rows
        if rows is None:
            columns = self._columns
            assert columns is not None
            if columns:
                rows = list(zip(*columns))
            else:
                rows = [()] * len(self.counts)
            self._rows = rows
        return rows

    def expanded_rows(self) -> List[Row]:
        """The batch as row tuples, with multiplicities expanded (shared)."""
        rows = self.entry_rows()
        if self.all_ones():
            return rows
        # repeat/chain expand at C speed: one repeat iterator per entry.
        return list(chain.from_iterable(map(repeat, rows, self.counts)))

    def to_table(self, name: Optional[str] = None) -> Table:
        table = Table(name or self.name, self.schema)
        # Copy: expanded_rows may return the shared entry-rows list (possibly
        # the source table's very rows), and tables own their rows lists.
        table.rows = list(self.expanded_rows())
        return table

    # -- introspection ----------------------------------------------------------------
    #
    # Same lookup surface as Table, so the join-predicate helpers of
    # repro.engine.predicates work on either representation.

    def __len__(self) -> int:
        return len(self.counts)

    def all_ones(self) -> bool:
        """Whether every multiplicity is 1 (cached after the first scan)."""
        ones = self._ones
        if ones is None:
            ones = self._ones = all(count == 1 for count in self.counts)
        return ones

    def weight(self) -> int:
        """Total logical row count (multiplicities included)."""
        return len(self.counts) if self.all_ones() else sum(self.counts)

    def column_index(self, attribute: str) -> int:
        try:
            return self._index[attribute]
        except KeyError as exc:
            raise ExecutorError(
                f"unknown attribute {attribute!r} in batch {self.name!r} "
                f"with schema {self.schema}"
            ) from exc

    def has_attribute(self, attribute: str) -> bool:
        return attribute in self._index

    def __repr__(self) -> str:
        return (
            f"ColumnarBatch({self.name!r}, {list(self.schema)}, "
            f"{len(self.counts)} rows, weight {self.weight()})"
        )


# -- dispatch -------------------------------------------------------------------------


def execute_batch_plan(plan: Operator, context: ExecutionContext) -> Table:
    """Run a plan batch-at-a-time and materialise the result as a Table."""
    batch = _execute(plan, context, {})
    return batch.to_table()


def _execute(
    plan: Operator, context: ExecutionContext, scans: Dict[int, ColumnarBatch]
) -> ColumnarBatch:
    context.checkpoint()
    result = _execute_node(plan, context, scans)
    if context._limited:
        context.checkpoint(result.weight())
    if context.observations is not None:
        context.observations.setdefault(id(plan), {})["actual_rows"] = (
            result.weight()
        )
    return result


def _execute_node(
    plan: Operator, context: ExecutionContext, scans: Dict[int, ColumnarBatch]
) -> ColumnarBatch:
    if isinstance(plan, PhysicalOperator):
        children = [_execute(child, context, scans) for child in plan.children()]
        context.count(type(plan).__name__.lower())
        return plan.execute_batch(children, context)

    if isinstance(plan, RelationAccess):
        table = context.database.table(plan.name)
        # Columnarising a base table costs one transpose; plans produced by
        # the snapshot rewrite scan the same table several times, so cache
        # the batch per physical table for the duration of this run.
        batch = scans.get(id(table))
        if batch is None:
            batch = ColumnarBatch.from_table(table)
            scans[id(table)] = batch
        if plan.alias:
            return batch.relabel(plan.alias, batch.schema)
        return batch

    if isinstance(plan, ConstantRelation):
        return ColumnarBatch.from_rows("constant", plan.schema, plan.rows)

    if isinstance(plan, Selection):
        return _selection(_execute(plan.child, context, scans), plan.predicate, context)

    if isinstance(plan, Projection):
        return _projection(_execute(plan.child, context, scans), plan.columns)

    if isinstance(plan, Rename):
        return _rename(_execute(plan.child, context, scans), dict(plan.renames))

    if isinstance(plan, Join):
        left = _execute(plan.left, context, scans)
        right = _execute(plan.right, context, scans)
        return _join(left, right, plan.predicate, context, plan)

    if isinstance(plan, Union):
        left = _execute(plan.left, context, scans)
        right = _execute(plan.right, context, scans)
        return _union(left, right)

    if isinstance(plan, Difference):
        left = _execute(plan.left, context, scans)
        right = _execute(plan.right, context, scans)
        return _except_all(left, right)

    if isinstance(plan, Aggregation):
        return _aggregate(
            _execute(plan.child, context, scans), plan.group_by, plan.aggregates
        )

    if isinstance(plan, Distinct):
        return _distinct(_execute(plan.child, context, scans))

    raise ExecutorError(f"unsupported operator {type(plan).__name__}")


# -- columnar operators ---------------------------------------------------------------


def _selection(
    batch: ColumnarBatch, predicate: Expression, context: ExecutionContext
) -> ColumnarBatch:
    columns, rows = batch._columns, batch._rows
    if columns is None:
        # Row-backed input (a join or aggregation output): test the row
        # tuples directly instead of transposing them first.
        assert rows is not None
        mask = list(map(predicate.compile(batch.schema), rows))
    else:
        mask = predicate.compile_batch(batch.schema)(columns, len(batch.counts))
    if all(mask):
        context.count("rows_filtered", 0)
        return batch.relabel("selection", batch.schema)
    # compress() filters each layout the batch holds at C speed.
    counts = list(compress(batch.counts, mask))
    context.count("rows_filtered", len(batch.counts) - len(counts))
    # A subset of an all-ones counts column stays all ones; otherwise unknown.
    return ColumnarBatch(
        "selection",
        batch.schema,
        None if columns is None else [list(compress(c, mask)) for c in columns],
        counts,
        True if batch._ones else None,
        rows=None if rows is None else list(compress(rows, mask)),
    )


def _projection(
    batch: ColumnarBatch, columns: Tuple[Tuple[Expression, str], ...]
) -> ColumnarBatch:
    schema = tuple(name for _, name in columns)
    n = len(batch.counts)
    out_columns: List[List[Any]] = []
    for expression, _name in columns:
        if isinstance(expression, Attribute):
            # Zero-copy: reuse the input column object.
            out_columns.append(batch.columns[batch.column_index(expression.name)])
        else:
            out_columns.append(
                expression.compile_batch(batch.schema)(batch.columns, n)
            )
    return ColumnarBatch("projection", schema, out_columns, batch.counts, batch._ones)


def _rename(batch: ColumnarBatch, renames: Dict[str, str]) -> ColumnarBatch:
    missing = set(renames) - set(batch.schema)
    if missing:
        raise ExecutorError(f"cannot rename unknown attributes {sorted(missing)}")
    return batch.relabel(
        batch.name, tuple(renames.get(name, name) for name in batch.schema)
    )


def _union(left: ColumnarBatch, right: ColumnarBatch) -> ColumnarBatch:
    if len(left.schema) != len(right.schema):
        raise ExecutorError(
            f"union-incompatible schemas {left.schema} and {right.schema}"
        )
    ones = True if left._ones and right._ones else None
    # Concatenate every layout both sides already hold (list concatenation
    # is a C-speed copy); transpose only when they share none, and then
    # toward rows, which a row-backed side (e.g. a join output) has.
    rows = None
    if left._rows is not None and right._rows is not None:
        rows = left._rows + right._rows
    columns = None
    if left._columns is not None and right._columns is not None:
        columns = [a + b for a, b in zip(left._columns, right._columns)]
    if rows is None and columns is None:
        rows = left.entry_rows() + right.entry_rows()
    return ColumnarBatch(
        "union", left.schema, columns, left.counts + right.counts, ones, rows=rows
    )


def _except_all(left: ColumnarBatch, right: ColumnarBatch) -> ColumnarBatch:
    if len(left.schema) != len(right.schema):
        raise ExecutorError(
            f"difference-incompatible schemas {left.schema} and {right.schema}"
        )
    remaining: Dict[Row, int] = {}
    get = remaining.get
    for row, count in zip(left.entry_rows(), left.counts):
        remaining[row] = get(row, 0) + count
    for row, count in zip(right.entry_rows(), right.counts):
        remaining[row] = get(row, 0) - count
    rows: List[Row] = []
    counts: List[int] = []
    for row, count in remaining.items():
        if count > 0:
            rows.append(row)
            counts.append(count)
    return ColumnarBatch("except_all", left.schema, None, counts, rows=rows)


def _distinct(batch: ColumnarBatch) -> ColumnarBatch:
    rows = list(dict.fromkeys(batch.entry_rows()))
    return ColumnarBatch.from_rows("distinct", batch.schema, rows)


def _aggregate(
    batch: ColumnarBatch, group_by: Tuple[str, ...], aggregates
) -> ColumnarBatch:
    unknown = set(group_by) - set(batch.schema)
    if unknown:
        raise ExecutorError(f"unknown group-by attributes {sorted(unknown)}")
    n = len(batch.counts)
    key_columns = [batch.columns[batch.column_index(a)] for a in group_by]
    if key_columns:
        keys: List[Tuple[Any, ...]] = list(zip(*key_columns))
    else:
        keys = [()] * n
    argument_columns = [
        None
        if spec.argument is None
        else spec.argument.compile_batch(batch.schema)(batch.columns, n)
        for spec in aggregates
    ]

    groups: Dict[Tuple[Any, ...], List[int]] = {}
    for position, key in enumerate(keys):
        groups.setdefault(key, []).append(position)
    if not group_by and not groups:
        groups[()] = []

    counts = batch.counts
    rows: List[Row] = []
    for key, positions in groups.items():
        values: List[Any] = []
        for spec, column in zip(aggregates, argument_columns):
            # Each batch entry contributes its multiplicity, so counts>1
            # rows aggregate exactly like their expanded duplicates would
            # (NULL arguments are ignored, as in SQL).
            if spec.func == "count":
                if column is None:
                    values.append(sum(counts[p] for p in positions))
                else:
                    values.append(
                        sum(counts[p] for p in positions if column[p] is not None)
                    )
            else:
                values.append(
                    aggregate_values(
                        spec.func,
                        [
                            (column[p], counts[p])
                            for p in positions
                            if column[p] is not None
                        ],
                    )
                )
        rows.append(key + tuple(values))
    schema = tuple(group_by) + tuple(spec.alias for spec in aggregates)
    return ColumnarBatch.from_rows("aggregation", schema, rows)


# -- join -----------------------------------------------------------------------------


def _join(
    left: ColumnarBatch,
    right: ColumnarBatch,
    predicate: Optional[Expression],
    context: ExecutionContext,
    node: Optional[Join] = None,
) -> ColumnarBatch:
    overlap = set(left.schema) & set(right.schema)
    if overlap:
        raise ExecutorError(
            f"join inputs share attributes {sorted(overlap)}; rename first"
        )
    schema = left.schema + right.schema

    # A cost-planner strategy hint on the node narrows the dispatch; every
    # strategy computes the same bag (skipped pattern parts stay in the
    # residual / full predicate), so hints can never change results.
    hint = node.strategy if node is not None else None
    equi_keys, residual_conjuncts = split_join_predicate(predicate, left, right)
    interval = None
    if context.interval_join and hint in (None, "interval"):
        interval, residual_conjuncts = extract_interval_pattern(
            residual_conjuncts, left, right
        )
    residual = combine_residual(residual_conjuncts)
    if hint == "nested_loop":
        interval = None
        equi_keys = []
    elif hint == "hash":
        interval = None

    left_rows = left.expanded_rows()
    right_rows = right.expanded_rows()
    out: List[Row] = []
    chosen = "nested_loop"
    if interval is not None:
        chosen = "interval"
        context.count("interval_joins")
        context.count("join_strategy.interval")
        _interval_join(
            left,
            right,
            left_rows,
            right_rows,
            schema,
            equi_keys,
            interval,
            residual,
            out,
            context,
        )
    elif equi_keys:
        chosen = "hash"
        context.count("hash_joins")
        context.count("join_strategy.hash")
        _hash_join(left_rows, right_rows, schema, equi_keys, residual, out, context)
    else:
        context.count("nested_loop_joins")
        context.count("join_strategy.nested_loop")
        _nested_loop_join(left_rows, right_rows, schema, predicate, out, context)
    if context.observations is not None and node is not None:
        context.observations.setdefault(id(node), {})["join_strategy"] = chosen
    return ColumnarBatch.from_rows("join", schema, out)


def _interval_join(
    left: ColumnarBatch,
    right: ColumnarBatch,
    left_rows: List[Row],
    right_rows: List[Row],
    schema: Tuple[str, ...],
    keys: List[Tuple[int, int]],
    pattern,
    residual: Optional[Expression],
    out: List[Row],
    context: ExecutionContext,
) -> None:
    """Partitioned batch interval join, parallel across processes when asked.

    Partitions come from the equality conjuncts (one per distinct key) or,
    without any, from fragment-replicate chunking of the left input.  The
    pool engages only when the context explicitly requests ``>= 2`` workers
    and the input is big enough to amortise process startup.  Serially, a
    keyed join probes hashed key buckets
    (:func:`~repro.engine.parallel.keyed_interval_join`), and the
    no-equality-key case takes a vectorised column route (two searchsorted
    range scans per overlap direction) when numpy is available and the
    period columns are plain ints, else the bisect sweep.
    """
    keep = residual.compile(schema) if residual is not None else None
    checkpoint = context.checkpoint if context._limited else None
    lb, le = pattern.left_begin, pattern.left_end
    rb, re = pattern.right_begin, pattern.right_end

    workers = context.parallel_workers or 1
    total = len(left_rows) + len(right_rows)
    parallel_wanted = workers >= 2 and total >= context.parallel_threshold

    if (
        not keys
        and not parallel_wanted
        and not context._limited
        and left.all_ones()
        and right.all_ones()
        and _parallel.interval_join_vectorized(
            left.columns[lb],
            left.columns[le],
            right.columns[rb],
            right.columns[re],
            left_rows,
            right_rows,
            keep,
            out,
        )
    ):
        context.count("batch.partitions", 1)
        context.count("join_strategy.interval_vectorized")
        return

    if keys and not parallel_wanted:
        context.count(
            "batch.partitions",
            _parallel.keyed_interval_join(
                left_rows, right_rows, keys, lb, le, rb, re, keep, out, checkpoint
            ),
        )
        return
    if keys:
        partitions = _parallel.partition_by_keys(left_rows, right_rows, keys)
    elif parallel_wanted:
        partitions = _parallel.chunk_left(left_rows, right_rows, workers)
    else:
        partitions = [(left_rows, right_rows)]
    context.count("batch.partitions", len(partitions))

    if parallel_wanted and len(partitions) >= 2:
        context.count("join_strategy.interval_parallel")
        used = _parallel.run_partitions_parallel(
            partitions, lb, le, rb, re, residual, schema, workers, out, checkpoint
        )
        context.count("batch.parallel_workers", used)
        context.count("batch.parallel_partitions", len(partitions))
        return
    for left_part, right_part in partitions:
        _parallel.interval_sweep(
            left_part, right_part, lb, le, rb, re, keep, out, checkpoint
        )


def _hash_join(
    left_rows: List[Row],
    right_rows: List[Row],
    schema: Tuple[str, ...],
    keys: List[Tuple[int, int]],
    residual: Optional[Expression],
    out: List[Row],
    context: ExecutionContext,
) -> None:
    # NULL keys match nothing: key_buckets drops them from the build side,
    # so a NULL probe key never finds a bucket.
    buckets = _parallel.key_buckets(right_rows, [ri for _li, ri in keys])
    get = buckets.get
    keep = residual.compile(schema) if residual is not None else None
    limited = context._limited
    emit = out.append
    for key, left_row in zip(
        map(itemgetter(*[li for li, _ri in keys]), left_rows), left_rows
    ):
        matches = get(key)
        if matches is None:
            continue
        if limited:
            context.checkpoint(len(out))
        for right_row in matches:
            combined = left_row + right_row
            if keep is None or keep(combined):
                emit(combined)


def _nested_loop_join(
    left_rows: List[Row],
    right_rows: List[Row],
    schema: Tuple[str, ...],
    predicate: Optional[Expression],
    out: List[Row],
    context: ExecutionContext,
) -> None:
    limited = context._limited
    if predicate is None:
        for left_row in left_rows:
            if limited:
                context.checkpoint(len(out))
            out.extend([left_row + right_row for right_row in right_rows])
        return
    keep = predicate.compile(schema)
    for left_row in left_rows:
        if limited:
            context.checkpoint(len(out))
        out.extend(
            [
                combined
                for right_row in right_rows
                if keep(combined := left_row + right_row)
            ]
        )
