"""Materialized temporal views maintained by Z-set delta propagation.

A :class:`MaterializedView` pins one rewritten snapshot plan (REWR +
planner output, exactly what the pipeline would execute) and keeps, per
plan node, the node's output as a consolidated Z-set.  Feeding a base-table
:class:`~repro.incremental.Delta` propagates bottom-up through
per-operator delta rules instead of re-executing the plan:

* **linear** operators (selection, projection, rename, union) map the
  delta through the same compiled kernels the executor uses -- a delta row
  passes or projects exactly like a stored row;
* the **bilinear** join applies the DBSP product rule
  ``d(L >< R) = dL >< R' + L' >< dR - dL >< dR`` (primes are post-delta
  states), each term evaluated by the engine's join machinery -- including
  the sort-merge interval join for REWR's overlap predicates -- over the
  *distinct* rows of each side, with multiplicities multiplied outside;
* **difference** and **distinct** are re-derived pointwise on the dirty
  rows only (monus and indicator over the children's multiplicities);
* the non-linear temporal operators (coalesce, split, temporal
  aggregation) and grouped aggregation **re-sweep only the dirty groups**:
  the group keys touched by the delta select a slice of the child state,
  the node's own kernel re-runs on that slice, and the result replaces the
  matching slice of the stored output.  The sweep kernels already bound
  their work to the endpoint windows of the rows they are given, so a
  dirty group costs its own rows, not the relation.

Every propagation step consolidates (cancels matched +/- multiplicities
and drops zeros), so view state stays a bag.  The view's contents are
registered as a catalog table -- registration is DDL (it bumps
``Database.schema_version`` and invalidates cached plans), while
:meth:`MaterializedView.apply` is DML and does not.  DDL after
registration marks the view stale; the next delta triggers one counted
full refresh instead of an incorrect propagation.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

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
    Union as UnionOp,
)
from ..engine.executor import execute as engine_execute
from ..engine.table import Table
from ..errors import IncrementalError
from ..rewriter.operators import (
    CoalesceOperator,
    SplitOperator,
    TemporalAggregateOperator,
)
from ..rewriter.periodenc import T_BEGIN, T_END
from .delta import Delta, Row, ZSet, add_into, expand_rows, zset_diff, zset_of

if TYPE_CHECKING:
    from ..rewriter.pipeline import QueryPipeline

__all__ = ["MaterializedView"]

#: Counter keys every view maintains (lifetime) and reports per apply.
COUNTER_KEYS = (
    "incremental.delta_rows",
    "incremental.resweep_groups",
    "incremental.full_refresh",
    "incremental.consolidated_rows",
)


def _group_slice(state: ZSet, key: Callable[[Row], Any], groups: set) -> ZSet:
    """The entries of ``state`` whose group key is in ``groups``.

    One pass over the whole state, kept at C speed (key extraction,
    membership test and filtering all run inside ``map``/``compress``):
    a small delta still pays for the scan, but not per row in Python.
    """
    return dict(compress(state.items(), map(groups.__contains__, map(key, state))))


class _NodeState:
    """One plan node's materialized output (a consolidated Z-set) plus
    schema, the base relations feeding it, and memoised compiled kernels."""

    __slots__ = ("operator", "children", "schema", "state", "base_names", "compiled")

    def __init__(self, operator: Operator, children: List["_NodeState"]) -> None:
        self.operator = operator
        self.children = children
        self.schema: Tuple[str, ...] = ()
        self.state: ZSet = {}
        self.base_names: frozenset = frozenset().union(
            *(child.base_names for child in children)
        ) if children else frozenset()
        self.compiled: Dict[str, Any] = {}


class _RowStore:
    """The view's backing row list, maintained in O(delta) per apply.

    Keeps ``rows`` (the list the catalog table exposes) plus a row ->
    positions index; removals swap with the tail so both stay consistent
    without rebuilding the list.
    """

    __slots__ = ("rows", "positions")

    def __init__(self, rows: List[Row]) -> None:
        self.rows = rows
        self.positions: Dict[Row, List[int]] = {}
        for position, row in enumerate(rows):
            self.positions.setdefault(row, []).append(position)

    def add(self, row: Row, count: int) -> None:
        slots = self.positions.setdefault(row, [])
        for _ in range(count):
            slots.append(len(self.rows))
            self.rows.append(row)

    def remove(self, row: Row, count: int) -> None:
        slots = self.positions.get(row, [])
        if len(slots) < count:
            raise IncrementalError(
                f"view backing store lost track of row {row!r}"
            )
        for _ in range(count):
            position = slots.pop()
            last = len(self.rows) - 1
            moved = self.rows[last]
            if position != last:
                self.rows[position] = moved
                moved_slots = self.positions[moved]
                moved_slots[moved_slots.index(last)] = position
            self.rows.pop()
        if not slots:
            self.positions.pop(row, None)


class MaterializedView:
    """A rewritten snapshot plan kept materialized under base-table deltas.

    Build through :meth:`repro.rewriter.pipeline.QueryPipeline.materialize`
    (or ``session.materialize(relation, name=...)``); the constructor runs
    one full evaluation, materializes per-node states and registers the
    result as catalog table ``name`` (with period metadata when the output
    carries ``t_begin``/``t_end``), so other queries can reference it.
    """

    def __init__(
        self,
        name: str,
        query: Operator,
        pipeline: "QueryPipeline",
        final_coalesce: bool = False,
    ) -> None:
        self.name = name
        self.query = query
        self._pipeline = pipeline
        self._final_coalesce = final_coalesce
        self.counters: Dict[str, int] = {key: 0 for key in COUNTER_KEYS}
        self._plan: Optional[Operator] = None
        self._root: Optional[_NodeState] = None
        self._table: Optional[Table] = None
        self._store: Optional[_RowStore] = None
        self._base_tables: Dict[str, Table] = {}
        self.refresh()

    # -- introspection ----------------------------------------------------------------

    @property
    def schema(self) -> Tuple[str, ...]:
        assert self._root is not None
        return self._root.schema

    @property
    def plan(self) -> Operator:
        """The rewritten/optimized physical plan this view maintains."""
        assert self._plan is not None
        return self._plan

    @property
    def base_relations(self) -> frozenset:
        """Names of the catalog tables whose deltas this view consumes."""
        assert self._root is not None
        return self._root.base_names

    def table(self) -> Table:
        """The backing catalog table (live view contents)."""
        assert self._table is not None
        return self._table

    def rows(self) -> List[Row]:
        return list(self.table().rows)

    @property
    def stale(self) -> bool:
        """True when DDL on a base relation invalidated the pinned plan.

        Like a plan-cache entry, the view dies on DDL, not DML -- but the
        check is per *base table* (tracked by object identity: DDL replaces
        the catalog's :class:`Table` object, DML mutates it in place), so
        unrelated DDL -- another view registering its backing table, a
        foreign table being created -- does not force a refresh.
        """
        database = self._pipeline.database
        for name, table in self._base_tables.items():
            if name not in database or database.table(name) is not table:
                return True
        return False

    def __len__(self) -> int:
        return len(self.table().rows)

    def __repr__(self) -> str:
        return (
            f"MaterializedView({self.name!r}, {len(self)} rows, "
            f"over {sorted(self.base_relations)})"
        )

    def explain(self) -> str:
        """The pinned physical plan plus the view's lifetime counters."""
        lines = [f"materialized view {self.name!r}:"]
        lines += ["  " + line for line in self.plan.explain_tree().splitlines()]
        lines += ["", "incremental counters:"]
        lines += [
            f"  {key} = {value}" for key, value in sorted(self.counters.items())
        ]
        return "\n".join(lines)

    def verify(self) -> bool:
        """Bag-compare the maintained contents against full re-execution."""
        fresh = self._pipeline.execute_rewritten(self.plan)
        assert self._root is not None
        return zset_of(fresh.rows) == self._root.state

    # -- refresh ----------------------------------------------------------------------

    def refresh(self) -> None:
        """Rebuild everything from the current catalog (counted).

        Runs on registration, and again whenever a delta arrives after DDL
        invalidated the pinned plan.  Registering the backing table is
        itself DDL (the schema version bumps, invalidating cached plans).
        """
        pipeline = self._pipeline
        self._plan = pipeline.rewrite(self.query, final_coalesce=self._final_coalesce)
        self._root = self._build_node(self._plan)
        self._base_tables = {
            name: pipeline.database.table(name) for name in self._root.base_names
        }
        rows = expand_rows(self._root.state)
        period = (
            (T_BEGIN, T_END)
            if T_BEGIN in self._root.schema and T_END in self._root.schema
            else None
        )
        self._table = pipeline.database.create_table(
            self.name, self._root.schema, rows, period=period
        )
        # The store owns the backing table's row list from here on; apply()
        # mutates it in place (DML) without re-registering (DDL).
        self._store = _RowStore(self._table.rows)
        self.counters["incremental.full_refresh"] += 1

    def _build_node(self, operator: Operator) -> _NodeState:
        children = [self._build_node(child) for child in operator.children()]
        node = _NodeState(operator, children)
        if isinstance(operator, RelationAccess):
            table = self._pipeline.database.table(operator.name)
            node.schema = table.schema
            node.state = zset_of(table.rows)
            node.base_names = frozenset((operator.name,))
        elif isinstance(operator, ConstantRelation):
            node.schema = operator.schema
            node.state = zset_of(operator.rows)
        else:
            table = self._evaluate(node, [expand_rows(c.state) for c in children])
            node.schema = table.schema
            node.state = zset_of(table.rows)
        return node

    def _evaluate(self, node: _NodeState, child_rows: List[List[Row]]) -> Table:
        """Run one node through the engine by substituting child tables.

        The engine evaluates plans node-at-a-time anyway, so replacing the
        children with constant relations reuses every engine kernel --
        the sort-merge interval join, the columnar sweep kernels -- without
        a parallel implementation of operator semantics.
        """
        substituted = node.operator.with_children(
            *(
                ConstantRelation(child.schema, tuple(rows))
                for child, rows in zip(node.children, child_rows)
            )
        )
        return engine_execute(
            substituted,
            self._pipeline.database,
            None,
            parallel_workers=self._pipeline.parallel_workers,
        )

    # -- delta application --------------------------------------------------------------

    def apply(
        self,
        deltas: Union[Delta, Iterable[Delta]],
        statistics: Optional[Dict[str, int]] = None,
    ) -> "MaterializedView":
        """Propagate base-table deltas through the plan (DML; no DDL bump).

        ``deltas`` is one :class:`Delta` or an iterable of them; batches
        against the same relation merge before propagation.  The caller is
        responsible for the base tables themselves -- `Database.insert` /
        ``Database.delete`` feed registered views automatically, while
        calling ``apply`` directly maintains the view against a *detached*
        stream that never lands in the catalog.

        If DDL invalidated the view since registration, the stream cannot
        be trusted against the rebuilt plan: the view full-refreshes from
        the catalog, then applies this delta on top.
        """
        return self._apply(deltas, statistics, delta_in_catalog=False)

    def _apply(
        self,
        deltas: Union[Delta, Iterable[Delta]],
        statistics: Optional[Dict[str, int]],
        delta_in_catalog: bool,
    ) -> "MaterializedView":
        batch = [deltas] if isinstance(deltas, Delta) else list(deltas)
        before = dict(self.counters)
        if self.stale:
            self.refresh()
            # A catalog-routed delta describes a mutation the refresh
            # already read back; re-applying it would double-count.
            if delta_in_catalog:
                batch = []
        base: Dict[str, ZSet] = {}
        for delta in batch:
            if delta.relation not in self.base_relations:
                raise IncrementalError(
                    f"view {self.name!r} does not read relation "
                    f"{delta.relation!r}; it maintains {sorted(self.base_relations)}"
                )
            add_into(base.setdefault(delta.relation, {}), delta.entries)
        base = {name: zset for name, zset in base.items() if zset}
        if base:
            self.counters["incremental.delta_rows"] += sum(
                len(zset) for zset in base.values()
            )
            assert self._root is not None
            root_delta = self._propagate(self._root, base)
            self._sync_backing(root_delta)
        if statistics is not None:
            for key in COUNTER_KEYS:
                gained = self.counters[key] - before.get(key, 0)
                if gained:
                    statistics[key] = statistics.get(key, 0) + gained
        return self

    def _observe_dml(self, name: str, delta: Dict[Row, int]) -> None:
        """Catalog DML observer: route relevant mutations in as deltas."""
        if name == self.name or name not in self.base_relations:
            return
        self._apply(Delta(name, dict(delta)), None, delta_in_catalog=True)

    def _sync_backing(self, root_delta: ZSet) -> None:
        store = self._store
        table = self._table
        assert store is not None and table is not None
        if not root_delta:
            return
        for row, weight in root_delta.items():
            if weight > 0:
                store.add(row, weight)
            elif weight < 0:
                store.remove(row, -weight)
        # In-place mutation can leave the length unchanged (a swap of
        # equal-weight inserts and deletes), which the memoised columnar
        # transpose keyed on (identity, length) would not notice.
        table._columns_cache = None

    # -- propagation rules --------------------------------------------------------------

    def _propagate(self, node: _NodeState, base: Dict[str, ZSet]) -> ZSet:
        operator = node.operator
        if isinstance(operator, RelationAccess):
            delta = dict(base.get(operator.name, ()))
            self._apply_node_delta(node, delta)
            return delta
        if not node.base_names & base.keys():
            return {}
        child_deltas = [self._propagate(child, base) for child in node.children]
        delta = self._node_delta(node, child_deltas)
        self._apply_node_delta(node, delta)
        return delta

    def _apply_node_delta(self, node: _NodeState, delta: ZSet) -> None:
        if not delta:
            return
        self.counters["incremental.consolidated_rows"] += add_into(
            node.state, delta, require_nonnegative=True
        )

    def _node_delta(self, node: _NodeState, child_deltas: List[ZSet]) -> ZSet:
        operator = node.operator

        if isinstance(operator, Selection):
            (delta,) = child_deltas
            keep = node.compiled.get("predicate")
            if keep is None:
                keep = node.compiled["predicate"] = operator.predicate.compile(
                    node.children[0].schema
                )
            return {row: weight for row, weight in delta.items() if keep(row)}

        if isinstance(operator, Projection):
            (delta,) = child_deltas
            columns = node.compiled.get("columns")
            if columns is None:
                child_schema = node.children[0].schema
                columns = node.compiled["columns"] = tuple(
                    expression.compile(child_schema)
                    for expression, _name in operator.columns
                )
            out: ZSet = {}
            get = out.get
            for row, weight in delta.items():
                projected = tuple(column(row) for column in columns)
                out[projected] = get(projected, 0) + weight
            return {row: weight for row, weight in out.items() if weight}

        if isinstance(operator, Rename):
            (delta,) = child_deltas
            return dict(delta)

        if isinstance(operator, UnionOp):
            left, right = child_deltas
            out = dict(left)
            add_into(out, right)
            return out

        if isinstance(operator, Join):
            return self._join_delta(node, child_deltas)

        if isinstance(operator, Difference):
            left_state = node.children[0].state
            right_state = node.children[1].state
            dirty = set(child_deltas[0]) | set(child_deltas[1])
            self.counters["incremental.resweep_groups"] += len(dirty)
            delta = {}
            for row in dirty:
                fresh = max(0, left_state.get(row, 0) - right_state.get(row, 0))
                change = fresh - node.state.get(row, 0)
                if change:
                    delta[row] = change
            return delta

        if isinstance(operator, Distinct):
            child_state = node.children[0].state
            dirty = set(child_deltas[0])
            self.counters["incremental.resweep_groups"] += len(dirty)
            delta = {}
            for row in dirty:
                fresh = 1 if child_state.get(row, 0) > 0 else 0
                change = fresh - node.state.get(row, 0)
                if change:
                    delta[row] = change
            return delta

        if isinstance(operator, Aggregation):
            return self._resweep(node, child_deltas, operator.group_by, (0,))

        if isinstance(operator, TemporalAggregateOperator):
            return self._resweep(node, child_deltas, operator.group_by, (0,))

        if isinstance(operator, CoalesceOperator):
            data = tuple(
                attribute
                for attribute in node.children[0].schema
                if attribute not in operator.period
            )
            return self._resweep(node, child_deltas, data, (0,))

        if isinstance(operator, SplitOperator):
            return self._resweep(node, child_deltas, operator.group_by, (0, 1))

        # Unknown operator (a future physical operator): fall back to a
        # whole-node recompute -- correct for anything deterministic.
        return self._resweep(node, child_deltas, (), ())

    # -- bilinear join ------------------------------------------------------------------

    def _join_delta(self, node: _NodeState, child_deltas: List[ZSet]) -> ZSet:
        left_delta, right_delta = child_deltas
        left_node, right_node = node.children
        out: ZSet = {}
        # d(L><R) = dL >< R' + L' >< dR - dL >< dR, all against post-delta
        # states (children were consolidated before this node runs).
        self._join_term(node, left_delta, right_node.state, +1, out)
        self._join_term(node, left_node.state, right_delta, +1, out)
        self._join_term(node, left_delta, right_delta, -1, out)
        return {row: weight for row, weight in out.items() if weight}

    def _join_term(
        self,
        node: _NodeState,
        left: ZSet,
        right: ZSet,
        sign: int,
        out: ZSet,
    ) -> None:
        if not left or not right:
            return
        # The engine joins the *distinct* rows of each side (every input row
        # appears once), then each matched pair's weight is the product of
        # the side multiplicities -- keeping the join kernels (sort-merge
        # interval join included) oblivious to Z-set annotations.
        table = self._evaluate(node, [list(left), list(right)])
        n_left = len(node.children[0].schema)
        get = out.get
        for row in table.rows:
            weight = sign * left[row[:n_left]] * right[row[n_left:]]
            if weight:
                out[row] = get(row, 0) + weight

    # -- dirty-group resweep ------------------------------------------------------------

    def _resweep(
        self,
        node: _NodeState,
        child_deltas: List[ZSet],
        key_attributes: Tuple[str, ...],
        keyed_children: Tuple[int, ...],
    ) -> ZSet:
        """Recompute a non-linear node on its dirty group slice only.

        ``key_attributes`` partition both the node's inputs and its output
        (all four operators routed here emit their grouping attributes
        unchanged); groups touched by no delta can therefore not change.
        An empty key -- ungrouped aggregation, coalescing a relation with
        no data attributes, an unknown operator -- degenerates to one
        whole-node group.
        """
        children = node.children
        if not key_attributes:
            fresh = zset_of(
                self._evaluate(
                    node, [expand_rows(child.state) for child in children]
                ).rows
            )
            self.counters["incremental.resweep_groups"] += 1
            return zset_diff(fresh, node.state)

        # Group keys via itemgetter: the bare value for one key attribute, a
        # tuple for several -- the same shape on every side.
        getters = node.compiled.get("resweep_getters")
        if getters is None:
            child_getters = tuple(
                itemgetter(*[child.schema.index(a) for a in key_attributes])
                for child in children
            )
            out_getter = itemgetter(*[node.schema.index(a) for a in key_attributes])
            getters = node.compiled["resweep_getters"] = (child_getters, out_getter)
        child_getters, out_getter = getters

        dirty = set()
        for position in keyed_children:
            dirty.update(map(child_getters[position], child_deltas[position]))
        if not dirty:
            return {}
        self.counters["incremental.resweep_groups"] += len(dirty)

        restricted_inputs = [
            expand_rows(_group_slice(child.state, child_getters[position], dirty))
            for position, child in enumerate(children)
        ]
        fresh = zset_of(self._evaluate(node, restricted_inputs).rows)
        return zset_diff(fresh, _group_slice(node.state, out_getter, dirty))
