"""Cost-based planning over :mod:`repro.stats` interval statistics.

Three planner phases consume the catalog's ANALYZE output:

* :func:`reorder_joins` -- runs on the *logical* plan (before REWR, whose
  period-intersection projections would otherwise hide the join tree),
  flattens chains of inner joins and greedily rebuilds them
  smallest-estimated-intermediate-first, restoring the original output
  column order with a projection on top.
* :func:`annotate_join_strategies` -- runs on the rewritten plan after the
  syntactic fixpoint and stamps each :class:`~repro.algebra.operators.Join`
  with the strategy (``interval`` / ``hash`` / ``nested_loop``) the cost
  model prefers; the engine obeys the hint.
* :func:`parallel_engage_threshold` -- replaces the engine's
  hard-coded 4096-row parallel-engage constant with a stats-driven bound:
  dense overlap joins emit many rows per input row, so the pool pays off on
  smaller inputs.

Cardinality estimation (:func:`estimate_plan`) follows the classic
System-R recipe adapted to interval data: equality selectivity is
``1/ndv`` from the distinct counts, range selectivity interpolates the
equi-width endpoint histograms, interval-join output is
``|L| * |R| * overlap_density``, and coalesce/split fan-out is derived
from the interval-length quantiles and the overlap density.  Every
formula degrades to a fixed textbook default when a table was never
analyzed, so cost mode is usable (and correct) without statistics -- the
estimates are just worse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, MutableMapping, Optional, Sequence, Tuple

from ..algebra.expressions import (
    Attribute,
    BooleanOp,
    Comparison,
    Expression,
    IsNull,
    Literal,
    Not,
)
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
from ..engine.predicates import (
    combine_residual,
    extract_interval_pattern,
    split_join_predicate,
)
from .rules import split_conjuncts
from .schema import infer_schema

__all__ = [
    "DEFAULT_PARALLEL_THRESHOLD",
    "normalize_planner_mode",
    "estimate_plan",
    "estimate_rows",
    "reorder_joins",
    "annotate_join_strategies",
    "parallel_engage_threshold",
]

#: The engine's historical parallel-engage constant (combined join
#: input rows); used verbatim whenever no statistics exist.
DEFAULT_PARALLEL_THRESHOLD = 4096

#: Estimated rows the pool startup overhead is worth; the stats-driven
#: threshold divides this by the estimated sweep work per input row.
_POOL_STARTUP_ROWS = 1 << 20

#: Clamp bounds of the stats-driven threshold.
_MIN_PARALLEL_THRESHOLD = 256
_MAX_PARALLEL_THRESHOLD = DEFAULT_PARALLEL_THRESHOLD * 16

#: Textbook fallback selectivities when no statistics are available.
_DEFAULT_ROWS = 1000.0
_EQ_SELECTIVITY = 0.1
_RANGE_SELECTIVITY = 1.0 / 3.0
_OVERLAP_SELECTIVITY = 0.3
_NULL_FRACTION = 0.05

#: Combined input size below which a nested loop beats sort/hash setup.
_NESTED_LOOP_CUTOFF = 16.0

#: Cap on the estimated split fan-out (pieces per input interval).
_SPLIT_FANOUT_CAP = 8.0

_PLANNER_MODES = ("off", "syntactic", "cost")


def normalize_planner_mode(value: Any) -> str:
    """Map the public ``planner`` / ``optimize`` option onto a mode name.

    Booleans keep their historical meaning (``True`` is the syntactic
    planner, ``False`` disables planning); the strings ``"off"``,
    ``"syntactic"`` and ``"cost"`` name the modes directly, with ``"on"``
    accepted as an alias of ``"syntactic"``.
    """
    if value is None or value is False:
        return "off"
    if value is True:
        return "syntactic"
    if isinstance(value, str):
        lowered = value.lower()
        if lowered == "on":
            return "syntactic"
        if lowered in _PLANNER_MODES:
            return lowered
    raise ValueError(
        f"invalid planner mode {value!r}: expected a boolean, "
        f"'off', 'syntactic', or 'cost'"
    )


# -- schema shims ----------------------------------------------------------------------------------


class _SchemaView:
    """Duck-typed stand-in for a Table: just enough for the join helpers."""

    __slots__ = ("schema", "_index")

    def __init__(self, schema: Sequence[str]) -> None:
        self.schema = tuple(schema)
        self._index = {name: i for i, name in enumerate(self.schema)}

    def has_attribute(self, name: str) -> bool:
        return name in self._index

    def column_index(self, name: str) -> int:
        return self._index[name]


class _SnapshotTableView:
    """A table as the snapshot-logical level sees it: data attributes only."""

    __slots__ = ("schema", "rows")

    def __init__(self, schema: Tuple[str, ...], rows: Any) -> None:
        self.schema = schema
        self.rows = rows


class _SnapshotCatalog:
    """Catalog proxy that hides each table's period attributes.

    At the snapshot-logical level the validity period is implicit -- every
    period table exposes the same ``(t_begin, t_end)`` pair, and REWR
    introduces (and renames) the physical period columns only during the
    rewrite.  Pre-rewrite join reordering must therefore resolve schemas,
    place predicate conjuncts, and rebuild the restoring projection against
    the *data* attributes alone; otherwise every multi-table logical query
    trips the duplicate-attribute bail-out on the shared period names.
    """

    __slots__ = ("_database",)

    def __init__(self, database: Any) -> None:
        self._database = database

    def __contains__(self, name: str) -> bool:
        return name in self._database

    def table(self, name: str) -> Any:
        table = self._database.table(name)
        period = self._database.period_of(name)
        if period is None:
            return table
        schema = tuple(a for a in table.schema if a not in period)
        return _SnapshotTableView(schema, table.rows)

    def statistics_for(self, name: str) -> Any:
        return self._database.statistics_for(name)


# -- cardinality estimation ------------------------------------------------------------------------


@dataclass
class _AttrInfo:
    """What the estimator knows about one attribute (all optional)."""

    distinct: Optional[float] = None
    null_fraction: float = 0.0
    histogram: Optional[Any] = None  # EndpointHistogram of a period endpoint


@dataclass
class _Estimate:
    """Estimated output of one plan node."""

    rows: float
    attrs: Dict[str, _AttrInfo] = field(default_factory=dict)
    #: Representative overlap density of the base tables feeding this node
    #: (None until a period table with statistics is seen).
    density: Optional[float] = None
    #: Mean interval length of the dominant period table, for fan-outs.
    mean_length: float = 0.0


def _merge_attrs(
    left: Dict[str, _AttrInfo], right: Dict[str, _AttrInfo]
) -> Dict[str, _AttrInfo]:
    merged = dict(left)
    merged.update(right)
    return merged


def _combine_density(left: Optional[float], right: Optional[float]) -> Optional[float]:
    if left is None:
        return right
    if right is None:
        return left
    return max(left, right)


def _estimate(
    plan: Operator,
    database: Optional[Any],
    out: Optional[MutableMapping[int, float]] = None,
) -> _Estimate:
    estimate = _estimate_node(plan, database, out)
    if out is not None:
        out[id(plan)] = estimate.rows
    return estimate


def _estimate_node(
    plan: Operator,
    database: Optional[Any],
    out: Optional[MutableMapping[int, float]],
) -> _Estimate:
    if isinstance(plan, RelationAccess):
        return _estimate_relation(plan, database)
    if isinstance(plan, ConstantRelation):
        return _Estimate(rows=float(len(plan.rows)))
    if isinstance(plan, Selection):
        child = _estimate(plan.child, database, out)
        selectivity = _selectivity(plan.predicate, child.attrs)
        return _Estimate(
            rows=child.rows * selectivity,
            attrs=child.attrs,
            density=child.density,
            mean_length=child.mean_length,
        )
    if isinstance(plan, Projection):
        child = _estimate(plan.child, database, out)
        attrs: Dict[str, _AttrInfo] = {}
        for expression, name in plan.columns:
            if isinstance(expression, Attribute) and expression.name in child.attrs:
                attrs[name] = child.attrs[expression.name]
        return _Estimate(
            rows=child.rows,
            attrs=attrs,
            density=child.density,
            mean_length=child.mean_length,
        )
    if isinstance(plan, Rename):
        child = _estimate(plan.child, database, out)
        mapping = dict(plan.renames)
        attrs = {mapping.get(name, name): info for name, info in child.attrs.items()}
        return _Estimate(
            rows=child.rows,
            attrs=attrs,
            density=child.density,
            mean_length=child.mean_length,
        )
    if isinstance(plan, Join):
        return _estimate_join(plan, database, out)
    if isinstance(plan, Union):
        left = _estimate(plan.left, database, out)
        right = _estimate(plan.right, database, out)
        return _Estimate(
            rows=left.rows + right.rows,
            attrs=_merge_attrs(right.attrs, left.attrs),
            density=_combine_density(left.density, right.density),
            mean_length=max(left.mean_length, right.mean_length),
        )
    if isinstance(plan, Difference):
        left = _estimate(plan.left, database, out)
        _estimate(plan.right, database, out)
        return left
    if isinstance(plan, Aggregation):
        child = _estimate(plan.child, database, out)
        if not plan.group_by:
            return _Estimate(rows=1.0)
        groups = 1.0
        for name in plan.group_by:
            info = child.attrs.get(name)
            groups *= info.distinct if info and info.distinct else 10.0
        rows = max(1.0, min(child.rows, groups))
        attrs = {
            name: child.attrs[name] for name in plan.group_by if name in child.attrs
        }
        return _Estimate(rows=rows, attrs=attrs)
    if isinstance(plan, Distinct):
        child = _estimate(plan.child, database, out)
        distincts = [info.distinct for info in child.attrs.values() if info.distinct]
        if distincts and len(distincts) == len(child.attrs) and child.attrs:
            product = 1.0
            for value in distincts:
                product *= value
            rows = max(1.0, min(child.rows, product))
        else:
            rows = max(1.0, child.rows * 0.9)
        return _Estimate(
            rows=rows,
            attrs=child.attrs,
            density=child.density,
            mean_length=child.mean_length,
        )
    # Extension operators (the rewriter's physical temporal operators) are
    # recognised structurally -- the planner stays import-free of them.
    children = [_estimate(child, database, out) for child in plan.children()]
    if not children:
        return _Estimate(rows=_DEFAULT_ROWS)
    child = children[0]
    kind = type(plan).__name__
    if kind == "CoalesceOperator":
        # Coalescing merges value-equivalent adjacent/overlapping intervals:
        # the denser the data, the fewer survive.
        density = child.density if child.density is not None else _OVERLAP_SELECTIVITY
        retention = min(1.0, max(0.25, 1.0 - density))
        return _Estimate(
            rows=max(1.0, child.rows * retention),
            attrs=child.attrs,
            density=child.density,
            mean_length=child.mean_length,
        )
    if kind in ("SplitOperator", "TemporalAggregateOperator"):
        # Splitting cuts each interval at the endpoints of its overlapping
        # partners; the expected partner count is density * rows.
        density = child.density if child.density is not None else _OVERLAP_SELECTIVITY
        fanout = 1.0 + min(2.0 * density * child.rows, _SPLIT_FANOUT_CAP - 1.0)
        return _Estimate(
            rows=child.rows * fanout,
            attrs=child.attrs,
            density=child.density,
            mean_length=child.mean_length,
        )
    return _Estimate(
        rows=child.rows,
        attrs=child.attrs,
        density=child.density,
        mean_length=child.mean_length,
    )


def _estimate_relation(plan: RelationAccess, database: Optional[Any]) -> _Estimate:
    statistics = database.statistics_for(plan.name) if database is not None else None
    if statistics is None:
        rows = _DEFAULT_ROWS
        if database is not None and plan.name in database:
            rows = float(len(database.table(plan.name).rows))
        return _Estimate(rows=rows)
    attrs: Dict[str, _AttrInfo] = {
        name: _AttrInfo(
            distinct=float(column.distinct) if column.distinct else None,
            null_fraction=column.null_fraction,
        )
        for name, column in statistics.columns.items()
    }
    period = plan.period or statistics.period
    if period is not None:
        begin, end = period
        if begin in attrs:
            attrs[begin].histogram = statistics.begin_histogram
        if end in attrs:
            attrs[end].histogram = statistics.end_histogram
    return _Estimate(
        rows=float(statistics.row_count),
        attrs=attrs,
        density=statistics.overlap_density if statistics.period else None,
        mean_length=statistics.mean_interval_length,
    )


def _estimate_join(
    plan: Join,
    database: Optional[Any],
    out: Optional[MutableMapping[int, float]],
) -> _Estimate:
    left = _estimate(plan.left, database, out)
    right = _estimate(plan.right, database, out)
    merged = _merge_attrs(left.attrs, right.attrs)
    combined = _Estimate(
        rows=left.rows * right.rows,
        attrs=merged,
        density=_combine_density(left.density, right.density),
        mean_length=max(left.mean_length, right.mean_length),
    )
    if plan.predicate is None:
        return combined

    analysis = _analyse_join(plan, database)
    if analysis is None:
        # Schemas not statically resolvable: treat the whole predicate as a
        # generic filter over the merged attribute knowledge.
        combined.rows *= _selectivity(plan.predicate, merged)
        return combined

    keys, pattern, leftover, left_schema, right_schema = analysis
    selectivity = 1.0
    for left_index, right_index in keys:
        left_info = left.attrs.get(left_schema[left_index])
        right_info = right.attrs.get(right_schema[right_index])
        ndv = max(
            left_info.distinct if left_info and left_info.distinct else 0.0,
            right_info.distinct if right_info and right_info.distinct else 0.0,
        )
        selectivity *= 1.0 / ndv if ndv >= 1.0 else _EQ_SELECTIVITY
    if pattern is not None:
        density = combined.density
        selectivity *= density if density is not None else _OVERLAP_SELECTIVITY
    for conjunct in leftover:
        selectivity *= _selectivity(conjunct, merged)
    combined.rows *= min(1.0, selectivity)
    return combined


def _analyse_join(
    plan: Join, database: Optional[Any]
) -> Optional[
    Tuple[
        List[Tuple[int, int]],
        Optional[Any],
        List[Expression],
        Tuple[str, ...],
        Tuple[str, ...],
    ]
]:
    """Classify a join predicate: equi keys, overlap pattern, leftovers."""
    left_schema = infer_schema(plan.left, database)
    right_schema = infer_schema(plan.right, database)
    if left_schema is None or right_schema is None:
        return None
    left_view = _SchemaView(left_schema)
    right_view = _SchemaView(right_schema)
    keys, residual = split_join_predicate(plan.predicate, left_view, right_view)
    pattern, leftover = extract_interval_pattern(residual, left_view, right_view)
    return keys, pattern, leftover, left_schema, right_schema


def _selectivity(expression: Expression, attrs: Dict[str, _AttrInfo]) -> float:
    if isinstance(expression, BooleanOp):
        parts = [_selectivity(operand, attrs) for operand in expression.operands]
        if expression.op == "and":
            product = 1.0
            for part in parts:
                product *= part
            return product
        result = 0.0
        for part in parts:
            result = result + part - result * part
        return result
    if isinstance(expression, Not):
        return max(0.0, 1.0 - _selectivity(expression.operand, attrs))
    if isinstance(expression, IsNull):
        fraction = _NULL_FRACTION
        if isinstance(expression.operand, Attribute):
            info = attrs.get(expression.operand.name)
            if info is not None:
                fraction = info.null_fraction
        return max(0.0, 1.0 - fraction) if expression.negated else fraction
    if isinstance(expression, Comparison):
        return _comparison_selectivity(expression, attrs)
    return 0.5


def _comparison_selectivity(
    comparison: Comparison, attrs: Dict[str, _AttrInfo]
) -> float:
    lhs, rhs = comparison.left, comparison.right
    op = comparison.op
    if op in ("=", "!=", "<>"):
        ndv = 0.0
        for side in (lhs, rhs):
            if isinstance(side, Attribute):
                info = attrs.get(side.name)
                if info and info.distinct:
                    ndv = max(ndv, info.distinct)
        equality = 1.0 / ndv if ndv >= 1.0 else _EQ_SELECTIVITY
        return equality if op == "=" else max(0.0, 1.0 - equality)
    if op in ("<", "<=", ">", ">="):
        # Attribute vs literal with a histogram on the attribute: the
        # equi-width estimate.  Normalise so the attribute is on the left.
        attribute, literal, flipped = None, None, False
        if isinstance(lhs, Attribute) and isinstance(rhs, Literal):
            attribute, literal = lhs, rhs
        elif isinstance(rhs, Attribute) and isinstance(lhs, Literal):
            attribute, literal, flipped = rhs, lhs, True
        if attribute is not None and literal is not None and literal.value is not None:
            info = attrs.get(attribute.name)
            if info is not None and info.histogram is not None:
                below = info.histogram.fraction_below(float(literal.value))
                less_than = below if not flipped else 1.0 - below
                if op in ("<", "<="):
                    return less_than
                return max(0.0, 1.0 - less_than)
        return _RANGE_SELECTIVITY
    return 0.5


def estimate_plan(
    plan: Operator, database: Optional[Any] = None
) -> Dict[int, float]:
    """Per-node cardinality estimates, keyed by ``id(node)``.

    The id-keyed mapping feeds ``explain()``: estimates computed over the
    exact plan object that executes line up node-for-node with the
    observed actual row counts.
    """
    out: Dict[int, float] = {}
    _estimate(plan, database, out)
    return out


def estimate_rows(plan: Operator, database: Optional[Any] = None) -> float:
    """Estimated output cardinality of the whole plan."""
    return _estimate(plan, database).rows


# -- join reordering (logical plans, pre-REWR) -----------------------------------------------------


def reorder_joins(
    plan: Operator,
    database: Optional[Any] = None,
    statistics: Optional[MutableMapping[str, int]] = None,
    *,
    snapshot: bool = False,
) -> Operator:
    """Reorder chains of inner joins smallest-intermediate-first.

    Operates on the *logical* plan: REWR interleaves joins with
    period-intersection projections, so reordering must happen before the
    rewrite.  Join order is snapshot-safe to change -- inner joins commute
    and associate under bag semantics as long as every predicate conjunct
    is applied once all its attributes are in scope; a projection on top
    restores the original column order.

    ``snapshot=True`` resolves leaf schemas at the snapshot-logical level,
    where the validity period is implicit: each table's registered period
    attributes are hidden, so the shared default ``(t_begin, t_end)`` pair
    does not count as a cross-leaf name collision and the restoring
    projection lists data attributes only (REWR re-attaches the period).
    """
    if snapshot and database is not None and not isinstance(database, _SnapshotCatalog):
        database = _SnapshotCatalog(database)
    children = tuple(
        reorder_joins(child, database, statistics) for child in plan.children()
    )
    if children:
        plan = plan.with_children(*children)
    if isinstance(plan, Join):
        reordered = _reorder_join_tree(plan, database)
        if reordered is not None:
            if statistics is not None:
                statistics["planner.cost_join_reorders"] = (
                    statistics.get("planner.cost_join_reorders", 0) + 1
                )
            return reordered
    return plan


def _flatten_join_chain(
    plan: Operator,
) -> Tuple[List[Operator], List[Expression]]:
    if isinstance(plan, Join):
        leaves, conjuncts = _flatten_join_chain(plan.left)
        right_leaves, right_conjuncts = _flatten_join_chain(plan.right)
        leaves.extend(right_leaves)
        conjuncts.extend(right_conjuncts)
        if plan.predicate is not None:
            conjuncts.extend(split_conjuncts(plan.predicate))
        return leaves, conjuncts
    return [plan], []


def _reorder_join_tree(plan: Join, database: Optional[Any]) -> Optional[Operator]:
    leaves, conjuncts = _flatten_join_chain(plan)
    if len(leaves) < 3:
        return None
    schemas = [infer_schema(leaf, database) for leaf in leaves]
    if any(schema is None for schema in schemas):
        return None
    # Attribute names must be globally unique for conjunct placement (and
    # for the restoring projection) to be unambiguous.
    all_attributes: List[str] = [name for schema in schemas for name in schema]
    if len(set(all_attributes)) != len(all_attributes):
        return None
    attribute_sets = [frozenset(schema) for schema in schemas]
    universe = frozenset(all_attributes)
    if any(not universe.issuperset(c.attributes()) for c in conjuncts):
        return None

    # Single-leaf conjuncts become selections on their leaf so the greedy
    # search sees post-filter cardinalities.
    remaining: List[Expression] = []
    entries: List[Tuple[Operator, frozenset]] = []
    filtered = list(leaves)
    for conjunct in conjuncts:
        needed = frozenset(conjunct.attributes())
        for index, attributes in enumerate(attribute_sets):
            if needed <= attributes:
                filtered[index] = Selection(filtered[index], conjunct)
                break
        else:
            remaining.append(conjunct)
    entries = list(zip(filtered, attribute_sets))

    def build(
        left: Tuple[Operator, frozenset], right: Tuple[Operator, frozenset]
    ) -> Tuple[Tuple[Operator, frozenset], List[Expression]]:
        scope = left[1] | right[1]
        applicable = [c for c in remaining if frozenset(c.attributes()) <= scope]
        joined = Join(left[0], right[0], combine_residual(applicable))
        return (joined, scope), applicable

    # Greedy: start from the cheapest pair, then repeatedly fold in the
    # leaf whose join keeps the intermediate smallest.  Pairs without an
    # applicable conjunct estimate as cross products, so connected leaves
    # win automatically.
    best_pair = None
    best_rows = None
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            candidate, _used = build(entries[i], entries[j])
            rows = _estimate(candidate[0], database).rows
            if best_rows is None or rows < best_rows:
                best_rows = rows
                best_pair = (i, j)
    assert best_pair is not None
    i, j = best_pair
    current, used = build(entries[i], entries[j])
    for conjunct in used:
        remaining.remove(conjunct)
    order = [i, j]
    pending = [k for k in range(len(entries)) if k not in (i, j)]
    while pending:
        best_index = None
        best_rows = None
        for k in pending:
            candidate, _used = build(current, entries[k])
            rows = _estimate(candidate[0], database).rows
            if best_rows is None or rows < best_rows:
                best_rows = rows
                best_index = k
        assert best_index is not None
        current, used = build(current, entries[best_index])
        for conjunct in used:
            remaining.remove(conjunct)
        order.append(best_index)
        pending.remove(best_index)

    if order == sorted(order):
        # The original left-deep order was already the greedy choice.
        return None
    tree = current[0]
    if remaining:
        tree = Selection(tree, combine_residual(remaining))
    # Joining in a different order permutes the concatenated schema; the
    # projection restores the original attribute order.
    return Projection.of_attributes(tree, *all_attributes)


# -- join strategy annotation (rewritten plans, post-fixpoint) -------------------------------------


def annotate_join_strategies(
    plan: Operator,
    database: Optional[Any] = None,
    statistics: Optional[MutableMapping[str, int]] = None,
) -> Operator:
    """Stamp every join with the strategy the cost model prefers."""
    children = tuple(
        annotate_join_strategies(child, database, statistics)
        for child in plan.children()
    )
    if children:
        plan = plan.with_children(*children)
    if not isinstance(plan, Join):
        return plan
    strategy = _choose_strategy(plan, database)
    if strategy is None or strategy == plan.strategy:
        return plan
    if statistics is not None:
        key = f"planner.cost_strategy_{strategy}"
        statistics[key] = statistics.get(key, 0) + 1
    return Join(plan.left, plan.right, plan.predicate, strategy)


def _choose_strategy(plan: Join, database: Optional[Any]) -> Optional[str]:
    analysis = _analyse_join(plan, database)
    if analysis is None:
        return None
    keys, pattern, _leftover, _left_schema, _right_schema = analysis
    input_rows = (
        _estimate(plan.left, database).rows + _estimate(plan.right, database).rows
    )
    if input_rows <= _NESTED_LOOP_CUTOFF:
        # Tiny inputs: the quadratic scan beats sort/hash setup.
        return "nested_loop"
    if pattern is not None:
        return "interval"
    if keys:
        return "hash"
    return "nested_loop"


# -- stats-driven parallel threshold ---------------------------------------------------------------


def parallel_engage_threshold(
    plan: Operator,
    database: Optional[Any] = None,
    default: int = DEFAULT_PARALLEL_THRESHOLD,
) -> int:
    """Combined join-input row count above which the batch pool engages.

    Without statistics this is the historical ``4096`` constant.  With
    statistics, the expected sweep output per input row is
    ``overlap_density * row_count``; dividing the pool's startup budget by
    that work estimate engages workers earlier on dense tables (where each
    input row is expensive) and later on sparse ones.
    """
    if database is None:
        return default
    statistics = [
        database.statistics_for(node.name)
        for node in plan.walk()
        if isinstance(node, RelationAccess)
    ]
    statistics = [s for s in statistics if s is not None]
    if not statistics:
        return default
    density = max(s.overlap_density for s in statistics)
    rows = max(s.row_count for s in statistics)
    work_per_row = 1.0 + density * rows
    threshold = int(_POOL_STARTUP_ROWS / work_per_row)
    return max(_MIN_PARALLEL_THRESHOLD, min(_MAX_PARALLEL_THRESHOLD, threshold))
