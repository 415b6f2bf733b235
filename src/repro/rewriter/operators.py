"""Physical temporal operators used by the rewritten plans.

The paper's rewriting (Fig. 4) relies on two operators that ordinary SQL
does not provide as primitives -- *coalesce* ``C`` and *split* ``N_G`` --
plus the optimisation of Section 9 that fuses pre-aggregation with the
split step.  In the real middleware these are emitted as SQL subqueries
built from analytic window functions; here they are
:class:`~repro.engine.executor.PhysicalOperator` subclasses executed by the
engine through its extension hook.  The coalesce operator evaluates the SQL
window formulation (running count of open intervals per value group,
changepoint filter, ``lead`` to the next changepoint) as one fused
sweep-line pass per group -- the same ``O(n log n)`` sort-based cost the
paper reports (Figure 5) without materialising the three intermediate
window tables.

All three operators work on PERIODENC-encoded tables: data attributes plus
``t_begin`` / ``t_end``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..algebra.expressions import Attribute
from ..algebra.operators import AggregateSpec, Operator, Projection
from ..engine.batch import ColumnarBatch
from ..engine.executor import ExecutionContext, ExecutorError, PhysicalOperator
from ..engine.window import collect_group_endpoints, split_segments
from ..temporal.coalesce import coalesce_column_sets
from .periodenc import T_BEGIN, T_END

__all__ = ["CoalesceOperator", "SplitOperator", "TemporalAggregateOperator"]


def _batch_group_keys(batch: ColumnarBatch, attributes: Tuple[str, ...]) -> Sequence[Any]:
    """Per-row group keys of a batch: zero-copy for one attribute, zipped tuples else."""
    if len(attributes) == 1:
        return batch.columns[batch.column_index(attributes[0])]
    if attributes:
        return list(
            zip(*(batch.columns[batch.column_index(a)] for a in attributes))
        )
    return [()] * len(batch.counts)


@dataclass(frozen=True)
class CoalesceOperator(PhysicalOperator):
    """Multiset coalescing ``C`` over a PERIODENC-encoded input.

    For every group of value-equivalent rows the operator counts the number
    of open validity intervals per interval end point (a running sum over
    +1/-1 events), keeps the points where that count changes (the annotation
    changepoints of Definition 5.2) and emits one maximal interval per
    changepoint with a positive count, duplicated ``count`` times.  The
    result is the unique N-coalesced encoding of the input's temporal
    N-elements.
    """

    child: Operator
    period: Tuple[str, str] = (T_BEGIN, T_END)

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def with_children(self, child: Operator) -> "CoalesceOperator":
        return CoalesceOperator(child, self.period)

    def __repr__(self) -> str:
        return f"Coalesce(period={self.period[0]}..{self.period[1]})"

    # -- planner hooks -------------------------------------------------------------------

    def planner_schema(self, child_schemas):
        (child,) = child_schemas
        if child is None or not set(self.period) <= set(child):
            return None
        return tuple(a for a in child if a not in self.period) + self.period

    def planner_selection_pushdown(self, attributes):
        # Coalescing partitions the input by its data attributes; a predicate
        # over data attributes keeps or drops whole partitions, so it
        # commutes.  Predicates touching the period attributes must stay
        # above (coalescing changes the intervals).
        if attributes & set(self.period):
            return ()
        return (0,)

    def planner_projection_pushdown(self, columns, child_schemas):
        # A projection commutes with coalescing when it is a pure
        # *permutation/rename* of the data attributes (each referenced
        # exactly once -- dropping or duplicating one would change the
        # partitioning) that keeps the period attributes untouched as the
        # two trailing columns.
        (child,) = child_schemas
        if child is None or len(columns) < 2:
            return None
        begin, end = self.period
        if not all(isinstance(expr, Attribute) for expr, _name in columns):
            return None
        if tuple(columns[-2]) != (Attribute(begin), begin) or tuple(columns[-1]) != (
            Attribute(end),
            end,
        ):
            return None
        data = tuple(a for a in child if a not in self.period)
        sources = [expr.name for expr, _name in columns[:-2]]
        names = [name for _expr, name in columns]
        if sorted(sources) != sorted(data) or len(set(names)) != len(names):
            return None
        return CoalesceOperator(Projection(self.child, tuple(columns)), self.period)

    def execute_batch(
        self, children: Sequence[ColumnarBatch], context: ExecutionContext
    ) -> ColumnarBatch:
        """Columnar coalescing via :func:`repro.temporal.coalesce.coalesce_column_sets`.

        For every group of value-equivalent rows the kernel sums +1/-1
        events per interval end point (weighted by the input multiplicity
        column), sweeps the sorted points keeping the running count of open
        intervals, and emits each maximal interval as *one* batch entry
        carrying that count -- no duplicate tuples are materialised until
        the batch leaves the engine.  Rows with a NULL or degenerate
        interval hold at no time point and are dropped (SQL's
        ``WHERE begin < end`` prefilter).
        The kernel takes and returns the grouping attributes as columns, so
        the vectorized path never builds key tuples at all.
        """
        (batch,) = children
        begin_attr, end_attr = self.period
        data = tuple(a for a in batch.schema if a not in self.period)
        begins = batch.columns[batch.column_index(begin_attr)]
        ends = batch.columns[batch.column_index(end_attr)]
        data_columns = [batch.columns[batch.column_index(a)] for a in data]
        if context._limited:
            context.checkpoint()
        out_data, out_begins, out_ends, out_counts = coalesce_column_sets(
            data_columns, begins, ends, batch.counts, all_ones=batch.all_ones()
        )
        columns = out_data + [out_begins, out_ends]
        result = ColumnarBatch("coalesce", data + self.period, columns, out_counts)
        context.count("coalesce_input_rows", batch.weight())
        context.count("coalesce_output_rows", result.weight())
        if context._limited:
            context.checkpoint(result.weight())
        return result


@dataclass(frozen=True)
class SplitOperator(PhysicalOperator):
    """The split operator ``N_G(R1, R2)`` (Definition 8.3).

    Every row of the left input is split at all interval end points of rows
    (from either input) that agree with it on the attributes ``group_by``.
    Afterwards, value-equivalent rows within a group either carry identical
    intervals or disjoint ones, so point-wise operations (monus, grouped
    aggregation) can be evaluated interval-at-a-time.
    """

    left: Operator
    right: Operator
    group_by: Tuple[str, ...]
    period: Tuple[str, str] = (T_BEGIN, T_END)

    def children(self) -> Tuple[Operator, ...]:
        return (self.left, self.right)

    def with_children(self, left: Operator, right: Operator) -> "SplitOperator":
        return SplitOperator(left, right, self.group_by, self.period)

    def __repr__(self) -> str:
        groups = ", ".join(self.group_by) or "()"
        return f"Split(group by {groups})"

    # -- planner hooks -------------------------------------------------------------------

    def planner_schema(self, child_schemas):
        return child_schemas[0]

    def planner_selection_pushdown(self, attributes):
        # A predicate over the grouping attributes keeps or drops whole
        # groups.  End points are collected per group from *both* inputs, so
        # the selection must be applied to both children; the surviving
        # groups then see exactly the same cut points as before.
        if attributes and attributes <= set(self.group_by):
            return (0, 1)
        return ()

    def planner_projection_pushdown(self, columns, child_schemas):
        # Splitting only rewrites the period attributes and only reads the
        # grouping attributes, so an attribute-only projection sinks into the
        # left input when it keeps group and period attributes untouched
        # under their own names -- and references the period attributes
        # *only* through those identity columns (a copy such as
        # ``t_begin AS orig_begin`` would freeze the pre-split value).
        begin, end = self.period
        if not all(isinstance(expr, Attribute) for expr, _name in columns):
            return None
        pairs = [(expr.name, name) for expr, name in columns]
        period_pairs = sorted(
            (source, name)
            for source, name in pairs
            if source in self.period or name in self.period
        )
        if period_pairs != sorted(((begin, begin), (end, end))):
            return None
        if any((attribute, attribute) not in pairs for attribute in self.group_by):
            return None
        return SplitOperator(
            Projection(self.left, tuple(columns)), self.right, self.group_by, self.period
        )

    def execute_batch(
        self, children: Sequence[ColumnarBatch], context: ExecutionContext
    ) -> ColumnarBatch:
        """Columnar split via the sweep helpers in :mod:`repro.engine.window`.

        End points are collected per group from both children's columns,
        then each left row's interval is cut once; data columns are rebuilt
        with one index gather per attribute and multiplicities follow their
        source row (every duplicate splits identically).
        """
        left, right = children
        begin_attr, end_attr = self.period
        for attribute in self.group_by:
            if not left.has_attribute(attribute):
                raise ExecutorError(
                    f"split group attribute {attribute!r} missing from {left.schema}"
                )
        if context._limited:
            context.checkpoint()

        endpoints: Dict[Any, set] = {}
        for batch in (left, right):
            collect_group_endpoints(
                _batch_group_keys(batch, self.group_by),
                batch.columns[batch.column_index(begin_attr)],
                batch.columns[batch.column_index(end_attr)],
                into=endpoints,
            )
        row_indexes, piece_begins, piece_ends = split_segments(
            _batch_group_keys(left, self.group_by),
            left.columns[left.column_index(begin_attr)],
            left.columns[left.column_index(end_attr)],
            endpoints,
        )
        begin_index = left.column_index(begin_attr)
        end_index = left.column_index(end_attr)
        columns: List[List[Any]] = []
        for position, column in enumerate(left.columns):
            if position == begin_index:
                columns.append(piece_begins)
            elif position == end_index:
                columns.append(piece_ends)
            else:
                columns.append([column[i] for i in row_indexes])
        counts = left.counts
        result = ColumnarBatch(
            "split", left.schema, columns, [counts[i] for i in row_indexes]
        )
        context.count("split_output_rows", result.weight())
        if context._limited:
            context.checkpoint(result.weight())
        return result

@dataclass(frozen=True)
class TemporalAggregateOperator(PhysicalOperator):
    """Fused split + aggregation (the optimisation of Section 9).

    Rather than materialising the split of the input and feeding it to a
    standard aggregation grouped by ``(G, t_begin, t_end)``, this operator
    sweeps each group's interval end points once, maintaining running
    aggregate state, and emits one result row per segment between
    consecutive end points.  ``count``/``sum``/``avg`` are maintained
    incrementally; ``min``/``max`` keep a multiset of open values.

    ``count(*)`` must have been pre-rewritten to ``count(A)`` over a
    constant attribute (Fig. 4's rule), so ``NULL`` padding rows added for
    gap coverage are not counted.
    """

    child: Operator
    group_by: Tuple[str, ...]
    aggregates: Tuple[AggregateSpec, ...]
    period: Tuple[str, str] = (T_BEGIN, T_END)

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def with_children(self, child: Operator) -> "TemporalAggregateOperator":
        return TemporalAggregateOperator(
            child, self.group_by, self.aggregates, self.period
        )

    def __repr__(self) -> str:
        groups = ", ".join(self.group_by) or "()"
        aggs = ", ".join(repr(a) for a in self.aggregates)
        return f"TemporalAggregate(group by {groups}; {aggs})"

    # -- planner hooks -------------------------------------------------------------------

    def planner_schema(self, child_schemas):
        return (
            tuple(self.group_by)
            + tuple(spec.alias for spec in self.aggregates)
            + self.period
        )

    def planner_selection_pushdown(self, attributes):
        # Groups are swept independently, so grouping-attribute predicates
        # commute.  With an empty group_by the operator aggregates a single
        # (gap-padded) group; nothing may move below it then.
        if attributes and attributes <= set(self.group_by):
            return (0,)
        return ()

    def execute_batch(
        self, children: Sequence[ColumnarBatch], context: ExecutionContext
    ) -> ColumnarBatch:
        """Columnar fused split + aggregation.

        Pre-aggregation buckets identical (group, argument values, period)
        rows and keeps only their multiplicity, which is what makes the
        subsequent sort-and-sweep operate on a much smaller input.  The
        bucket keys come from one nested ``zip`` over (group, argument,
        period) columns -- the key tuples are constructed at C speed --
        weighting each row by its multiplicity.  Rows with a NULL or
        degenerate interval are dropped (SQL's ``WHERE begin < end``).
        """
        (batch,) = children
        begin_attr, end_attr = self.period
        n = len(batch.counts)
        schema = batch.schema
        group_columns = [batch.columns[batch.column_index(a)] for a in self.group_by]
        argument_columns = [
            [None] * n
            if spec.argument is None
            else spec.argument.compile_batch(schema)(batch.columns, n)
            for spec in self.aggregates
        ]
        begins = batch.columns[batch.column_index(begin_attr)]
        ends = batch.columns[batch.column_index(end_attr)]
        if context._limited:
            context.checkpoint()

        buckets: Dict[Tuple[Any, ...], int] = {}
        get = buckets.get
        for key, count in zip(
            zip(*group_columns, *argument_columns, begins, ends), batch.counts
        ):
            begin, end = key[-2], key[-1]
            if begin is None or end is None or begin >= end:
                continue
            buckets[key] = get(key, 0) + count
        context.count("preaggregated_rows", len(buckets))

        n_group = len(self.group_by)
        n_args = len(self.aggregates)
        groups: Dict[Tuple[Any, ...], List[Tuple[int, int, Tuple[Any, ...], int]]] = {}
        for key, multiplicity in buckets.items():
            group_key = key[:n_group]
            args = key[n_group : n_group + n_args]
            begin, end = key[-2], key[-1]
            groups.setdefault(group_key, []).append((begin, end, args, multiplicity))

        rows: List[Tuple[Any, ...]] = []
        append = rows.append
        limited = context._limited
        for group_key, facts in groups.items():
            if limited:
                context.checkpoint(len(rows))
            self._sweep_group(group_key, facts, append)
        out_schema = (
            self.group_by + tuple(spec.alias for spec in self.aggregates) + self.period
        )
        return ColumnarBatch.from_rows("temporal_aggregation", out_schema, rows)

    # -- sweep ---------------------------------------------------------------------------

    def _sweep_group(
        self,
        group_key: Tuple[Any, ...],
        facts: List[Tuple[int, int, Tuple[Any, ...], int]],
        append: Callable[[Tuple[Any, ...]], None],
    ) -> None:
        """Sweep one group's end points, emitting a row per covered segment.

        Every fact opens at its begin and closes at its end; the events of
        a time point are applied in fact order, so running float sums add
        up in a fixed order.  A segment between consecutive points is
        emitted while at least one fact is open.  ``count``/``sum``/``avg``
        keep running counts and sums; ``min``/``max`` keep a multiset of
        the open values.
        """
        events: Dict[Any, List[Tuple[int, Tuple[Any, ...]]]] = {}
        get = events.get
        for begin, end, args, multiplicity in facts:
            bucket = get(begin)
            if bucket is None:
                events[begin] = [(multiplicity, args)]
            else:
                bucket.append((multiplicity, args))
            bucket = get(end)
            if bucket is None:
                events[end] = [(-multiplicity, args)]
            else:
                bucket.append((-multiplicity, args))

        # Per aggregate: (position, function, counts NULL-argument rows?).
        # count(*) counts every open row, including gap-padding rows.
        plan = [
            (position, spec.func, spec.argument is None)
            for position, spec in enumerate(self.aggregates)
        ]
        counts = [0] * len(plan)
        sums: List[Any] = [0] * len(plan)
        open_values: List[Counter] = [Counter() for _ in plan]
        open_rows = 0
        previous: Any = None
        for ts in sorted(events):
            if open_rows > 0:
                append(
                    group_key
                    + _aggregate_values(plan, counts, sums, open_values)
                    + (previous, ts)
                )
            for delta, args in events[ts]:
                open_rows += delta
                for position, func, star in plan:
                    if star:
                        counts[position] += delta
                        continue
                    value = args[position]
                    if value is None:
                        continue
                    counts[position] += delta
                    if func == "sum" or func == "avg":
                        sums[position] += delta * value
                    elif func != "count":
                        values = open_values[position]
                        remaining = values[value] + delta
                        if remaining:
                            values[value] = remaining
                        else:
                            del values[value]
            previous = ts


def _aggregate_values(
    plan: List[Tuple[int, str, bool]],
    counts: List[int],
    sums: List[Any],
    open_values: List[Counter],
) -> Tuple[Any, ...]:
    """The aggregate values of the current sweep segment."""
    output: List[Any] = []
    for position, func, _star in plan:
        count = counts[position]
        if func == "count":
            output.append(count)
        elif func == "sum":
            output.append(sums[position] if count else None)
        elif func == "avg":
            output.append(sums[position] / count if count else None)
        elif func == "min":
            values = open_values[position]
            output.append(min(values) if values else None)
        elif func == "max":
            values = open_values[position]
            output.append(max(values) if values else None)
        else:  # pragma: no cover - AggregateSpec validates functions
            raise ExecutorError(f"unknown aggregate {func!r}")
    return tuple(output)
