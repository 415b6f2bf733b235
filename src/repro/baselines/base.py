"""Shared infrastructure for the baseline snapshot-query evaluators.

The paper compares its middleware against "native" implementations of
snapshot semantics (interval preservation / ATSQL-style rewrites, and the
temporal-alignment kernel extension of PostgreSQL) that pre-date the
correctness fixes.  The baselines in this package re-implement those
semantics over the same engine tables so that

* the correctness comparison of Table 1 (AG bug, BD bug, unique encoding)
  can be reproduced programmatically, and
* the performance comparison of Table 3 (Seq = our middleware vs. Nat =
  native temporal operators) can be re-run on equal footing.

Every baseline consumes the same logical plans and produces a period table
with ``t_begin`` / ``t_end`` attributes, so results are directly comparable
(after decoding) with the middleware and the abstract-model oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..algebra.expressions import Attribute
from ..algebra.operators import (
    Aggregation,
    AlgebraError,
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
from ..engine.catalog import DEFAULT_PERIOD, Database
from ..engine.table import Table
from ..logical_model.period_relation import PeriodKRelation
from ..rewriter.periodenc import T_BEGIN, T_END, period_decode
from ..semirings.standard import NATURAL
from ..temporal.period_semiring import PeriodSemiring
from ..temporal.timedomain import TimeDomain

__all__ = ["BaselineEvaluator", "BaselineError"]


class BaselineError(AlgebraError):
    """Raised when a baseline does not support a query construct."""


class BaselineEvaluator:
    """Base class: plan traversal plus the operators all baselines share.

    Subclasses override the temporal behaviour of individual operators
    (aggregation, difference, result normalisation) to model the semantics
    of the systems from the paper's related-work table.
    """

    #: Human-readable system name (used by experiment reports).
    name = "baseline"
    #: Whether the baseline coalesces its results (unique encoding).
    produces_unique_encoding = False

    def __init__(self, database: Database, domain: TimeDomain) -> None:
        self.database = database
        self.domain = domain
        self.period_semiring = PeriodSemiring(NATURAL, domain)

    # -- public API ------------------------------------------------------------------------------

    def execute(self, plan: Operator) -> Table:
        """Evaluate the snapshot query and return a period table."""
        return self._evaluate(plan)

    def execute_decoded(self, plan: Operator) -> PeriodKRelation:
        """Evaluate and decode the result to a period K-relation."""
        return period_decode(self.execute(plan), self.period_semiring)

    # -- traversal --------------------------------------------------------------------------------

    def _evaluate(self, plan: Operator) -> Table:
        if isinstance(plan, RelationAccess):
            return self._relation(plan)
        if isinstance(plan, ConstantRelation):
            return self._constant(plan)
        if isinstance(plan, Selection):
            return self._selection(self._evaluate(plan.child), plan)
        if isinstance(plan, Projection):
            return self._projection(self._evaluate(plan.child), plan)
        if isinstance(plan, Rename):
            return self._rename(self._evaluate(plan.child), plan)
        if isinstance(plan, Join):
            return self._join(self._evaluate(plan.left), self._evaluate(plan.right), plan)
        if isinstance(plan, Union):
            return self._union(self._evaluate(plan.left), self._evaluate(plan.right))
        if isinstance(plan, Difference):
            return self._difference(
                self._evaluate(plan.left), self._evaluate(plan.right)
            )
        if isinstance(plan, Aggregation):
            return self._aggregation(self._evaluate(plan.child), plan)
        if isinstance(plan, Distinct):
            return self._distinct(self._evaluate(plan.child))
        raise BaselineError(
            f"{self.name} does not support operator {type(plan).__name__}"
        )

    # -- shared operator implementations ---------------------------------------------------------------

    def _relation(self, plan: RelationAccess) -> Table:
        table = self.database.table(plan.name)
        period = plan.period or self.database.period_of(plan.name) or DEFAULT_PERIOD
        begin_attr, end_attr = period
        data = tuple(a for a in table.schema if a not in period)
        result = Table(plan.name, data + (T_BEGIN, T_END))
        begin_index = table.column_index(begin_attr)
        end_index = table.column_index(end_attr)
        data_indexes = [table.column_index(a) for a in data]
        for row in table.rows:
            result.append(
                tuple(row[i] for i in data_indexes) + (row[begin_index], row[end_index])
            )
        return result

    def _constant(self, plan: ConstantRelation) -> Table:
        tmin, tmax = self.domain.universe()
        return Table(
            "constant",
            tuple(plan.schema) + (T_BEGIN, T_END),
            [row + (tmin, tmax) for row in plan.rows],
        )

    def _selection(self, child: Table, plan: Selection) -> Table:
        result = child.empty_copy("selection")
        for row_dict, row in zip(child.iter_dicts(), child.rows):
            if plan.predicate.evaluate(row_dict):
                result.append(row)
        return result

    def _projection(self, child: Table, plan: Projection) -> Table:
        result = Table("projection", plan.output_names + (T_BEGIN, T_END))
        begin_index = child.column_index(T_BEGIN)
        end_index = child.column_index(T_END)
        for row_dict, row in zip(child.iter_dicts(), child.rows):
            values = tuple(expr.evaluate(row_dict) for expr, _ in plan.columns)
            result.append(values + (row[begin_index], row[end_index]))
        return result

    def _rename(self, child: Table, plan: Rename) -> Table:
        renames = dict(plan.renames)
        schema = tuple(renames.get(a, a) for a in child.schema)
        return Table(child.name, schema, child.rows)

    def _join(self, left: Table, right: Table, plan: Join) -> Table:
        data_left = tuple(a for a in left.schema if a not in (T_BEGIN, T_END))
        data_right = tuple(a for a in right.schema if a not in (T_BEGIN, T_END))
        result = Table("join", data_left + data_right + (T_BEGIN, T_END))
        lb, le = left.column_index(T_BEGIN), left.column_index(T_END)
        rb, re = right.column_index(T_BEGIN), right.column_index(T_END)
        left_data_indexes = [left.column_index(a) for a in data_left]
        right_data_indexes = [right.column_index(a) for a in data_right]

        # Hash the right side on the equality conjuncts of the predicate (the
        # same physical strategy the paper's Postgres baseline uses), keeping
        # the remaining conjuncts and the interval overlap as a filter.
        from ..engine.predicates import combine_residual, split_join_predicate

        equi_keys, residual_conjuncts = split_join_predicate(
            plan.predicate, left, right
        )
        residual = combine_residual(residual_conjuncts)
        # SQL comparison semantics, matching the engine's hash join: a NULL
        # key compares equal to nothing, so such rows never match.
        buckets: Dict[Tuple, List[Tuple]] = {}
        if equi_keys:
            right_key_indexes = [ri for _li, ri in equi_keys]
            for rrow in right.rows:
                key = tuple(rrow[i] for i in right_key_indexes)
                if None in key:
                    continue
                buckets.setdefault(key, []).append(rrow)

        for lrow in left.rows:
            ldict = left.row_dict(lrow)
            if equi_keys:
                key = tuple(lrow[li] for li, _ri in equi_keys)
                if None in key:
                    continue
                candidates = buckets.get(key, ())
            else:
                candidates = right.rows
            for rrow in candidates:
                begin = max(lrow[lb], rrow[rb])
                end = min(lrow[le], rrow[re])
                if begin >= end:
                    continue
                check = residual if equi_keys else plan.predicate
                if check is not None:
                    combined = {**ldict, **right.row_dict(rrow)}
                    if not check.evaluate(combined):
                        continue
                result.append(
                    tuple(lrow[i] for i in left_data_indexes)
                    + tuple(rrow[i] for i in right_data_indexes)
                    + (begin, end)
                )
        return result

    def _union(self, left: Table, right: Table) -> Table:
        if len(left.schema) != len(right.schema):
            raise BaselineError("union-incompatible inputs")
        result = left.empty_copy("union")
        result.rows = list(left.rows) + list(right.rows)
        return result

    def _distinct(self, child: Table) -> Table:
        result = child.empty_copy("distinct")
        result.extend(dict.fromkeys(child.rows))
        return result

    # -- variant-specific operators ----------------------------------------------------------------------

    def _aggregation(self, child: Table, plan: Aggregation) -> Table:
        raise NotImplementedError

    def _difference(self, left: Table, right: Table) -> Table:
        raise NotImplementedError

    # -- helpers shared by subclasses ---------------------------------------------------------------------

    @staticmethod
    def _data_attributes(table: Table) -> Tuple[str, ...]:
        return tuple(a for a in table.schema if a not in (T_BEGIN, T_END))

    @staticmethod
    def _split_rows(
        table: Table, group_by: Tuple[str, ...]
    ) -> Tuple[Table, Dict[Tuple, List[int]]]:
        """Split every row at the interval end points of its group.

        Returns the split table; used by baselines for alignment-style
        aggregation and difference.
        """
        begin_index = table.column_index(T_BEGIN)
        end_index = table.column_index(T_END)
        group_indexes = [table.column_index(a) for a in group_by]
        endpoints: Dict[Tuple, set] = {}
        for row in table.rows:
            key = tuple(row[i] for i in group_indexes)
            bucket = endpoints.setdefault(key, set())
            bucket.add(row[begin_index])
            bucket.add(row[end_index])
        result = table.empty_copy("split")
        for row in table.rows:
            begin, end = row[begin_index], row[end_index]
            key = tuple(row[i] for i in group_indexes)
            cuts = sorted(p for p in endpoints.get(key, ()) if begin < p < end)
            bounds = [begin, *cuts, end]
            for piece_begin, piece_end in zip(bounds, bounds[1:]):
                piece = list(row)
                piece[begin_index] = piece_begin
                piece[end_index] = piece_end
                result.append(tuple(piece))
        return result, endpoints
