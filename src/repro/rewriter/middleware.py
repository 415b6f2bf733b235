"""The snapshot-semantics middleware: the classic user-facing entry point.

:class:`SnapshotMiddleware` plays the role of the database middleware the
paper builds: it sits in front of an ordinary multiset engine whose tables
are SQL period relations, accepts non-temporal queries that should be
interpreted under snapshot semantics (the ``SEQ VT (...)`` blocks of the
paper's SQL extension), rewrites them with REWR and executes the rewritten
plans on the engine.  Results come back either as period tables (the raw
engine output) or decoded into period K-relations of the logical model for
programmatic use and verification.

Since the fluent session API (:mod:`repro.api`) became the canonical public
surface, this class is a thin compatibility layer: every method delegates
to the shared :class:`~repro.rewriter.pipeline.QueryPipeline`, the single
execution path both surfaces use.  Prefer :func:`repro.api.connect` in new
code::

    from repro import connect

    session = connect((0, 24))
    works = session.load("works", ["name", "skill"],
                         [("Ann", "SP", 3, 10), ("Joe", "NS", 8, 16)])
    works.where("skill = 'SP'").agg(cnt="count(*)").pretty()

The operator-tree interface stays supported (and is what the conformance
harness drives)::

    from repro import SnapshotMiddleware, TimeDomain
    from repro.algebra import *

    middleware = SnapshotMiddleware(TimeDomain(0, 24))
    middleware.load_table(
        "works", ["name", "skill"],
        [("Ann", "SP", 3, 10), ("Joe", "NS", 8, 16)],
    )
    query = Aggregation(
        Selection(RelationAccess("works"), Comparison("=", attr("skill"), lit("SP"))),
        (), (AggregateSpec("count", None, "cnt"),),
    )
    result = middleware.execute(query)          # a period table
    relation = middleware.execute_decoded(query)  # a PeriodKRelation
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from ..algebra.operators import Operator
from ..engine.catalog import Database
from ..engine.table import Table
from ..execution import ExecutionBackend, ExecutionPolicy
from ..logical_model.period_relation import PeriodKRelation
from ..temporal.timedomain import TimeDomain
from .periodenc import T_BEGIN, T_END
from .pipeline import QueryPipeline
from .rewrite import SnapshotRewriter

__all__ = ["SnapshotMiddleware"]


class SnapshotMiddleware:
    """Snapshot multiset semantics on top of the multiset engine.

    Parameters
    ----------
    domain:
        The time domain queries are interpreted over.
    database:
        An existing engine catalog to attach to; a fresh one is created when
        omitted.
    coalesce:
        ``"final"`` (default, single coalesce as the last step),
        ``"per-operator"`` (the un-optimised scheme, used by the ablation
        experiments) or ``"none"`` (skip coalescing; results remain
        snapshot-equivalent but their encoding is not unique).
    use_temporal_aggregate:
        Use the fused pre-aggregation + split implementation of snapshot
        aggregation (Section 9) instead of the naive split-then-aggregate
        plan.
    optimize:
        Run the engine's rule-based optimizer on rewritten plans.  Besides
        the booleans, the strings ``"syntactic"`` (alias of ``True``) and
        ``"cost"`` (statistics-driven join reordering + strategy hints,
        see :mod:`repro.planner.cost`) select the planner mode directly.
    backend:
        Default execution host for rewritten plans: a registered backend
        name (``"memory"``, ``"sqlite"``) or an
        :class:`~repro.execution.ExecutionBackend` instance.  ``None`` keeps
        the in-memory engine; :meth:`execute` can override per query.
    rewriter_cls:
        The :class:`~repro.rewriter.rewrite.SnapshotRewriter` subclass that
        performs REWR.  The conformance harness uses this to inject
        deliberately broken rewrite rules (mutation testing of its own
        detection power); production code never needs it.
    parallel_workers:
        Worker-process count for the in-memory engine's partitioned
        interval join; ``None`` keeps it serial.  Ignored by SQL backends.
    """

    def __init__(
        self,
        domain: TimeDomain,
        database: Optional[Database] = None,
        coalesce: str = "final",
        use_temporal_aggregate: bool = True,
        optimize: "bool | str" = True,
        backend: "str | ExecutionBackend | None" = None,
        rewriter_cls: type[SnapshotRewriter] = SnapshotRewriter,
        policy: Optional[ExecutionPolicy] = None,
        parallel_workers: Optional[int] = None,
    ) -> None:
        self._pipeline = QueryPipeline(
            domain,
            database=database,
            coalesce=coalesce,
            use_temporal_aggregate=use_temporal_aggregate,
            optimize=optimize,
            backend=backend,
            rewriter_cls=rewriter_cls,
            policy=policy,
            parallel_workers=parallel_workers,
        )

    @classmethod
    def from_pipeline(cls, pipeline: QueryPipeline) -> "SnapshotMiddleware":
        """Wrap an existing pipeline (shares its catalog, cache and backend)."""
        middleware = cls.__new__(cls)
        middleware._pipeline = pipeline
        return middleware

    # -- delegated state ---------------------------------------------------------------

    @property
    def pipeline(self) -> QueryPipeline:
        """The shared execution path (also used by :class:`repro.api.Session`)."""
        return self._pipeline

    @property
    def domain(self) -> TimeDomain:
        return self._pipeline.domain

    @property
    def database(self) -> Database:
        return self._pipeline.database

    @property
    def period_semiring(self):
        return self._pipeline.period_semiring

    @property
    def optimize(self) -> "bool | str":
        return self._pipeline.optimize

    @optimize.setter
    def optimize(self, value: "bool | str") -> None:
        self._pipeline.optimize = value

    @property
    def backend(self) -> "str | ExecutionBackend | None":
        return self._pipeline.backend

    @backend.setter
    def backend(self, value: "str | ExecutionBackend | None") -> None:
        self._pipeline.backend = value

    @property
    def _rewriter(self) -> SnapshotRewriter:
        return self._pipeline.rewriter

    # -- data loading ------------------------------------------------------------------

    def load_table(
        self,
        name: str,
        schema: Iterable[str],
        rows: Iterable[Sequence[Any]],
        period: Tuple[str, str] = (T_BEGIN, T_END),
    ) -> Table:
        """Create a period table; each row already carries its begin/end values.

        ``schema`` lists the *data* attributes; the two period attributes are
        appended automatically (with the names given in ``period``) and each
        row is expected to end with its begin and end time points.
        """
        return self._pipeline.load_table(name, schema, rows, period)

    def load_period_relation(self, name: str, relation: PeriodKRelation) -> Table:
        """Register a logical-model relation under its PERIODENC encoding."""
        return self._pipeline.load_period_relation(name, relation)

    # -- query execution ---------------------------------------------------------------

    def rewrite(
        self, query: Operator, statistics: Optional[Dict[str, int]] = None
    ) -> Operator:
        """REWR(query): the rewritten plan (after optimisation if enabled).

        ``statistics``, when given, receives the planner's ``planner.*`` rule
        counters (see :mod:`repro.planner`).
        """
        return self._pipeline.rewrite(query, statistics)

    def execute(
        self,
        query: Operator,
        statistics: Optional[Dict[str, int]] = None,
        backend: "str | ExecutionBackend | None" = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> Table:
        """Evaluate ``query`` under snapshot semantics; return a period table.

        ``backend`` overrides the middleware's default execution host for
        this query (see the constructor's ``backend`` parameter); ``policy``
        overrides its fault-tolerance policy.  The ``statistics`` mapping
        collects both the planner's rule counters and the executor's
        counters (``join_strategy.*`` and friends).
        """
        return self._pipeline.execute(query, statistics, backend, policy=policy)

    def execute_decoded(
        self,
        query: Operator,
        statistics: Optional[Dict[str, int]] = None,
        backend: "str | ExecutionBackend | None" = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> PeriodKRelation:
        """Evaluate and decode the result into a period K-relation (N^T)."""
        return self._pipeline.execute_decoded(query, statistics, backend, policy=policy)

    def execute_snapshot(self, query: Operator, point: int):
        """Evaluate under snapshot semantics and slice the result at ``point``.

        Returns a non-temporal K-relation -- by snapshot-reducibility this
        equals evaluating the query over the timeslice of the database.
        """
        return self._pipeline.execute_snapshot(query, point)

    # -- introspection -----------------------------------------------------------------

    def explain(self, query: Operator) -> str:
        """The rewritten plan, rendered with :meth:`Operator.explain_tree`."""
        return self._pipeline.explain(query)
