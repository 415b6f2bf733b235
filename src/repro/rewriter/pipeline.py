"""The shared snapshot execution path: REWR + planner + backend dispatch.

:class:`QueryPipeline` is the single implementation behind both user-facing
surfaces -- the classic :class:`~repro.rewriter.middleware.SnapshotMiddleware`
and the fluent session API (:mod:`repro.api`).  It owns the catalog, the
rewriter, the planner switch, the default execution backend and (optionally)
a **rewritten-plan cache**:

* plans are keyed by the structural hash/equality of the logical query
  (every expression and operator node is an immutable, hashable dataclass),
  the planner mode, and the catalog's schema version -- plus the
  statistics epoch when the cost planner is active, since cost-based
  plans bake in cardinality estimates;
* a cache hit skips REWR *and* the planner entirely -- the pipeline reports
  ``plan_cache.hits`` / ``plan_cache.misses`` through the statistics
  mapping, and ``rewrite.invocations`` is only counted when the rewriter
  actually runs, so tests and benchmarks can assert the skip.

Mutating the catalog's shape (create/replace/drop of a table) invalidates
cached plans automatically through
:attr:`repro.engine.catalog.Database.schema_version`; inserting rows does
not, because rewriting never looks at the data.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

from ..algebra.operators import Operator
from ..engine.catalog import Database
from ..engine.executor import execute as engine_execute
from ..errors import IncrementalError
from ..engine.table import Table
from ..execution import (
    ExecutionBackend,
    ExecutionPolicy,
    QueryLimits,
    backend_accepts_limits,
    resolve_backend,
    run_with_policy,
)
from ..logical_model.period_relation import PeriodKRelation
from ..planner import (
    normalize_planner_mode,
    optimize as planner_optimize,
    parallel_engage_threshold,
    reorder_joins,
)
from ..semirings.standard import NATURAL
from ..temporal.period_semiring import PeriodSemiring
from ..temporal.timedomain import TimeDomain
from .operators import CoalesceOperator
from .periodenc import T_BEGIN, T_END, period_decode, period_encode
from .rewrite import SnapshotRewriter

__all__ = ["QueryPipeline", "PlanCacheInfo", "ExecutionInfo"]


class PlanCacheInfo(NamedTuple):
    """Lifetime counters of a pipeline's rewritten-plan cache."""

    hits: int
    misses: int
    size: int


class ExecutionInfo(NamedTuple):
    """Lifetime fault-tolerance counters of a pipeline.

    Mirrors the per-call ``execution.retries`` / ``execution.timeouts`` /
    ``execution.fallbacks`` statistics keys, accumulated across every
    policy-governed execution this pipeline ran.
    """

    retries: int
    timeouts: int
    fallbacks: int


class QueryPipeline:
    """Rewrites snapshot queries and executes them on a backend.

    Parameters mirror :class:`~repro.rewriter.middleware.SnapshotMiddleware`
    (which delegates everything here); ``plan_cache=True`` additionally
    memoises rewritten plans across executions.
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
        plan_cache: bool = False,
        policy: Optional[ExecutionPolicy] = None,
        parallel_workers: Optional[int] = None,
    ) -> None:
        self.domain = domain
        self.database = database if database is not None else Database()
        self.period_semiring = PeriodSemiring(NATURAL, domain)
        #: Planner switch: ``False``/``"off"`` disables planning, ``True``/
        #: ``"syntactic"`` runs the rule fixpoint, ``"cost"`` additionally
        #: reorders joins and stamps join strategies from table statistics.
        normalize_planner_mode(optimize)  # validate eagerly
        self.optimize = optimize
        self.backend = backend
        self.policy = policy
        #: Worker-process count of the in-memory engine's partitioned
        #: interval-join pool (``None`` keeps it serial).
        self.parallel_workers = parallel_workers
        # Kept alongside the rewriter instance so callers that re-create the
        # configuration elsewhere (the conformance harness builds fresh
        # middlewares per execution) can mirror this pipeline exactly.
        self.coalesce = coalesce
        self.use_temporal_aggregate = use_temporal_aggregate
        self.rewriter_cls = rewriter_cls
        self.rewriter = rewriter_cls(
            self.database,
            domain,
            coalesce=coalesce,
            use_temporal_aggregate=use_temporal_aggregate,
        )
        self._cache: Optional[Dict[Tuple[Any, ...], Operator]] = (
            {} if plan_cache else None
        )
        self._cache_hits = 0
        self._cache_misses = 0
        self._retries = 0
        self._timeouts = 0
        self._fallbacks = 0
        self._views: "Dict[str, Any]" = {}

    # -- data loading -----------------------------------------------------------------

    def load_table(
        self,
        name: str,
        schema: Iterable[str],
        rows: Iterable[Sequence[Any]],
        period: Tuple[str, str] = (T_BEGIN, T_END),
    ) -> Table:
        """Create a period table; each row already carries its begin/end values."""
        full_schema = tuple(schema) + tuple(period)
        return self.database.create_table(name, full_schema, rows, period=period)

    def load_period_relation(self, name: str, relation: PeriodKRelation) -> Table:
        """Register a logical-model relation under its PERIODENC encoding."""
        table = period_encode(relation, name)
        return self.database.register(table, period=(T_BEGIN, T_END))

    # -- materialized views -----------------------------------------------------------

    def materialize(
        self,
        query: Operator,
        name: str,
        final_coalesce: bool = False,
    ) -> "Any":
        """Register ``query`` as an incrementally maintained view.

        The rewritten/optimized plan is evaluated once, its result
        registered as catalog table ``name`` (DDL: this bumps the schema
        version and so invalidates cached plans -- views invalidate like
        plan-cache entries), and the view subscribes to catalog DML so
        subsequent :meth:`~repro.engine.catalog.Database.insert` /
        ``delete`` propagate as Z-set deltas instead of re-executing.
        Returns the :class:`~repro.incremental.MaterializedView`.
        """
        from ..incremental.view import MaterializedView

        if name in self._views:
            raise IncrementalError(f"a view named {name!r} is already registered")
        if name in self.database:
            raise IncrementalError(
                f"cannot materialize as {name!r}: a catalog table of that "
                "name already exists"
            )
        view = MaterializedView(name, query, self, final_coalesce=final_coalesce)
        self._views[name] = view
        self.database.add_dml_observer(view._observe_dml)
        return view

    def view(self, name: str) -> "Any":
        try:
            return self._views[name]
        except KeyError as exc:
            raise IncrementalError(
                f"unknown view {name!r}; registered views: {sorted(self._views)}"
            ) from exc

    def view_names(self) -> Tuple[str, ...]:
        return tuple(self._views)

    def drop_view(self, name: str) -> None:
        """Unregister a view and drop its backing table (DDL)."""
        view = self.view(name)
        self.database.remove_dml_observer(view._observe_dml)
        del self._views[name]
        self.database.drop_table(name)

    # -- plan cache -------------------------------------------------------------------

    @property
    def caching(self) -> bool:
        return self._cache is not None

    def cache_info(self) -> PlanCacheInfo:
        return PlanCacheInfo(
            hits=self._cache_hits,
            misses=self._cache_misses,
            size=len(self._cache) if self._cache is not None else 0,
        )

    def clear_plan_cache(self) -> None:
        if self._cache is not None:
            self._cache.clear()

    @property
    def planner_mode(self) -> str:
        """The normalized planner mode: ``"off"``, ``"syntactic"`` or ``"cost"``."""
        return normalize_planner_mode(self.optimize)

    def _cache_key(self, query: Operator, final_coalesce: bool) -> Tuple[Any, ...]:
        mode = self.planner_mode
        key: Tuple[Any, ...] = (
            self.database.schema_version,
            mode,
            final_coalesce,
            query,
        )
        if mode == "cost":
            # Cost-based plans bake in cardinality estimates: when ANALYZE
            # refreshes (or DML drops) statistics, the cached ordering and
            # strategy hints may no longer be the cheapest, so the stats
            # epoch keys the entry.  Syntactic plans never read statistics
            # and deliberately survive DML unchanged.
            key = key + (self.database.stats_epoch,)
        return key

    # -- rewriting --------------------------------------------------------------------

    def rewrite(
        self,
        query: Operator,
        statistics: Optional[Dict[str, int]] = None,
        final_coalesce: bool = False,
    ) -> Operator:
        """REWR(query) after optimisation (if enabled), through the cache.

        ``final_coalesce`` wraps the rewritten plan in one more coalesce
        step -- the fluent API's ``.coalesce()``, meaningful when the
        rewriter runs with ``coalesce="none"`` (idempotent otherwise).

        ``statistics`` receives ``planner.*`` rule counters on an actual
        rewrite, plus ``plan_cache.hits`` / ``plan_cache.misses`` when the
        cache is enabled and ``rewrite.invocations`` whenever REWR runs.
        """
        if self._cache is None:
            return self._rewrite_uncached(query, statistics, final_coalesce)
        key = self._cache_key(query, final_coalesce)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache_hits += 1
            if statistics is not None:
                statistics["plan_cache.hits"] = (
                    statistics.get("plan_cache.hits", 0) + 1
                )
            return cached
        plan = self._rewrite_uncached(query, statistics, final_coalesce)
        self._cache_misses += 1
        if statistics is not None:
            statistics["plan_cache.misses"] = (
                statistics.get("plan_cache.misses", 0) + 1
            )
        self._cache[key] = plan
        return plan

    def _rewrite_uncached(
        self,
        query: Operator,
        statistics: Optional[Dict[str, int]],
        final_coalesce: bool,
    ) -> Operator:
        mode = self.planner_mode
        if mode == "cost":
            # Join reordering must happen on the *logical* query: REWR
            # interleaves joins with period-intersection projections that
            # would hide the join tree from the flattener.
            query = reorder_joins(query, self.database, statistics, snapshot=True)
        plan = self.rewriter.rewrite(query)
        if final_coalesce:
            plan = CoalesceOperator(plan)
        if statistics is not None:
            statistics["rewrite.invocations"] = (
                statistics.get("rewrite.invocations", 0) + 1
            )
        if mode != "off":
            plan = planner_optimize(plan, self.database, statistics, mode=mode)
        return plan

    # -- execution --------------------------------------------------------------------

    def execute(
        self,
        query: Operator,
        statistics: Optional[Dict[str, int]] = None,
        backend: "str | ExecutionBackend | None" = None,
        final_coalesce: bool = False,
        policy: Optional[ExecutionPolicy] = None,
    ) -> Table:
        """Evaluate ``query`` under snapshot semantics; return a period table."""
        plan = self.rewrite(query, statistics, final_coalesce)
        return self.execute_rewritten(plan, statistics, backend, policy)

    def execute_rewritten(
        self,
        plan: Operator,
        statistics: Optional[Dict[str, int]] = None,
        backend: "str | ExecutionBackend | None" = None,
        policy: Optional[ExecutionPolicy] = None,
        observations: Optional[Dict[int, Dict[str, Any]]] = None,
    ) -> Table:
        """Run an already rewritten/optimized plan on the chosen backend.

        The effective :class:`~repro.execution.ExecutionPolicy` (the
        ``policy`` argument, falling back to the pipeline default) governs
        the attempt: one deadline and row budget cover the whole call,
        transient failures are retried up to ``policy.retries`` times with
        the policy's seeded backoff, and when the primary backend stays down
        the query runs once more on ``policy.fallback_backend`` (when set).
        Retries, timeouts and fallbacks are counted into ``statistics``
        (``execution.*`` keys) and the pipeline's :meth:`execution_info`.
        """
        chosen = backend if backend is not None else self.backend
        effective = policy if policy is not None else self.policy
        if effective is None:
            return self._run_plan(plan, statistics, chosen, None, observations=observations)

        def observer(event: str) -> None:
            if event == "retry":
                self._retries += 1
                self._count(statistics, "execution.retries")
            elif event == "fallback":
                self._fallbacks += 1
                self._count(statistics, "execution.fallbacks")
            elif event == "timeout":
                self._timeouts += 1
                self._count(statistics, "execution.timeouts")

        fallback = None
        if effective.fallback_backend is not None:
            fallback = lambda limits: self._run_plan(  # noqa: E731
                plan, statistics, effective.fallback_backend, limits
            )
        return run_with_policy(
            effective,
            lambda limits: self._run_plan(plan, statistics, chosen, limits),
            fallback=fallback,
            observer=observer,
        )

    def execute_limited(
        self,
        query: Operator,
        statistics: Optional[Dict[str, int]] = None,
        backend: "str | ExecutionBackend | None" = None,
        final_coalesce: bool = False,
        limits: Optional[QueryLimits] = None,
    ) -> Table:
        """One policy-free execution under externally owned :class:`QueryLimits`.

        The query server's entry point: the server creates (and keeps a
        handle on) the per-request deadline so a ``cancel`` frame can expire
        it from the event loop while the worker thread executes
        (:meth:`repro.execution.Deadline.cancel`); retries and failover stay
        with the *client's* policy, which observes transport failures.
        """
        plan = self.rewrite(query, statistics, final_coalesce)
        chosen = backend if backend is not None else self.backend
        return self._run_plan(plan, statistics, chosen, limits)

    def _run_plan(
        self,
        plan: Operator,
        statistics: Optional[Dict[str, int]],
        chosen: "str | ExecutionBackend | None",
        limits: Optional[QueryLimits],
        observations: Optional[Dict[int, Dict[str, Any]]] = None,
    ) -> Table:
        if chosen is None or chosen == "memory":
            threshold = None
            if (self.parallel_workers or 1) >= 2:
                # Stats-driven parallel-engage decision: with ANALYZE data
                # on the referenced tables this deviates from the 4096-row
                # constant (dense overlap -> engage earlier); without
                # statistics it returns exactly the historical default.
                threshold = parallel_engage_threshold(plan, self.database)
            return engine_execute(
                plan,
                self.database,
                statistics,
                limits=limits,
                parallel_workers=self.parallel_workers,
                parallel_threshold=threshold,
                observations=observations,
            )
        resolved = resolve_backend(chosen)
        if getattr(resolved, "optimize", False):
            # The pipeline already applied (or deliberately skipped, with
            # ``optimize=False``) the planner; the backend must not spend a
            # redundant pass on the plan -- or worse, override that choice.
            # The flag is flipped on a shallow copy because the resolved
            # backend may be a shared session instance (or come from a
            # registry factory handing out a shared object) that the
            # pipeline does not own; outside pipeline-routed plans it keeps
            # its own setting.
            resolved = copy.copy(resolved)
            resolved.optimize = False
        if limits is None:
            return resolved.execute(plan, self.database, statistics)
        if backend_accepts_limits(resolved):
            return resolved.execute(plan, self.database, statistics, limits=limits)
        # Pre-fault-tolerance third-party backend: run unconstrained, then
        # enforce the budget on the result (the deadline still trips here).
        return limits.enforce_result(resolved.execute(plan, self.database, statistics))

    def _count(self, statistics: Optional[Dict[str, int]], key: str) -> None:
        if statistics is not None:
            statistics[key] = statistics.get(key, 0) + 1

    def execution_info(self) -> ExecutionInfo:
        """Lifetime retry/timeout/fallback counters of this pipeline."""
        return ExecutionInfo(
            retries=self._retries,
            timeouts=self._timeouts,
            fallbacks=self._fallbacks,
        )

    def execute_decoded(
        self,
        query: Operator,
        statistics: Optional[Dict[str, int]] = None,
        backend: "str | ExecutionBackend | None" = None,
        final_coalesce: bool = False,
        policy: Optional[ExecutionPolicy] = None,
    ) -> PeriodKRelation:
        """Evaluate and decode the result into a period K-relation (N^T)."""
        return period_decode(
            self.execute(query, statistics, backend, final_coalesce, policy),
            self.period_semiring,
        )

    def execute_snapshot(self, query: Operator, point: int):
        """Evaluate under snapshot semantics and slice the result at ``point``."""
        return self.execute_decoded(query).timeslice(point)

    # -- introspection ----------------------------------------------------------------

    def explain(self, query: Operator) -> str:
        """The rewritten plan, rendered with :meth:`Operator.explain_tree`."""
        return self.rewrite(query).explain_tree()
