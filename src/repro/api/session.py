"""Sessions: the front door of the library.

:func:`connect` builds a :class:`Session` -- one object owning the engine
catalog, the snapshot rewriter, the planner switch, the execution backend
and a rewritten-plan cache -- and hands out lazy
:class:`~repro.api.relation.TemporalRelation` objects::

    from repro import connect

    session = connect((0, 24))                      # or TimeDomain(0, 24)
    works = session.load("works", ["name", "skill"], [
        ("Ann", "SP", 3, 10), ("Joe", "NS", 8, 16),
        ("Sam", "SP", 8, 16), ("Ann", "SP", 18, 20),
    ])
    onduty = works.where("skill = 'SP'").agg(cnt="count(*)")
    print(onduty.pretty())          # executes through REWR + planner + backend
    print(onduty.snapshot(8))       # the 08:00 snapshot, by reducibility
    print(onduty.explain())         # the whole pipeline, rendered

Executing the same query again reuses the cached rewritten plan (REWR and
the planner are skipped entirely); :meth:`Session.cache_info` exposes the
hit counters, and any DDL on the catalog invalidates stale entries via the
catalog's schema version.

The session shares its execution path -- a
:class:`~repro.rewriter.pipeline.QueryPipeline` -- with the classic
:class:`~repro.rewriter.middleware.SnapshotMiddleware`; :meth:`Session.middleware`
returns that compatibility wrapper over the *same* pipeline for code that
still wants the operator-tree interface.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)
from urllib.parse import parse_qs, urlsplit

from ..algebra.operators import Operator, RelationAccess
from ..engine.catalog import Database
from ..engine.table import Table
from ..errors import BackendUnavailableError
from ..execution import ExecutionBackend, ExecutionPolicy
from ..logical_model.period_relation import PeriodKRelation
from ..planner import (
    estimate_plan,
    optimize as planner_optimize,
    reorder_joins,
)
from ..rewriter.middleware import SnapshotMiddleware
from ..rewriter.periodenc import T_BEGIN, T_END
from ..rewriter.pipeline import ExecutionInfo, PlanCacheInfo, QueryPipeline
from ..rewriter.rewrite import SnapshotRewriter
from ..temporal.timedomain import TimeDomain
from .relation import FluentError, TemporalRelation

__all__ = ["connect", "Session", "SessionProtocol"]


def _as_domain(domain: Union[TimeDomain, Tuple[int, int], int]) -> TimeDomain:
    """Accept a TimeDomain, a ``(min, max)`` pair, or a size ``n`` (=> 0..n)."""
    if isinstance(domain, TimeDomain):
        return domain
    if isinstance(domain, int):
        return TimeDomain(0, domain)
    if isinstance(domain, tuple) and len(domain) == 2:
        return TimeDomain(domain[0], domain[1])
    raise FluentError(
        f"domain must be a TimeDomain, a (min, max) pair or an int, got {domain!r}"
    )


@runtime_checkable
class SessionProtocol(Protocol):
    """What every session -- local or remote -- promises.

    Exactly the surface :class:`~repro.api.relation.TemporalRelation`
    terminals call into, plus lifecycle; :class:`Session` and
    :class:`~repro.client.RemoteSession` both satisfy it, so code written
    against a ``memory://`` DSN runs unchanged against ``repro://host:port``.
    """

    @property
    def closed(self) -> bool:
        ...

    @property
    def domain(self) -> TimeDomain:
        ...

    def close(self) -> None:
        ...

    def table(self, name: str) -> TemporalRelation:
        ...

    def load(
        self,
        name: str,
        schema: Iterable[str],
        rows: Iterable[Sequence[Any]],
        period: Tuple[str, str] = (T_BEGIN, T_END),
    ) -> TemporalRelation:
        ...

    def query(self, plan: Operator) -> TemporalRelation:
        ...

    def execute(
        self,
        query: Operator,
        statistics: Optional[Dict[str, int]] = None,
        backend: Any = None,
        final_coalesce: bool = False,
        policy: Optional[ExecutionPolicy] = None,
    ) -> Table:
        ...

    def execute_decoded(
        self,
        query: Operator,
        statistics: Optional[Dict[str, int]] = None,
        backend: Any = None,
        final_coalesce: bool = False,
        policy: Optional[ExecutionPolicy] = None,
    ) -> PeriodKRelation:
        ...

    def check(self, query: Operator, **kwargs: Any) -> Any:
        ...

    def materialize(self, relation: TemporalRelation, name: str) -> Any:
        ...

    def analyze(self, table: Optional[str] = None) -> Dict[str, Any]:
        ...

    def explain_relation(self, relation: TemporalRelation) -> str:
        ...

    def cache_info(self) -> PlanCacheInfo:
        ...

    def clear_plan_cache(self) -> None:
        ...

    def execution_info(self) -> ExecutionInfo:
        ...


def _parse_dsn_domain(text: str) -> TimeDomain:
    try:
        lo, hi = text.split(":", 1)
        return TimeDomain(int(lo), int(hi))
    except (ValueError, TypeError) as exc:
        raise FluentError(
            f"DSN domain must look like 'lo:hi' (e.g. domain=0:24), got {text!r}"
        ) from exc


_DSN_BOOL = {"1": True, "true": True, "on": True, "0": False, "false": False, "off": False}


def _dsn_bool(name: str, text: str) -> bool:
    value = _DSN_BOOL.get(text.lower())
    if value is None:
        raise FluentError(f"DSN parameter {name}= must be a boolean, got {text!r}")
    return value


def connect(
    target: "Union[str, TimeDomain, Tuple[int, int], int, None]" = None,
    backend: "str | ExecutionBackend | None" = "memory",
    planner: "bool | str" = True,
    coalesce: str = "final",
    use_temporal_aggregate: bool = True,
    database: Optional[Database] = None,
    plan_cache: bool = True,
    rewriter_cls: type[SnapshotRewriter] = SnapshotRewriter,
    policy: Optional[ExecutionPolicy] = None,
    domain: "Union[TimeDomain, Tuple[int, int], int, None]" = None,
    parallel_workers: Optional[int] = None,
) -> "SessionProtocol":
    """Open a snapshot-semantics session: the transport-agnostic front door.

    ``target`` selects *where* queries execute, via a URL-style DSN:

    * ``"memory://?domain=0:24"`` -- a local :class:`Session` on the
      in-memory engine;
    * ``"sqlite:///path/to.db?domain=0:24"`` -- a local :class:`Session`
      executing on a durable file-backed SQLite database (three slashes =
      relative path, four = absolute), re-syncing queried tables per
      execution;
    * ``"repro://host:port"`` -- a :class:`~repro.client.RemoteSession`
      speaking the wire protocol to a
      :class:`~repro.server.QueryServer` (the domain comes from the
      server's welcome, never from the DSN).

    Every return value satisfies :class:`SessionProtocol` and is a context
    manager with idempotent ``close()``, so calling code is transport-
    agnostic.

    The time domain of a local session comes from the DSN's ``domain=lo:hi``
    query parameter or the ``domain=`` keyword (DSN wins); other recognised
    DSN parameters -- ``planner=on|off|syntactic|cost`` (``cost`` enables
    the statistics-driven planner of :mod:`repro.planner.cost`),
    ``coalesce=final|none|...``, ``plan_cache=on|off``, and on
    ``memory://`` also ``backend=name`` and ``parallel_workers=n`` --
    likewise override their keyword counterparts.  Any other parameter
    (including the removed ``executor=``) raises :class:`FluentError`.

    .. deprecated:: passing the time domain *positionally*
       (``connect((0, 24))``, ``connect(TimeDomain(0, 24))``,
       ``connect(24)``) still works exactly as before -- it is the
       pre-DSN keyword form -- but new code should prefer a DSN (or the
       explicit ``domain=`` keyword).

    Keyword parameters (``backend``, ``planner``, ``coalesce``,
    ``use_temporal_aggregate``, ``database``, ``plan_cache``,
    ``rewriter_cls``, ``policy``) keep their pre-DSN meanings; the ones
    that configure local pipelines are rejected for ``repro://`` targets
    only when they conflict (``policy`` applies client-side and is always
    honoured).
    """
    if target is not None and not isinstance(target, str):
        # The deprecated positional-domain shim (see the docstring note).
        if domain is not None:
            raise FluentError(
                "pass the domain once: positionally (deprecated) or as domain="
            )
        domain = target
        target = None

    if target is None:
        if domain is None:
            raise FluentError(
                "connect needs a target: a DSN (memory://, sqlite:///path, "
                "repro://host:port) or a time domain via domain="
            )
        return _connect_local(
            domain, backend, planner, coalesce, use_temporal_aggregate,
            database, plan_cache, rewriter_cls, policy, parallel_workers,
        )

    parts = urlsplit(target)
    scheme = parts.scheme.lower()
    params = {key: values[-1] for key, values in parse_qs(parts.query).items()}
    if "domain" in params:
        domain = _parse_dsn_domain(params.pop("domain"))
    if "planner" in params:
        raw = params.pop("planner")
        lowered = raw.lower()
        if lowered in ("syntactic", "cost"):
            planner = lowered
        else:
            planner = _dsn_bool("planner", raw)
    if "plan_cache" in params:
        plan_cache = _dsn_bool("plan_cache", params.pop("plan_cache"))
    if "coalesce" in params:
        coalesce = params.pop("coalesce")

    if scheme == "repro":
        if params:
            raise FluentError(
                f"unsupported repro:// DSN parameter(s): {sorted(params)}"
            )
        from ..client import RemoteSession
        from ..server.core import DEFAULT_PORT

        host = parts.hostname or "127.0.0.1"
        port = parts.port if parts.port is not None else DEFAULT_PORT
        return RemoteSession(host, port, policy=policy)

    if scheme == "memory":
        if "backend" in params:
            backend = params.pop("backend")
        if "parallel_workers" in params:
            raw = params.pop("parallel_workers")
            try:
                parallel_workers = int(raw)
            except ValueError as exc:
                raise FluentError(
                    f"DSN parameter parallel_workers= must be an int, got {raw!r}"
                ) from exc
    elif scheme == "sqlite":
        path = parts.path
        if path.startswith("/"):
            # SQLAlchemy convention: sqlite:///rel.db is relative,
            # sqlite:////abs.db is absolute.
            path = path[1:]
        if not path:
            raise FluentError(
                "sqlite DSN needs a file path: sqlite:///path/to.db"
            )
        from ..backends.sqlite import SQLiteBackend

        # The pipeline owns the planner pass; see QueryPipeline._run_plan.
        backend = SQLiteBackend.at_path(path, optimize=False)
    else:
        raise FluentError(
            f"unknown DSN scheme {parts.scheme!r} in {target!r}; expected "
            "memory://, sqlite:///path or repro://host:port"
        )
    if params:
        raise FluentError(
            f"unsupported {scheme}:// DSN parameter(s): {sorted(params)}"
        )
    if domain is None:
        raise FluentError(
            f"a {scheme}:// DSN needs a time domain: append ?domain=lo:hi "
            "or pass domain=(lo, hi)"
        )
    return _connect_local(
        domain, backend, planner, coalesce, use_temporal_aggregate,
        database, plan_cache, rewriter_cls, policy, parallel_workers,
    )


def _connect_local(
    domain: "Union[TimeDomain, Tuple[int, int], int]",
    backend: "str | ExecutionBackend | None",
    planner: "bool | str",
    coalesce: str,
    use_temporal_aggregate: bool,
    database: Optional[Database],
    plan_cache: bool,
    rewriter_cls: type[SnapshotRewriter],
    policy: Optional[ExecutionPolicy],
    parallel_workers: Optional[int] = None,
) -> "Session":
    pipeline = QueryPipeline(
        _as_domain(domain),
        database=database,
        coalesce=coalesce,
        use_temporal_aggregate=use_temporal_aggregate,
        optimize=planner,
        backend=backend,
        rewriter_cls=rewriter_cls,
        plan_cache=plan_cache,
        policy=policy,
        parallel_workers=parallel_workers,
    )
    return Session(pipeline)


class Session:
    """A connected snapshot-semantics session; build with :func:`connect`."""

    def __init__(self, pipeline: QueryPipeline) -> None:
        self._pipeline = pipeline
        self._closed = False

    # -- lifecycle --------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close the session; every later execution raises immediately.

        After closing, all relation terminals (``.rows()``, ``.table()``,
        ``.check()``, ``.explain()``, ...) raise
        :class:`~repro.errors.BackendUnavailableError` without touching the
        backend.  A backend *instance* owned by the session (one passed to
        :func:`connect` with a ``close`` method, such as a session-mode
        SQLite backend) is closed too.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        backend = self._pipeline.backend
        close = getattr(backend, "close", None)
        if callable(close):
            close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise BackendUnavailableError(
                "session is closed; open a new one with repro.connect(...)"
            )

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- introspection ----------------------------------------------------------------

    @property
    def domain(self) -> TimeDomain:
        return self._pipeline.domain

    @property
    def database(self) -> Database:
        """The engine catalog this session owns (or was attached to)."""
        return self._pipeline.database

    @property
    def pipeline(self) -> QueryPipeline:
        """The shared execution path (REWR + planner + backend + plan cache)."""
        return self._pipeline

    @property
    def planner(self) -> "bool | str":
        return self._pipeline.optimize

    @planner.setter
    def planner(self, value: "bool | str") -> None:
        self._pipeline.optimize = value

    @property
    def backend(self) -> "str | ExecutionBackend | None":
        return self._pipeline.backend

    @backend.setter
    def backend(self, value: "str | ExecutionBackend | None") -> None:
        self._pipeline.backend = value

    @property
    def policy(self) -> Optional[ExecutionPolicy]:
        """The session-default execution policy (``None`` = unconstrained)."""
        return self._pipeline.policy

    @policy.setter
    def policy(self, value: Optional[ExecutionPolicy]) -> None:
        self._pipeline.policy = value

    def execution_info(self) -> ExecutionInfo:
        """Lifetime ``(retries, timeouts, fallbacks)`` counters of this session."""
        return self._pipeline.execution_info()

    def middleware(self) -> SnapshotMiddleware:
        """The classic operator-tree interface over this session's pipeline."""
        return SnapshotMiddleware.from_pipeline(self._pipeline)

    def __repr__(self) -> str:
        backend = self._pipeline.backend
        backend_name = getattr(backend, "name", backend) or "memory"
        return (
            f"Session(domain={self._pipeline.domain!r}, backend={backend_name!r}, "
            f"tables={list(self.database.names())})"
        )

    # -- relations --------------------------------------------------------------------

    def table(self, name: str) -> TemporalRelation:
        """A lazy relation over a catalog table (must exist already)."""
        if name not in self.database:
            raise FluentError(
                f"unknown table {name!r}; loaded tables: "
                f"{sorted(self.database.names())} (use session.load(...) first)"
            )
        return TemporalRelation(self, RelationAccess(name))

    def load(
        self,
        name: str,
        schema: Iterable[str],
        rows: Iterable[Sequence[Any]],
        period: Tuple[str, str] = (T_BEGIN, T_END),
    ) -> TemporalRelation:
        """Create a period table and return a lazy relation over it.

        ``schema`` lists the *data* attributes; the two period attributes
        are appended automatically (with the names given in ``period``) and
        each row is expected to end with its begin and end time points.
        """
        self._pipeline.load_table(name, schema, rows, period)
        return TemporalRelation(self, RelationAccess(name))

    def load_relation(self, name: str, relation: PeriodKRelation) -> TemporalRelation:
        """Register a logical-model relation (PERIODENC-encoded) and wrap it."""
        self._pipeline.load_period_relation(name, relation)
        return TemporalRelation(self, RelationAccess(name))

    def query(self, plan: Operator) -> TemporalRelation:
        """Wrap a hand-built operator tree as a lazy relation.

        The bridge for existing code and for differential testing: a wrapped
        tree executes through exactly the same pipeline (and plan cache) as
        a fluent chain.
        """
        if not isinstance(plan, Operator):
            raise FluentError(f"query expects an Operator tree, got {plan!r}")
        return TemporalRelation(self, plan)

    # -- execution (operator-tree level; the relations call into these) ---------------

    def execute(
        self,
        query: Operator,
        statistics: Optional[Dict[str, int]] = None,
        backend: "str | ExecutionBackend | None" = None,
        final_coalesce: bool = False,
        policy: Optional[ExecutionPolicy] = None,
    ) -> Table:
        """Evaluate a logical query under snapshot semantics; a period table."""
        self._ensure_open()
        return self._pipeline.execute(query, statistics, backend, final_coalesce, policy)

    def execute_decoded(
        self,
        query: Operator,
        statistics: Optional[Dict[str, int]] = None,
        backend: "str | ExecutionBackend | None" = None,
        final_coalesce: bool = False,
        policy: Optional[ExecutionPolicy] = None,
    ) -> PeriodKRelation:
        """Evaluate and decode into a period K-relation (N^T)."""
        self._ensure_open()
        return self._pipeline.execute_decoded(
            query, statistics, backend, final_coalesce, policy
        )

    def check(self, query: Operator, **kwargs: Any):
        """Snapshot-conformance check of one query against the oracle.

        Runs :func:`repro.conformance.check_conformance` over this session's
        catalog and domain, defaulting the rewriter configuration
        (``rewriter_cls``, ``coalesce``, ``use_temporal_aggregate``) to the
        *session's own* settings -- so the certified configuration is the one
        this session actually executes.  Any keyword argument passes through
        and overrides (``backends=``, ``optimize_modes=``, ``points=``,
        ``rewriter_cls=``, ...).
        """
        from ..conformance import check_conformance

        self._ensure_open()
        kwargs.setdefault("rewriter_cls", self._pipeline.rewriter_cls)
        kwargs.setdefault("coalesce", self._pipeline.coalesce)
        kwargs.setdefault("use_temporal_aggregate", self._pipeline.use_temporal_aggregate)
        return check_conformance(query, self.database, self.domain, **kwargs)

    # -- materialized views -----------------------------------------------------------

    def materialize(self, relation: TemporalRelation, name: str) -> Any:
        """Register a relation as an incrementally maintained view.

        The relation's rewritten plan is evaluated once and its contents
        registered as catalog table ``name`` (DDL -- cached plans
        invalidate); afterwards catalog DML (``session.insert`` /
        ``session.delete``) keeps the view current by Z-set delta
        propagation instead of re-execution.  Returns the
        :class:`~repro.incremental.MaterializedView`, whose ``apply`` /
        ``explain`` / ``verify`` expose the incremental counters
        (``incremental.delta_rows``, ``incremental.resweep_groups``,
        ``incremental.full_refresh``).
        """
        self._ensure_open()
        if not isinstance(relation, TemporalRelation):
            raise FluentError(
                f"materialize expects a TemporalRelation, got {relation!r}"
            )
        return self._pipeline.materialize(
            relation.plan, name, final_coalesce=relation._final_coalesce
        )

    def view(self, name: str) -> Any:
        """A registered :class:`~repro.incremental.MaterializedView` by name."""
        return self._pipeline.view(name)

    def views(self) -> Tuple[str, ...]:
        """Names of the registered materialized views."""
        return self._pipeline.view_names()

    def drop_view(self, name: str) -> None:
        """Unregister a view and drop its backing table (DDL)."""
        self._ensure_open()
        self._pipeline.drop_view(name)

    def insert(self, name: str, rows: Iterable[Sequence[Any]]) -> None:
        """Append rows to a catalog table (DML; feeds registered views)."""
        self._ensure_open()
        self.database.insert(name, rows)

    def delete(self, name: str, rows: Iterable[Sequence[Any]]) -> None:
        """Delete one copy per given row (DML; feeds registered views)."""
        self._ensure_open()
        self.database.delete(name, rows)

    # -- statistics -------------------------------------------------------------------

    def analyze(self, table: Optional[str] = None) -> Dict[str, Any]:
        """Collect interval statistics for ``table`` (or every catalog table).

        The ANALYZE step of the cost-based planner: builds a
        :class:`~repro.stats.TableStatistics` per table (row count, per-column
        distinct counts, endpoint histograms, interval-length quantiles and
        overlap density), stores it in the catalog and returns the mapping
        ``{table_name: TableStatistics}``.  Statistics on a table are dropped
        automatically when DML touches it; re-run ``analyze`` to refresh.
        Sessions with ``planner="cost"`` use them for join reordering,
        strategy selection and the partitioned join's parallel threshold;
        other planner modes ignore them.
        """
        self._ensure_open()
        return self.database.analyze(table)

    # -- plan cache -------------------------------------------------------------------

    def cache_info(self) -> PlanCacheInfo:
        """Lifetime ``(hits, misses, size)`` of the rewritten-plan cache."""
        return self._pipeline.cache_info()

    def clear_plan_cache(self) -> None:
        self._pipeline.clear_plan_cache()

    # -- explain ----------------------------------------------------------------------

    def explain_relation(self, relation: TemporalRelation) -> str:
        """The rendered pipeline for one relation; see ``TemporalRelation.explain``."""
        self._ensure_open()
        query = relation.plan
        final_coalesce = relation._final_coalesce
        mode = self._pipeline.planner_mode
        sections = ["logical plan:", _indent(query.explain_tree())]

        # Stage views (bypassing the cache so both stages are visible).
        planner_statistics: Dict[str, int] = {}
        staged = query
        if mode == "cost":
            staged = reorder_joins(
                staged, self.database, planner_statistics, snapshot=True
            )
        rewritten = self._pipeline.rewriter.rewrite(staged)
        if final_coalesce:
            from ..rewriter.operators import CoalesceOperator

            rewritten = CoalesceOperator(rewritten)
        sections += ["", "REWR plan:", _indent(rewritten.explain_tree())]
        if mode != "off":
            optimized = planner_optimize(
                rewritten, self.database, planner_statistics, mode=mode
            )
            sections += [
                "",
                "optimized plan (planner on):",
                _indent(optimized.explain_tree()),
            ]
            rules = {
                key: value
                for key, value in sorted(planner_statistics.items())
                if key.startswith("planner.")
            }
            sections += ["", "planner rules fired:"]
            sections += (
                [f"  {key} = {value}" for key, value in rules.items()]
                if rules
                else ["  (none)"]
            )
        else:
            sections += ["", "planner: off"]

        # One observed execution for the engine's strategy counters and the
        # per-node row counts (this goes through the cache, warming it as a
        # side effect).  Rewriting first keeps one plan object whose node
        # identities line up with the recorded observations.
        execution_statistics: Dict[str, int] = {}
        observations: Dict[int, Dict[str, Any]] = {}
        executed = self._pipeline.rewrite(query, execution_statistics, final_coalesce)
        self._pipeline.execute_rewritten(
            executed, execution_statistics, observations=observations
        )
        strategies = {
            key: value
            for key, value in sorted(execution_statistics.items())
            if key.startswith("join_strategy.")
        }
        backend = self._pipeline.backend
        backend_name = getattr(backend, "name", backend) or "memory"
        sections += ["", f"execution (backend={backend_name!r}):"]
        sections += (
            [f"  {key} = {value}" for key, value in strategies.items()]
            if strategies
            else ["  (no joins)"]
        )
        # The in-memory engine's partitioned-join counters.
        partition_counters = {
            key: value
            for key, value in sorted(execution_statistics.items())
            if key.startswith("batch.")
        }
        if partition_counters:
            sections += ["", "partitioned joins:"]
            sections += [
                f"  {key} = {value}" for key, value in partition_counters.items()
            ]
        if observations:
            # Estimated vs observed cardinalities per node (the cost model's
            # report card): joins additionally show the physical strategy the
            # engine actually chose.  SQL backends run the plan wholesale
            # and record nothing, so the section only appears for the
            # in-memory engine.
            estimates = estimate_plan(executed, self.database)
            annotations: Dict[int, str] = {}
            for node_id in set(estimates) | set(observations):
                parts = []
                strategy = observations.get(node_id, {}).get("join_strategy")
                if strategy is not None:
                    parts.append(f"strategy={strategy}")
                estimate = estimates.get(node_id)
                if estimate is not None:
                    parts.append(f"estimated_rows={int(round(estimate))}")
                actual = observations.get(node_id, {}).get("actual_rows")
                if actual is not None:
                    parts.append(f"actual_rows={int(actual)}")
                if parts:
                    annotations[node_id] = "[" + " ".join(parts) + "]"
            sections += [
                "",
                "executed plan:",
                _indent(executed.explain_tree(annotations)),
            ]
        if self._pipeline.caching:
            if execution_statistics.get("plan_cache.hits"):
                cache_line = "hit (REWR + planner skipped)"
            else:
                cache_line = "miss (plan now cached)"
            sections += ["", f"plan cache: {cache_line}"]
        return "\n".join(sections)


def _indent(text: str, prefix: str = "  ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())
