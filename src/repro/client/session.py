"""The remote fluent session: :class:`RemoteSession`.

The same surface as the local :class:`~repro.api.session.Session` -- lazy
:class:`~repro.api.relation.TemporalRelation` objects whose terminals
(``.rows`` / ``.table`` / ``.decoded`` / ``.pretty`` / ``.check`` /
``.explain``) behave byte-for-byte like local execution -- but queries ship
to a :class:`~repro.server.QueryServer` as JSON logical plans and execute
there, through the server's *shared* plan cache (one client's cold query is
every other client's warm hit).

Division of labour with the server:

* **rewrite + execute + deadline + row budget** run server-side (the query
  frame carries the remaining ``timeout_seconds`` and ``max_result_rows``
  of the effective :class:`~repro.execution.ExecutionPolicy`);
* **retries + failover** run client-side through the shared
  :func:`~repro.execution.run_with_policy`, because the transport is one of
  the failure modes being tolerated: a dropped connection surfaces as the
  transient :class:`~repro.errors.BackendUnavailableError`, the retry
  reconnects, and ``fallback_backend`` names the backend the *server*
  should degrade to;
* **decoding** (``.decoded`` / ``.snapshot``) runs client-side on the
  streamed period rows, against the domain announced in the welcome frame.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..algebra.operators import Operator, RelationAccess
from ..api.relation import FluentError, TemporalRelation
from ..engine.table import Table
from ..errors import BackendUnavailableError
from ..execution import ExecutionPolicy, run_with_policy
from ..logical_model.period_relation import PeriodKRelation
from ..rewriter.periodenc import T_BEGIN, T_END, period_decode
from ..rewriter.pipeline import ExecutionInfo, PlanCacheInfo
from ..semirings.standard import NATURAL
from ..temporal.period_semiring import PeriodSemiring
from ..temporal.timedomain import TimeDomain
from .connection import RemoteConnection

__all__ = ["RemoteSession", "RemoteView"]

#: Options ``check`` may forward to the server (the JSON-able subset of
#: :func:`repro.conformance.check_conformance`'s keywords).
_REMOTE_CHECK_OPTIONS = (
    "backends",
    "optimize_modes",
    "points",
    "max_points",
    "minimize",
    "shrink_budget",
)


class RemoteSession:
    """A fluent temporal session executing on a remote query server.

    Build with :func:`repro.connect` and a ``repro://host:port`` DSN.
    Satisfies :class:`~repro.api.SessionProtocol`, so
    :class:`~repro.api.relation.TemporalRelation` chains built on it are
    indistinguishable from local ones.
    """

    def __init__(
        self,
        host: str,
        port: int,
        policy: Optional[ExecutionPolicy] = None,
        connect_timeout: float = 10.0,
    ) -> None:
        self._connection = RemoteConnection(host, port, connect_timeout)
        self.policy = policy
        self._closed = False
        self._retries = 0
        self._timeouts = 0
        self._fallbacks = 0
        # Fail fast on a dead address and learn the domain immediately.
        welcome = self._connection.ensure_connected()
        lo, hi = welcome["domain"]
        self._domain = TimeDomain(lo, hi)
        self._semiring = PeriodSemiring(NATURAL, self._domain)

    # -- lifecycle --------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close the session and its connection.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._connection.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise BackendUnavailableError(
                "session is closed; open a new one with repro.connect(...)"
            )

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- introspection ----------------------------------------------------------------

    @property
    def domain(self) -> TimeDomain:
        return self._domain

    @property
    def url(self) -> str:
        return f"repro://{self._connection.host}:{self._connection.port}"

    def tables(self) -> List[str]:
        """The table names currently loaded on the server."""
        self._ensure_open()
        return list(self._connection.request({"type": "tables"})["tables"])

    def ping(self) -> bool:
        """Round-trip liveness probe."""
        self._ensure_open()
        return self._connection.request({"type": "ping"})["type"] == "ok"

    def __repr__(self) -> str:
        state = "closed" if self._closed else self.url
        return f"RemoteSession({state}, domain={self._domain!r})"

    # -- relations --------------------------------------------------------------------

    def table(self, name: str) -> TemporalRelation:
        """A lazy relation over a server-side table (must exist already)."""
        self._ensure_open()
        names = self.tables()
        if name not in names:
            raise FluentError(
                f"unknown table {name!r}; loaded tables: "
                f"{sorted(names)} (use session.load(...) first)"
            )
        return TemporalRelation(self, RelationAccess(name))

    def load(
        self,
        name: str,
        schema: Iterable[str],
        rows: Iterable[Sequence[Any]],
        period: Tuple[str, str] = (T_BEGIN, T_END),
    ) -> TemporalRelation:
        """Create a period table on the server; returns a lazy relation."""
        self._ensure_open()
        self._connection.request(
            {
                "type": "load",
                "name": name,
                "schema": list(schema),
                "rows": [list(row) for row in rows],
                "period": list(period),
            }
        )
        return TemporalRelation(self, RelationAccess(name))

    def query(self, plan: Operator) -> TemporalRelation:
        """Wrap a hand-built operator tree as a lazy relation (as locally)."""
        if not isinstance(plan, Operator):
            raise FluentError(f"query expects an Operator tree, got {plan!r}")
        return TemporalRelation(self, plan)

    # -- materialized views -----------------------------------------------------------

    def materialize(self, relation: TemporalRelation, name: str) -> "RemoteView":
        """Register a relation as a server-side incrementally maintained view.

        The logical plan ships as JSON (like a query frame); the server
        rewrites, evaluates and registers it against its shared catalog, and
        subsequent ``insert`` / ``delete`` calls -- from *any* client -- keep
        it current by delta propagation.  Returns a :class:`RemoteView`.
        """
        from ..server.plans import plan_to_json

        self._ensure_open()
        payload = self._connection.request(
            {
                "type": "materialize",
                "name": name,
                "plan": plan_to_json(relation.plan),
                "final_coalesce": relation._final_coalesce,
            }
        )
        return RemoteView(self, name, tuple(payload["schema"]))

    def view(self, name: str) -> "RemoteView":
        """A handle on an existing server-side view."""
        self._ensure_open()
        payload = self._connection.request({"type": "view_info", "name": name})
        return RemoteView(self, name, tuple(payload["schema"]))

    def views(self) -> Tuple[str, ...]:
        """Names of the views registered on the server."""
        self._ensure_open()
        return tuple(self._connection.request({"type": "view_info"})["views"])

    def drop_view(self, name: str) -> None:
        self._ensure_open()
        self._connection.request({"type": "drop_view", "name": name})

    def insert(self, name: str, rows: Iterable[Sequence[Any]]) -> None:
        """Append rows to a server table (DML; feeds registered views)."""
        self._ensure_open()
        self._connection.request(
            {"type": "insert", "name": name, "rows": [list(row) for row in rows]}
        )

    def delete(self, name: str, rows: Iterable[Sequence[Any]]) -> None:
        """Delete one copy per given row (DML; feeds registered views)."""
        self._ensure_open()
        self._connection.request(
            {"type": "delete", "name": name, "rows": [list(row) for row in rows]}
        )

    def analyze(self, table: Optional[str] = None) -> Dict[str, Any]:
        """Collect interval statistics server-side (ANALYZE over the wire).

        Statistics are stored in the *server's* catalog -- where the shared
        pipeline's cost planner reads them -- and returned here decoded into
        :class:`~repro.stats.TableStatistics` for inspection.
        """
        from ..stats import TableStatistics

        self._ensure_open()
        payload = self._connection.request({"type": "analyze", "name": table})
        return {
            name: TableStatistics.from_dict(data)
            for name, data in payload["statistics"].items()
        }

    # -- execution --------------------------------------------------------------------

    def execute(
        self,
        query: Operator,
        statistics: Optional[Dict[str, int]] = None,
        backend: Optional[Any] = None,
        final_coalesce: bool = False,
        policy: Optional[ExecutionPolicy] = None,
    ) -> Table:
        """Evaluate a logical query on the server; returns a period table."""
        from ..server.plans import plan_to_json

        self._ensure_open()
        plan_json = plan_to_json(query)
        effective = policy if policy is not None else self.policy

        def attempt_on(chosen: Optional[Any], limits: Any) -> Table:
            frame: Dict[str, Any] = {
                "type": "query",
                "plan": plan_json,
                "final_coalesce": final_coalesce,
            }
            backend_name = _backend_name(chosen)
            if backend_name is not None:
                frame["backend"] = backend_name
            deadline_seconds = None
            if limits is not None:
                if limits.deadline is not None:
                    deadline_seconds = max(0.0, limits.deadline.remaining)
                    frame["timeout_seconds"] = deadline_seconds
                if limits.row_budget is not None:
                    frame["max_result_rows"] = limits.row_budget
            name, schema, rows, remote_statistics = self._connection.run_query(
                frame, deadline_seconds
            )
            _merge_statistics(statistics, remote_statistics)
            table = Table(name, schema)
            table.rows = rows
            return table

        if effective is None:
            return attempt_on(backend, None)

        def observer(event: str) -> None:
            if event == "retry":
                self._retries += 1
                _count(statistics, "execution.retries")
            elif event == "fallback":
                self._fallbacks += 1
                _count(statistics, "execution.fallbacks")
            elif event == "timeout":
                self._timeouts += 1
                _count(statistics, "execution.timeouts")

        fallback = None
        if effective.fallback_backend is not None:
            fallback = lambda limits: attempt_on(  # noqa: E731
                effective.fallback_backend, limits
            )
        return run_with_policy(
            effective,
            lambda limits: attempt_on(backend, limits),
            fallback=fallback,
            observer=observer,
        )

    def execute_decoded(
        self,
        query: Operator,
        statistics: Optional[Dict[str, int]] = None,
        backend: Optional[Any] = None,
        final_coalesce: bool = False,
        policy: Optional[ExecutionPolicy] = None,
    ) -> PeriodKRelation:
        """Evaluate remotely and decode client-side into a period K-relation."""
        return period_decode(
            self.execute(query, statistics, backend, final_coalesce, policy),
            self._semiring,
        )

    def check(self, query: Operator, **kwargs: Any):
        """Snapshot-conformance check, executed server-side.

        Accepts the JSON-able subset of
        :func:`repro.conformance.check_conformance` keywords (``backends``,
        ``optimize_modes``, ``points``, ``max_points``, ``minimize``,
        ``shrink_budget``); the rewriter configuration is always the
        *server's* own, exactly as a local session defaults to its own.
        Returns the same :class:`~repro.conformance.ConformanceReport`.
        """
        from ..conformance.harness import ConformanceReport, Counterexample
        from ..server.plans import plan_from_json, plan_to_json

        self._ensure_open()
        unknown = set(kwargs) - set(_REMOTE_CHECK_OPTIONS)
        if unknown:
            raise FluentError(
                f"remote check does not support option(s) {sorted(unknown)}; "
                f"supported: {list(_REMOTE_CHECK_OPTIONS)}"
            )
        options = {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in kwargs.items()
        }
        payload = self._connection.request(
            {"type": "check", "plan": plan_to_json(query), "options": options}
        )["report"]
        witness = None
        if payload.get("counterexample") is not None:
            raw = payload["counterexample"]
            witness = Counterexample(
                backend=raw["backend"],
                optimize=raw["optimize"],
                point=raw["point"],
                query=plan_from_json(raw["query"]),
                tables={
                    name: [tuple(row) for row in rows]
                    for name, rows in raw["tables"].items()
                },
                expected={tuple(row): count for row, count in raw["expected"]},
                actual={tuple(row): count for row, count in raw["actual"]},
                error=raw.get("error"),
                shrink_checks=raw.get("shrink_checks", 0),
            )
        return ConformanceReport(
            checks=payload["checks"],
            points=tuple(payload["points"]),
            configurations=tuple(
                # Not bool()-coerced: a "cost" optimize mode must round-trip.
                (backend, optimize)
                for backend, optimize in payload["configurations"]
            ),
            counterexample=witness,
        )

    # -- plan cache / counters --------------------------------------------------------

    def cache_info(self) -> PlanCacheInfo:
        """The *server's* shared plan-cache counters (all clients combined)."""
        self._ensure_open()
        payload = self._connection.request({"type": "cache_info"})
        return PlanCacheInfo(
            hits=payload["hits"], misses=payload["misses"], size=payload["size"]
        )

    def clear_plan_cache(self) -> None:
        self._ensure_open()
        self._connection.request({"type": "clear_cache"})

    def execution_info(self) -> ExecutionInfo:
        """Client-observed ``(retries, timeouts, fallbacks)`` counters.

        Policy enforcement is split: retries and failover run *here* (they
        must survive transport failures), so this reports the client-side
        counters; :meth:`server_execution_info` reports the server
        pipeline's own.
        """
        return ExecutionInfo(
            retries=self._retries, timeouts=self._timeouts, fallbacks=self._fallbacks
        )

    def server_execution_info(self) -> ExecutionInfo:
        """The server pipeline's lifetime fault-tolerance counters."""
        self._ensure_open()
        payload = self._connection.request({"type": "execution_info"})
        return ExecutionInfo(
            retries=payload["retries"],
            timeouts=payload["timeouts"],
            fallbacks=payload["fallbacks"],
        )

    # -- explain ----------------------------------------------------------------------

    def explain_relation(self, relation: TemporalRelation) -> str:
        """The rendered pipeline for one relation, produced server-side."""
        from ..server.plans import plan_to_json

        self._ensure_open()
        payload = self._connection.request(
            {
                "type": "explain",
                "plan": plan_to_json(relation.plan),
                "final_coalesce": relation._final_coalesce,
            }
        )
        return payload["text"]


class RemoteView:
    """A client handle on a server-side incrementally maintained view.

    Mirrors the local :class:`~repro.incremental.MaterializedView` surface
    (``apply`` / ``rows`` / ``table`` / ``counters`` / ``stale`` /
    ``verify``), each call a frame round-trip; the view itself -- its delta
    propagation state and backing table -- lives on the server and is shared
    by every connected client.
    """

    def __init__(self, session: RemoteSession, name: str, schema: Tuple[str, ...]):
        self._session = session
        self.name = name
        self.schema = schema

    def _request(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        self._session._ensure_open()
        return self._session._connection.request(frame)

    def apply(
        self,
        deltas: Iterable[Any],
        statistics: Optional[Dict[str, int]] = None,
    ) -> int:
        """Ship signed-row deltas to the server view; returns the new size.

        ``deltas`` is an iterable of :class:`~repro.incremental.Delta`
        (or anything with ``.relation`` and ``.entries``).
        """
        payload = self._request(
            {
                "type": "view_apply",
                "name": self.name,
                "deltas": [
                    {
                        "relation": delta.relation,
                        "entries": [
                            [list(row), weight]
                            for row, weight in delta.entries.items()
                        ],
                    }
                    for delta in deltas
                ],
            }
        )
        if statistics is not None:
            for key, value in payload.get("counters", {}).items():
                statistics[key] = statistics.get(key, 0) + value
        return int(payload["rows"])

    def rows(self) -> List[Tuple[Any, ...]]:
        """The view's current contents (one round-trip)."""
        payload = self._request({"type": "view_rows", "name": self.name})
        return [tuple(row) for row in payload["rows"]]

    def table(self) -> Table:
        """The view's current contents as a local period table."""
        payload = self._request({"type": "view_rows", "name": self.name})
        table = Table(self.name, tuple(payload["schema"]))
        table.rows = [tuple(row) for row in payload["rows"]]
        return table

    def info(self) -> Dict[str, Any]:
        """The server's full view descriptor (schema, staleness, counters)."""
        return self._request({"type": "view_info", "name": self.name})

    @property
    def stale(self) -> bool:
        return bool(self.info()["stale"])

    @property
    def base_relations(self) -> Tuple[str, ...]:
        return tuple(self.info()["base_relations"])

    @property
    def counters(self) -> Dict[str, int]:
        """Lifetime ``incremental.*`` maintenance counters, server-side."""
        return dict(self.info()["counters"])

    def verify(self) -> bool:
        """Server-side bag-equality check of the view vs. full re-execution."""
        return bool(self._request({"type": "view_verify", "name": self.name})["ok"])

    def __len__(self) -> int:
        return len(self.rows())

    def __repr__(self) -> str:
        return f"RemoteView({self.name!r}, schema={list(self.schema)})"


def _backend_name(backend: Optional[Any]) -> Optional[str]:
    """Normalise a backend argument to the name the server resolves."""
    if backend is None:
        return None
    if isinstance(backend, str):
        return backend
    name = getattr(backend, "name", None)
    if isinstance(name, str):
        return name
    raise FluentError(
        f"remote execution addresses backends by name; got instance {backend!r}"
    )


def _merge_statistics(
    statistics: Optional[Dict[str, int]], remote: Dict[str, Any]
) -> None:
    """Fold the server's per-request counters into the caller's mapping.

    Counters add up (retried attempts accumulate, as locally); ``server.*``
    gauges overwrite (the latest observation wins).
    """
    if statistics is None:
        return
    for key, value in remote.items():
        if key.startswith("server."):
            statistics[key] = value
        else:
            statistics[key] = statistics.get(key, 0) + value


def _count(statistics: Optional[Dict[str, int]], key: str) -> None:
    if statistics is not None:
        statistics[key] = statistics.get(key, 0) + 1
