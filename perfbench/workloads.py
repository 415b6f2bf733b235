"""The benchmark's workloads: set-up, expected results and the operation stream.

Every workload is one closed-loop client: it issues its next operation
when the previous one has returned.  Each workload uses only
``repro.connect`` DSNs with default options, the fluent relation API and
the dataset generators, so the program receives nothing but generated
inputs.

* ``employee``: the paper's ten Table 3 Employee queries, round robin, on a
  local session at Employees scale 1.0.  After warm-up every execution is a
  plan-cache hit.
* ``adhoc``: a stream of never-repeating fluent queries with fresh
  literals over a 32-row-per-table catalog, so every query misses the plan
  cache.
* ``remote_churn``: a ``repro://`` server in its own process with a
  materialized grouped view; the client alternates grouped temporal
  aggregates and full view reads with 1% delete/re-insert churn batches.

Expected results come from an independent evaluation made before the
timed loop: the SQLite backend on the same catalog for ``employee`` and
``adhoc``, and fresh evaluations on a local in-memory replica taken
through the same committed states for ``remote_churn``.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class Op:
    """One client operation: a read (``build`` then ``rows()``) or a write."""

    __slots__ = ("kind", "build", "write", "expected")

    def __init__(
        self,
        kind: str,
        build: Optional[Callable[[], Any]] = None,
        write: Optional[Callable[[], None]] = None,
        expected: Optional[Counter] = None,
    ) -> None:
        self.kind = kind
        self.build = build
        self.write = write
        self.expected = expected


def _dsn(scheme_and_options: str, domain: Any) -> str:
    separator = "&" if "?" in scheme_and_options else "?"
    return f"{scheme_and_options}{separator}domain={domain.min_point}:{domain.max_point}"


# -- employee -----------------------------------------------------------------------------


class Employee:
    """Table 3 Employee queries, round robin, on a warm plan cache."""

    name = "employee"
    scale = 1.0
    ops_per_second = None  # the loop runs for its time

    def __init__(self, seed: int) -> None:
        from repro import connect
        from repro.datasets.employees import EMPLOYEE_TABLES, EmployeesConfig, generate_employees
        from repro.datasets.workloads import EMPLOYEE_WORKLOAD

        self._connect = connect
        self._tables = EMPLOYEE_TABLES
        self._queries = EMPLOYEE_WORKLOAD
        self.cycle = len(EMPLOYEE_WORKLOAD)  # operations per round-robin pass
        self._config = EmployeesConfig(scale=self.scale, seed=seed)
        self._generate = generate_employees
        self.session: Any = None
        self.expected: Dict[str, Counter] = {}

    def _load(self, dsn: str) -> Any:
        source = self._generate(self._config)
        session = self._connect(_dsn(dsn, self._config.domain))
        for table, (data, _period) in self._tables.items():
            session.load(table, data, source.table(table).rows)
        return session

    def setup(self) -> None:
        self.teardown()
        self.session = self._load("memory://")
        for factory in self._queries.values():
            self.session.query(factory()).rows()

    def oracle(self) -> None:
        sqlite = self._load("memory://?backend=sqlite")
        try:
            for name, factory in self._queries.items():
                self.expected[name] = Counter(sqlite.query(factory()).rows())
        finally:
            sqlite.close()

    def ops(self) -> Iterator[Op]:
        while True:
            for name, factory in self._queries.items():
                yield Op(
                    name,
                    build=lambda factory=factory: self.session.query(factory()),
                    expected=self.expected[name],
                )

    def teardown(self) -> Dict[str, Any]:
        if self.session is not None:
            self.session.close()
            self.session = None
        return {"ok": True, "extra_rss_kb": 0}


# -- adhoc --------------------------------------------------------------------------------


#: Semantic parameters (lo, hi, k, g) of the ad-hoc query classes.
ADHOC_CLASSES = [
    (lo, hi, k, g) for lo in (0, 2, 4) for hi in (3, 5) for k in (2, 5) for g in (0, 1)
]

#: Query uid reserved for the SQLite reference query of each class.
_ORACLE_UID = 9_999_990


def adhoc_query(session: Any, params: Tuple[int, int, int, int], uid: int) -> Any:
    """One ad-hoc query: the shape of a deep, rewrite-heavy fluent chain.

    ``uid`` makes the literals fresh, so no two queries share a plan-cache
    entry, without changing the result: ``r_val`` and ``s_val`` are
    integers, so ``r_val > lo.f`` means ``r_val > lo`` and ``s_val < hi.f``
    means ``s_val <= hi`` for every fraction ``0 < .f < 1``.
    """
    lo, hi, k, g = params
    fraction = f"{uid + 1:07d}"
    r = session.table("R").where(f"r_val > {lo}.{fraction}").select(cat="r_cat", val="r_val")
    s = session.table("S").where(f"s_val < {hi}.{fraction}").select(cat="s_cat", val="s_val")
    joined = (
        session.table("R")
        .join(session.table("S"), on="r_key = s_key")
        .select(cat="r_cat", val="s_val")
    )
    everything = r.union(s).union(joined)
    active = everything.difference(r.where(f"val > {k}")).distinct()
    return (
        active.union(everything.where(f"cat = 'g{g}'"))
        .group_by("cat")
        .agg(cnt="count(*)", total="sum(val)")
    )


class Adhoc:
    """Never-repeating fluent queries over a tiny catalog: every query misses."""

    name = "adhoc"
    rows = 32
    cycle = 1
    #: A run makes this many queries per second of ``--seconds``, however
    #: fast the host is: each query adds a plan-cache entry, so a fixed
    #: count gives every run the same cache, heap and collector work.  A
    #: 2-vCPU Linux VM runs 150 to 250 queries a second, so the loop fits
    #: its time there and stops short of the hard stop (twice the time) on
    #: a host up to 2.5 times slower.
    ops_per_second = 120

    def __init__(self, seed: int) -> None:
        from repro import connect
        from repro.datasets.generator import GeneratorConfig, generate_rows

        self._connect = connect
        self._generate_rows = generate_rows
        self._config = GeneratorConfig(
            rows=self.rows,
            domain_size=64,
            seed=seed,
            # Short intervals keep the engine's share small, so parse, REWR
            # and the planner take the largest share of each read.
            interval_profile="short",
            duplicate_rate=0.1,
            groups=4,
            values=8,
            keys=16,
        )
        self._rng = random.Random(f"adhoc/{seed}")
        self._uid = 0
        self.session: Any = None
        self.expected: Dict[Tuple[int, int, int, int], Counter] = {}

    def _load(self, dsn: str) -> Any:
        session = self._connect(_dsn(dsn, self._config.domain))
        for table, prefix in (("R", "r"), ("S", "s")):
            columns = [f"{prefix}_key", f"{prefix}_cat", f"{prefix}_val"]
            session.load(table, columns, self._generate_rows(self._config, prefix))
        return session

    def _next_uid(self) -> int:
        self._uid += 1
        return self._uid

    def setup(self) -> None:
        self.teardown()
        self.session = self._load("memory://")
        for params in ADHOC_CLASSES[:4]:
            adhoc_query(self.session, params, self._next_uid()).rows()

    def oracle(self) -> None:
        sqlite = self._load("memory://?backend=sqlite")
        try:
            for params in ADHOC_CLASSES:
                self.expected[params] = Counter(adhoc_query(sqlite, params, _ORACLE_UID).rows())
        finally:
            sqlite.close()

    def ops(self) -> Iterator[Op]:
        while True:
            params = self._rng.choice(ADHOC_CLASSES)
            uid = self._next_uid()
            yield Op(
                "adhoc",
                build=lambda params=params, uid=uid: adhoc_query(self.session, params, uid),
                expected=self.expected[params],
            )

    def teardown(self) -> Dict[str, Any]:
        if self.session is not None:
            self.session.close()
            self.session = None
        return {"ok": True, "extra_rss_kb": 0}


# -- remote_churn -------------------------------------------------------------------------


class ServerProcess:
    """``perfbench/server.py`` in a child process; stopped by :meth:`stop`."""

    def __init__(self, domain: Any) -> None:
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "server.py")
        self.process = subprocess.Popen(
            [
                sys.executable, script, "--src", SRC_DIR,
                "--domain", f"{domain.min_point}:{domain.max_point}",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.process.stdout.readline() if self.process.stdout else ""
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError(f"query server did not start (said {line!r})")
        self.port = int(line.split()[1])

    def stop(self) -> int:
        """Stop the server, wait for it, and return its peak RSS in KiB."""
        peak_kb = 0
        try:
            output, _ = self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            output, _ = self.process.communicate()
        for line in (output or "").splitlines():
            if line.startswith("MAXRSS_KB "):
                peak_kb = int(line.split()[1])
        return peak_kb


class RemoteChurn:
    """Reads and 1% churn writes against a query server holding one view."""

    name = "remote_churn"
    ops_per_second = None  # the loop runs for its time
    rows = 2000
    cycle = 6  # operations per churn batch in ops()
    batches = 8
    view = "key_totals"

    def __init__(self, seed: int) -> None:
        from repro import connect
        from repro.datasets.generator import GeneratorConfig, generate_rows

        self._connect = connect
        config = GeneratorConfig(
            rows=self.rows,
            domain_size=256,
            seed=seed,
            interval_profile="mixed",
            duplicate_rate=0.1,
            groups=16,
            values=32,
            keys=max(64, self.rows // 8),
        )
        self.domain = config.domain
        self.base_rows = generate_rows(config, "r")
        rng = random.Random(f"remote_churn/{seed}")
        churn = max(1, self.rows // 100)
        self.churn_batches = [rng.sample(self.base_rows, churn) for _ in range(self.batches)]
        self.server: Optional[ServerProcess] = None
        self.session: Any = None
        self.remote_view: Any = None
        self.replica: Any = None
        self.replica_view: Any = None
        # state -> (aggregate bag, view bag); state None is the full catalog,
        # state k the full catalog minus churn batch k.
        self.expected: Dict[Optional[int], Tuple[Counter, Counter]] = {}

    # The two reads, built afresh on every call like any fluent query.
    @staticmethod
    def aggregate(session: Any) -> Any:
        return session.table("R").group_by("r_cat").agg(cnt="count(*)", total="sum(r_val)")

    def view_read(self, session: Any) -> Any:
        return session.table(self.view)

    def _view_definition(self, session: Any) -> Any:
        return session.table("R").group_by("r_key").agg(cnt="count(*)", total="sum(r_val)")

    def _load(self, session: Any) -> Any:
        session.load("R", ["r_key", "r_cat", "r_val"], self.base_rows)
        return session.materialize(self._view_definition(session), self.view)

    def setup(self) -> None:
        self._stop_server()
        self.server = ServerProcess(self.domain)
        self.session = self._connect(f"repro://127.0.0.1:{self.server.port}")
        self.remote_view = self._load(self.session)
        self.aggregate(self.session).rows()
        self.view_read(self.session).rows()
        self.session.delete("R", self.churn_batches[0])
        self.session.insert("R", self.churn_batches[0])

    def oracle(self) -> None:
        if self.replica is None:
            self.replica = self._connect(_dsn("memory://", self.domain))
            self.replica_view = self._load(self.replica)

        # The expected view contents come from evaluating the view's
        # definition afresh, so they do not depend on view maintenance.
        def snapshot() -> Tuple[Counter, Counter]:
            return (
                Counter(self.aggregate(self.replica).rows()),
                Counter(self._view_definition(self.replica).rows()),
            )

        self.expected[None] = snapshot()
        for index, batch in enumerate(self.churn_batches):
            self.replica.delete("R", batch)
            self.expected[index] = snapshot()
            self.replica.insert("R", batch)

    def ops(self) -> Iterator[Op]:
        index = 0
        while True:
            batch = self.churn_batches[index]
            full_aggregate, full_view = self.expected[None]
            churned_aggregate, churned_view = self.expected[index]
            yield Op("aggregate", build=lambda: self.aggregate(self.session), expected=full_aggregate)
            yield Op("delete", write=lambda batch=batch: self.session.delete("R", batch))
            yield Op("view", build=lambda: self.view_read(self.session), expected=churned_view)
            yield Op("aggregate", build=lambda: self.aggregate(self.session), expected=churned_aggregate)
            yield Op("insert", write=lambda batch=batch: self.session.insert("R", batch))
            yield Op("view", build=lambda: self.view_read(self.session), expected=full_view)
            index = (index + 1) % len(self.churn_batches)

    def _stop_server(self) -> int:
        if self.session is not None:
            self.session.close()
            self.session = None
        peak_kb = 0
        if self.server is not None:
            peak_kb = self.server.stop()
            self.server = None
        return peak_kb

    def teardown(self) -> Dict[str, Any]:
        ok = True
        try:
            if self.remote_view is not None and self.session is not None:
                ok = bool(self.remote_view.verify())
        finally:
            self.remote_view = None
            peak_kb = self._stop_server()
            if self.replica is not None:
                self.replica.close()
                self.replica = None
        return {"ok": ok, "extra_rss_kb": peak_kb}


WORKLOADS = {cls.name: cls for cls in (Employee, Adhoc, RemoteChurn)}
