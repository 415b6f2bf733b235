"""Record the perf trajectory of the repo: time the paper's headline workloads.

Runs the workloads that the paper's evaluation (and our acceptance criteria)
track across PRs and appends the timings to a JSON ledger:

* **Figure 5** -- multiset coalescing over a materialised selection result
  (``SELECT *`` under snapshot semantics), per input size;
* **Table 3 (Employee)** -- the ten Employee snapshot queries through the
  rewriting middleware: the paper's ``*-Seq`` column on the in-memory
  engine plus a ``*-SQL`` column executing the same rewritten plans on the
  SQLite backend (catalog pre-loaded, so the timing isolates query
  execution);
* **overlap join** -- a microbenchmark of the engine's sort-merge
  interval join: a pure interval-overlap theta join (no equality conjunct)
  over two synthetic interval tables at 100k rows/side, answered by the
  columnar engine's vectorised kernel; the quadratic nested-loop
  baseline it replaced is timed only up to a size cutoff;
* **generator scaling** -- a grouped temporal aggregation over
  heavy-overlap (``chained``) catalogs from the synthetic workload
  generator (:mod:`repro.datasets.generator`) at increasing row counts:
  the scaling column every conformance-covered future optimisation is
  measured against;
* **plan cache** -- repeated execution of one grouped temporal aggregation
  (over a join) through a fluent session (:func:`repro.api.connect`), cold
  (the rewritten-plan cache cleared before every run, so REWR + planner run
  each time) vs. warm (the cache reused, so both are skipped): the per-run
  speedup the session API's plan cache buys on rewrite-heavy workloads;
* **view maintenance** -- incremental materialized views vs. full
  re-execution: a coalesced grouped temporal aggregate is registered as a
  view (:meth:`~repro.api.Session.materialize`) over generated catalogs at
  2k/8k/32k base rows, then a 1%-churn delta batch (bag deletes + fresh
  inserts through catalog DML) is applied incrementally and compared with
  recomputing the view from scratch; the ledger records the per-batch
  apply time, the full-refresh time, and their ratio (the PR 9 acceptance
  floor is >= 5x at 32k rows);
* **planner cost** -- cost-based vs. syntactic planning on a skewed
  three-way join written worst-order-first: the cost mode (ANALYZE
  statistics + smallest-intermediate-first join reordering, PR 10) must
  return the identical bag and beat the syntactic planner by at least
  1.5x, so the recorded entry doubles as the PR 10 acceptance gate;
* **server load** -- a concurrent load generator against the asyncio query
  server (:class:`repro.server.QueryServer`): N thread-per-client
  :class:`~repro.client.RemoteSession` connections run the same grouped
  temporal aggregation over the wire, recording per-query latency
  percentiles (p50/p99), throughput, and the shared plan cache's
  cross-client hit counters (a run with zero warm hits fails -- the whole
  point of the shared pipeline is that one client's rewrite pays for
  everyone's).

``--workloads`` selects a subset of the workload columns (e.g.
``--workloads server_load`` for the CI query-server smoke step).

Usage::

    PYTHONPATH=src python benchmarks/record.py --label seed
    PYTHONPATH=src python benchmarks/record.py --label pr1

``--seed`` overrides every dataset generator seed (and is recorded in the
ledger entry), so any recorded run can be reproduced bit for bit.

Each invocation merges its results under ``--label`` into ``--output``
(default ``BENCH_pr10.json`` at the repo root) and, when at least two labels
are present, reports the speedup of the newest label over the oldest so the
perf trajectory is visible from the ledger alone.  Older ledgers also
carry ``batch_seconds`` / ``batch_speedup`` columns from the time the
repository had a second (row) engine; every leg now runs on the one
columnar engine.

If any workload raises, the error is recorded in the ledger entry, the
remaining workloads still run, and the process exits non-zero -- a partial
ledger must fail CI rather than silently looking like a clean run.

``--time-limit-seconds`` bounds each workload's wall clock: a workload that
exceeds the limit is recorded as a timeout error in the ledger entry and the
remaining workloads still run, so a hung workload fails CI with a partial
ledger instead of stalling the job until the runner kills it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from collections import Counter

from repro.algebra import Comparison, Join, RelationAccess, and_, attr, lit
from repro.algebra.operators import AggregateSpec, Aggregation, Projection
from repro.api import connect
from repro.backends import SQLiteBackend
from repro.datasets.employees import EmployeesConfig, generate_employees
from repro.datasets.generator import GeneratorConfig, generate_catalog
from repro.datasets.workloads import EMPLOYEE_WORKLOAD
from repro.engine import Database
from repro.engine.executor import execute as engine_execute
from repro.rewriter.middleware import SnapshotMiddleware
from repro.experiments.figure5 import run_figure5

#: Default scales; chosen to match benchmarks/conftest.py defaults.
FIGURE5_SIZES: Sequence[int] = (1_000, 5_000, 20_000)
FIGURE5_MONTHS = 120
EMPLOYEE_SCALE = 0.1
#: Rows per side of the overlap-join microbenchmark.  The interval domain
#: scales with the row count (constant overlap density), so the sort-merge
#: legs stay near-linear and 100k rows/side finishes in seconds.
OVERLAP_JOIN_ROWS = 100_000
#: Largest rows/side at which the quadratic nested-loop baseline still runs;
#: above this the workload records ``nested_loop_seconds: null``.
NESTED_LOOP_CUTOFF = 10_000
#: Row counts of the generator-driven scaling workload.
GENERATOR_SIZES: Sequence[int] = (2_000, 8_000, 32_000)
#: Rows per table and executions per mode of the plan-cache workload.  The
#: tables are deliberately small and the plan deliberately deep: the
#: workload models the many-small-repeated-queries regime where the
#: per-execution REWR + planner overhead (which the warm cache removes)
#: dominates the engine time.
PLAN_CACHE_ROWS = 16
PLAN_CACHE_EXECUTIONS = 40
#: Concurrent clients / queries-per-client of the server-load workload.
#: Eight clients is the acceptance floor for cross-client cache reuse.
SERVER_CLIENTS = 8
SERVER_QUERIES = 12
SERVER_ROWS = 400
#: Base-row counts and churn fraction of the view-maintenance workload.
VIEW_SIZES: Sequence[int] = (2_000, 8_000, 32_000)
VIEW_CHURN = 0.01
#: Fact rows and join-key cardinality of the planner-cost workload.  Few
#: keys over many rows make the as-written (fact JOIN big) intermediate
#: explode quadratically, which is exactly the shape the cost-based
#: reordering exists to avoid; 2k fact rows keep the syntactic leg in the
#: hundreds of milliseconds while leaving the gap wide.
PLANNER_COST_ROWS = 2_000
PLANNER_COST_KEYS = 10
#: Acceptance floor of the PR 10 cost-planner gate (see ISSUE.md): the
#: workload raises -- failing the run -- if cost-mode planning does not
#: beat the syntactic planner by at least this factor.
PLANNER_COST_FLOOR = 1.5


def time_figure5(
    sizes: Sequence[int], repetitions: int, seed: Optional[int]
) -> List[Dict[str, object]]:
    """The Figure-5 coalescing experiment, one entry per input size."""
    kwargs = {} if seed is None else {"seed": seed}
    return [
        {
            "input_rows": entry["input_rows"],
            "output_rows": entry["output_rows"],
            "seconds": entry["seconds"],
        }
        for entry in run_figure5(
            sizes=sizes, months=FIGURE5_MONTHS, repetitions=repetitions, **kwargs
        )
    ]


def _best_of(action, repetitions: int) -> float:
    """Best wall clock over ``repetitions`` runs, collector paused.

    Like ``timeit`` (and ``run_figure5``): collect up front and keep the
    cyclic collector out of the timed region, so a leg with a large
    allocation spike isn't billed for a gen-2 pass over whatever heap the
    earlier workloads accumulated.
    """
    best = None
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(max(1, repetitions)):
            started = time.perf_counter()
            action()
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


def time_table3_employee(
    scale: float, repetitions: int, seed: Optional[int]
) -> Dict[str, object]:
    config = (
        EmployeesConfig(scale=scale)
        if seed is None
        else EmployeesConfig(scale=scale, seed=seed)
    )
    database = generate_employees(config)
    middleware = SnapshotMiddleware(config.domain, database=database)
    # The middleware already optimizes rewritten plans; the session backend
    # must not spend a redundant planner pass inside the timed region.
    sql_backend = SQLiteBackend.for_database(database, optimize=False)
    per_query: Dict[str, float] = {}
    per_query_sql: Dict[str, float] = {}
    try:
        for name, factory in EMPLOYEE_WORKLOAD.items():
            query = factory()
            per_query[name] = _best_of(lambda: middleware.execute(query), repetitions)
            per_query_sql[name] = _best_of(
                lambda: middleware.execute(query, backend=sql_backend), repetitions
            )
    finally:
        sql_backend.close()
    return {
        "scale": scale,
        "per_query_seconds": per_query,
        "total_seconds": sum(per_query.values()),
        "per_query_sql_seconds": per_query_sql,
        "total_sql_seconds": sum(per_query_sql.values()),
    }


def time_overlap_join(
    rows: int, repetitions: int, seed: Optional[int]
) -> Dict[str, object]:
    """The interval join (and the nested-loop fallback, when sane).

    The interval domain scales with the row count, keeping overlap density
    constant, so the output stays linear in the input and the benchmark can
    run at 100k rows/side.  The quadratic nested-loop baseline is skipped
    above ``NESTED_LOOP_CUTOFF`` rows/side (``nested_loop_seconds`` is
    recorded as ``None``) -- at the default scale it would take hours.
    """
    import random

    rng = random.Random(7 if seed is None else seed)
    domain = rows * 50

    def intervals(count: int, prefix: str):
        out = []
        for i in range(count):
            begin = rng.randrange(domain)
            out.append((f"{prefix}{i}", begin, begin + rng.randint(1, 40)))
        return out

    database = Database()
    database.create_table(
        "ivl_l", ("l_id", "l_begin", "l_end"), intervals(rows, "l")
    )
    database.create_table(
        "ivl_r", ("r_id", "r_begin", "r_end"), intervals(rows, "r")
    )
    plan = Join(
        RelationAccess("ivl_l"),
        RelationAccess("ivl_r"),
        and_(
            Comparison("<", attr("l_begin"), attr("r_end")),
            Comparison("<", attr("r_begin"), attr("l_end")),
        ),
    )
    statistics: Dict[str, int] = {}
    output_rows: Dict[str, int] = {}

    def run_interval() -> None:
        statistics.clear()  # keep counters per-run, not per-best-of
        output_rows["n"] = len(engine_execute(plan, database, statistics))

    interval_seconds = _best_of(run_interval, repetitions)
    if not statistics.get("join_strategy.interval"):
        raise RuntimeError(
            f"overlap join did not use the interval strategy: {statistics}"
        )

    nested_seconds: Optional[float] = None
    if rows <= NESTED_LOOP_CUTOFF:
        nested_seconds = _best_of(
            lambda: engine_execute(plan, database, interval_join=False),
            repetitions,
        )
    return {
        "rows_per_side": rows,
        "output_rows": output_rows["n"],
        "interval_seconds": interval_seconds,
        "batch_partitions": statistics.get("batch.partitions"),
        "nested_loop_seconds": nested_seconds,
        "speedup": round(nested_seconds / interval_seconds, 2)
        if nested_seconds is not None and interval_seconds > 0
        else None,
    }


def time_generator_scaling(
    sizes: Sequence[int], repetitions: int, seed: Optional[int]
) -> List[Dict[str, object]]:
    """Grouped temporal aggregation over heavy-overlap generated catalogs.

    The ``chained`` profile maximises overlap, so the rewritten plan's
    pre-aggregation + segmentation sweep and the final coalesce dominate --
    the pipeline the conformance sweeps certify and future scale PRs need a
    trajectory for.
    """
    results: List[Dict[str, object]] = []
    for rows in sizes:
        config = GeneratorConfig(
            rows=rows,
            domain_size=256,
            seed=17 if seed is None else seed,
            interval_profile="chained",
            duplicate_rate=0.2,
            groups=16,
            values=32,
            keys=32,
        )
        database = generate_catalog(config)
        middleware = SnapshotMiddleware(config.domain, database=database)
        query = Aggregation(
            Projection(
                RelationAccess("R"),
                ((attr("r_cat"), "cat"), (attr("r_val"), "val")),
            ),
            ("cat",),
            (
                AggregateSpec("count", None, "cnt"),
                AggregateSpec("sum", attr("val"), "total"),
            ),
        )
        output_rows: Dict[str, int] = {}

        def run() -> None:
            output_rows["n"] = len(middleware.execute(query))

        seconds = _best_of(run, repetitions)
        results.append(
            {"rows": rows, "output_rows": output_rows["n"], "seconds": seconds}
        )
    return results


def time_plan_cache(
    rows: int, executions: int, repetitions: int, seed: Optional[int]
) -> Dict[str, object]:
    """Repeated grouped temporal aggregation: cold vs. warm plan cache.

    One fluent session executes the same query ``executions`` times per
    mode.  Cold clears the rewritten-plan cache before every execution, so
    each run pays REWR + planner; warm reuses the cached plan, so both are
    skipped (asserted through the pipeline's statistics counters).
    """
    config = GeneratorConfig(
        rows=rows,
        domain_size=64,
        seed=23 if seed is None else seed,
        interval_profile="mixed",
        duplicate_rate=0.1,
        groups=4,
        values=8,
        keys=16,
    )
    database = generate_catalog(config)
    session = connect(config.domain, database=database)
    # A deep chain (nested set operations, a join, duplicate elimination,
    # grouped temporal aggregation): REWR + planner cost grows with plan
    # depth, which is exactly what a cache hit skips.
    r = session.table("R").select(cat="r_cat", val="r_val")
    s = session.table("S").select(cat="s_cat", val="s_val")
    joined = (
        session.table("R")
        .join(session.table("S"), on="r_key = s_key")
        .select(cat="r_cat", val="s_val")
    )
    everything = r.union(s).union(joined)
    active = everything.difference(r.where("val > 2")).distinct()
    relation = (
        active.union(everything.where("cat = 'g0'"))
        .group_by("cat")
        .agg(cnt="count(*)", total="sum(val)")
    )
    output_rows = len(relation.rows())

    def run_cold() -> None:
        for _ in range(executions):
            session.clear_plan_cache()
            relation.rows()

    def run_warm() -> None:
        for _ in range(executions):
            relation.rows()

    cold_seconds = _best_of(run_cold, repetitions)
    relation.rows()  # warm the cache *outside* the timed region
    warm_seconds = _best_of(run_warm, repetitions)
    # Sanity: the warm path must actually have skipped REWR + planner.
    statistics: Dict[str, int] = {}
    relation.rows(statistics)
    if "rewrite.invocations" in statistics or not statistics.get("plan_cache.hits"):
        raise RuntimeError(f"warm execution did not hit the plan cache: {statistics}")
    return {
        "rows_per_table": rows,
        "executions": executions,
        "output_rows": output_rows,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "cold_seconds_per_execution": cold_seconds / executions,
        "warm_seconds_per_execution": warm_seconds / executions,
        "warm_speedup": round(cold_seconds / warm_seconds, 2)
        if warm_seconds > 0
        else None,
    }


def time_view_maintenance(
    sizes: Sequence[int], churn: float, repetitions: int, seed: Optional[int]
) -> List[Dict[str, object]]:
    """Incremental view maintenance vs. full re-execution under churn.

    A grouped temporal aggregate (high-cardinality group key, so a small
    churn batch dirties a small fraction of the groups) is materialized
    over a generated catalog; one churn batch deletes ``churn`` of the base
    rows and re-inserts the same rows through catalog DML, so the catalog
    -- and hence the view -- returns to its starting state and the timed
    region is repeatable.  The refresh leg recomputes the view from scratch
    over the same catalog.  ``incremental_speedup`` is full-refresh time
    over per-batch apply time: how much cheaper the delta path makes one
    round of churn.
    """
    import random

    results: List[Dict[str, object]] = []
    for rows in sizes:
        config = GeneratorConfig(
            rows=rows,
            domain_size=256,
            seed=31 if seed is None else seed,
            interval_profile="mixed",
            duplicate_rate=0.1,
            groups=16,
            values=32,
            keys=max(64, rows // 8),
        )
        database = generate_catalog(config)
        session = connect(config.domain, database=database)
        relation = (
            session.table("R")
            .group_by("r_key")
            .agg(cnt="count(*)", total="sum(r_val)")
        )
        view = session.materialize(relation, name="key_totals")

        churn_rows = max(1, int(rows * churn))
        rng = random.Random(f"view-maintenance/{config.seed}/{rows}")
        base_rows = database.table("R").rows
        positions = rng.sample(range(len(base_rows)), churn_rows)
        batch = [base_rows[position] for position in positions]

        def run_churn_batch() -> None:
            # Delete + re-insert the same rows: two delta batches, and the
            # catalog (hence the view) is back where it started, so best-of
            # repetitions time identical work.
            session.delete("R", batch)
            session.insert("R", batch)

        apply_seconds = _best_of(run_churn_batch, repetitions) / 2
        refresh_seconds = _best_of(view.refresh, repetitions)
        if not view.verify():
            raise RuntimeError(
                f"view maintenance diverged from re-execution at {rows} rows"
            )
        touched = view.counters["incremental.resweep_groups"]
        results.append(
            {
                "rows": rows,
                "churn_rows": churn_rows,
                "view_groups": len(view),
                "apply_seconds_per_batch": apply_seconds,
                "refresh_seconds": refresh_seconds,
                "resweep_groups_total": touched,
                "incremental_speedup": round(refresh_seconds / apply_seconds, 2)
                if apply_seconds > 0
                else None,
            }
        )
        session.close()
    return results


def _percentile(sorted_seconds: Sequence[float], q: float) -> Optional[float]:
    if not sorted_seconds:
        return None
    index = min(len(sorted_seconds) - 1, round(q * (len(sorted_seconds) - 1)))
    return sorted_seconds[index]


def time_server_load(
    clients: int, queries: int, rows: int, seed: Optional[int]
) -> Dict[str, object]:
    """Concurrent remote clients against one shared query server.

    One :class:`~repro.server.QueryServer` multiplexes ``clients``
    thread-per-client remote sessions over a generated catalog.  Every
    client runs the same grouped temporal aggregation; after a warm-up
    pass (which populates the shared plan cache) all clients start behind
    a barrier and the per-query wall clock of every remote round trip is
    recorded.  The ledger row keeps latency percentiles, throughput, and
    the server's plan-cache counters -- warm hits must come from
    cross-client reuse, so ``plan_cache_hits == 0`` is an error, not a
    data point.
    """
    from repro.server import QueryServer

    config = GeneratorConfig(
        rows=rows,
        domain_size=64,
        seed=29 if seed is None else seed,
        interval_profile="mixed",
        duplicate_rate=0.1,
        groups=8,
        values=16,
        keys=32,
    )
    latencies: List[float] = []
    failures: List[str] = []
    barrier = threading.Barrier(clients)

    with QueryServer(
        domain=config.domain,
        database=generate_catalog(config),
        max_workers=clients,
    ) as server:
        server.session.clear_plan_cache()

        def worker(index: int) -> None:
            try:
                with connect(server.url) as session:
                    chain = (
                        session.table("R")
                        .where("r_val > 3")
                        .group_by("r_cat")
                        .agg(cnt="count(*)", total="sum(r_val)")
                    )
                    chain.rows()  # warm-up: one rewrite, shared by everyone
                    barrier.wait(timeout=60)
                    for _ in range(queries):
                        started = time.perf_counter()
                        chain.rows()
                        # list.append is atomic: safe across client threads.
                        latencies.append(time.perf_counter() - started)
            except Exception:  # noqa: BLE001 - surfaced after the join below
                failures.append(traceback.format_exc())

        threads = [
            threading.Thread(target=worker, args=(i,), name=f"load-client-{i}")
            for i in range(clients)
        ]
        wall_started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        wall_seconds = time.perf_counter() - wall_started
        cache = server.session.cache_info()

    if failures:
        raise RuntimeError(f"{len(failures)} load client(s) failed:\n{failures[0]}")
    if len(latencies) != clients * queries:
        raise RuntimeError(
            f"expected {clients * queries} timed queries, got {len(latencies)}"
        )
    if not cache.hits:
        raise RuntimeError(
            f"server load produced no cross-client plan-cache hits: {cache}"
        )
    latencies.sort()
    return {
        "clients": clients,
        "queries_per_client": queries,
        "catalog_rows": rows,
        "total_queries": len(latencies),
        "wall_seconds": wall_seconds,
        "throughput_queries_per_second": round(len(latencies) / wall_seconds, 2)
        if wall_seconds > 0
        else None,
        "p50_seconds": _percentile(latencies, 0.50),
        "p99_seconds": _percentile(latencies, 0.99),
        "max_seconds": latencies[-1],
        "plan_cache_hits": cache.hits,
        "plan_cache_misses": cache.misses,
    }


def time_planner_cost(
    rows: int, repetitions: int, seed: Optional[int]
) -> Dict[str, object]:
    """Syntactic vs. cost-based planning on a skewed three-way join.

    The query is written worst-first: ``(fact JOIN big ON fk = bk) JOIN dim
    ON fk = dk AND dval = 0``.  With only :data:`PLANNER_COST_KEYS` distinct
    keys the as-written left-deep order materialises the full
    ``rows * rows/2 / keys`` fact-big intermediate before the selective dim
    predicate prunes it; the cost planner (over ANALYZE statistics) joins
    the one-row dim slice first and never builds it.  Both legs run through
    the full snapshot pipeline (REWR + coalescing included) and must return
    the same bag; the workload raises if the cost leg does not beat the
    syntactic leg by :data:`PLANNER_COST_FLOOR`, making the recorded ledger
    double as the PR 10 acceptance gate.
    """
    offset = 0 if seed is None else seed

    def build(planner: object):
        session = connect((0, 128), planner=planner)
        session.load(
            "fact",
            ["fk", "fval"],
            [
                ("k%d" % ((i + offset) % PLANNER_COST_KEYS), i, 0, 100)
                for i in range(rows)
            ],
        )
        session.load(
            "big",
            ["bk", "bval"],
            [
                ("k%d" % ((i + offset) % PLANNER_COST_KEYS), i, 0, 100)
                for i in range(rows // 2)
            ],
        )
        session.load(
            "dim",
            ["dk", "dval"],
            [("k%d" % k, k, 0, 100) for k in range(PLANNER_COST_KEYS)],
        )
        return session

    query = Join(
        Join(
            RelationAccess("fact"),
            RelationAccess("big"),
            Comparison("=", attr("fk"), attr("bk")),
        ),
        RelationAccess("dim"),
        and_(
            Comparison("=", attr("fk"), attr("dk")),
            Comparison("=", attr("dval"), lit(0)),
        ),
    )

    syntactic = build(True)
    cost = build("cost")
    cost.analyze()

    baseline_rows = syntactic.execute(query).rows
    statistics: Dict[str, int] = {}
    cost_rows = cost.execute(query, statistics).rows
    if Counter(cost_rows) != Counter(baseline_rows):
        raise RuntimeError(
            "planner_cost: cost-mode plan changed the result bag "
            f"({len(cost_rows)} rows vs {len(baseline_rows)})"
        )
    if not statistics.get("planner.cost_join_reorders"):
        raise RuntimeError(
            "planner_cost: the cost planner never reordered the join "
            f"(planner counters: {sorted(statistics)})"
        )

    syntactic_seconds = _best_of(lambda: syntactic.execute(query), repetitions)
    cost_seconds = _best_of(lambda: cost.execute(query), repetitions)
    speedup = (
        round(syntactic_seconds / cost_seconds, 2) if cost_seconds > 0 else None
    )
    if speedup is None or speedup < PLANNER_COST_FLOOR:
        raise RuntimeError(
            f"planner_cost: cost-planner speedup {speedup}x is below the "
            f"{PLANNER_COST_FLOOR}x acceptance floor "
            f"(syntactic {syntactic_seconds:.4f}s, cost {cost_seconds:.4f}s)"
        )
    return {
        "rows": rows,
        "keys": PLANNER_COST_KEYS,
        "output_rows": len(baseline_rows),
        "syntactic_seconds": syntactic_seconds,
        "cost_seconds": cost_seconds,
        "cost_speedup": speedup,
        "join_reorders": statistics.get("planner.cost_join_reorders"),
    }


def _run_with_time_limit(
    name: str, workload: Callable[[], object], limit: Optional[float]
) -> Tuple[object, Optional[str], bool]:
    """Run ``workload``, bounding its wall clock when ``limit`` is set.

    Returns ``(value, error, hung)``.  The workloads are pure in-process
    Python, so a hung one cannot be killed -- it is abandoned on a daemon
    thread and reported, and the caller must hard-exit once the ledger is
    written so the abandoned thread cannot keep the process alive.
    """
    if limit is None:
        try:
            return workload(), None, False
        except Exception:  # noqa: BLE001 - every failure must reach the ledger
            return None, traceback.format_exc(), False
    outcome: Dict[str, object] = {}

    def target() -> None:
        try:
            outcome["value"] = workload()
        except Exception:  # noqa: BLE001
            outcome["error"] = traceback.format_exc()

    thread = threading.Thread(target=target, name=f"workload-{name}", daemon=True)
    thread.start()
    thread.join(limit)
    if thread.is_alive():
        return None, f"workload exceeded the {limit:g}s time limit", True
    if "error" in outcome:
        return None, outcome["error"], False
    return outcome.get("value"), None, False


def _speedups(ledger: Dict[str, Dict]) -> Dict[str, object]:
    """Speedup of the newest label over the oldest (by recording order).

    With a single label the cross-label comparison is skipped, but the
    newest label's gate columns are still surfaced.
    """
    labels = [k for k in ledger if k != "speedup_newest_vs_oldest"]
    if not labels:
        return {}
    new = ledger[labels[-1]]
    if len(labels) < 2:
        return _gate_columns(new, {"current": labels[-1]})
    base = ledger[labels[0]]
    summary: Dict[str, object] = {"baseline": labels[0], "current": labels[-1]}
    base_f5 = {r["input_rows"]: r["seconds"] for r in base.get("figure5", ())}
    summary["figure5"] = {
        str(r["input_rows"]): round(base_f5[r["input_rows"]] / r["seconds"], 2)
        for r in new.get("figure5", ())
        if r["input_rows"] in base_f5 and r["seconds"] > 0
    }
    base_table3 = base.get("table3_employee", {})
    new_table3 = new.get("table3_employee", {})
    base_total = base_table3.get("total_seconds")
    new_total = new_table3.get("total_seconds")
    if base_total is not None and new_total:
        summary["table3_employee_total"] = round(base_total / new_total, 2)
    # The SQL column only exists from PR 2 on; compare when both sides have it.
    base_sql = base_table3.get("total_sql_seconds")
    new_sql = new_table3.get("total_sql_seconds")
    if base_sql is not None and new_sql:
        summary["table3_employee_sql_total"] = round(base_sql / new_sql, 2)
    # The overlap-join microbenchmark only exists from PR 3 on.
    base_overlap = base.get("overlap_join", {}).get("interval_seconds")
    new_overlap = new.get("overlap_join", {}).get("interval_seconds")
    if base_overlap is not None and new_overlap:
        summary["overlap_join_interval"] = round(base_overlap / new_overlap, 2)
    # The generator scaling column only exists from PR 4 on.
    base_generator = {
        r["rows"]: r["seconds"] for r in base.get("generator_scaling", ())
    }
    summary_generator = {
        str(r["rows"]): round(base_generator[r["rows"]] / r["seconds"], 2)
        for r in new.get("generator_scaling", ())
        if r["rows"] in base_generator and r["seconds"] > 0
    }
    if summary_generator:
        summary["generator_scaling"] = summary_generator
    # The plan-cache workload only exists from PR 5 on.
    base_cache = base.get("plan_cache", {}).get("warm_seconds")
    new_cache = new.get("plan_cache", {}).get("warm_seconds")
    if base_cache is not None and new_cache:
        summary["plan_cache_warm"] = round(base_cache / new_cache, 2)
    # The server-load workload only exists from PR 7 on.
    base_server = base.get("server_load", {}).get("p50_seconds")
    new_server = new.get("server_load", {}).get("p50_seconds")
    if base_server is not None and new_server:
        summary["server_load_p50"] = round(base_server / new_server, 2)
    # The view-maintenance workload only exists from PR 9 on.
    base_views = {
        r["rows"]: r["apply_seconds_per_batch"]
        for r in base.get("view_maintenance", ())
    }
    summary_views = {
        str(r["rows"]): round(
            base_views[r["rows"]] / r["apply_seconds_per_batch"], 2
        )
        for r in new.get("view_maintenance", ())
        if r["rows"] in base_views and r["apply_seconds_per_batch"] > 0
    }
    if summary_views:
        summary["view_maintenance_apply"] = summary_views
    # The planner-cost workload only exists from PR 10 on.
    base_planner = base.get("planner_cost", {}).get("cost_seconds")
    new_planner = new.get("planner_cost", {}).get("cost_seconds")
    if base_planner is not None and new_planner:
        summary["planner_cost"] = round(base_planner / new_planner, 2)
    return _gate_columns(new, summary)


def _gate_columns(new: Dict, summary: Dict[str, object]) -> Dict[str, object]:
    """Gate columns, surfaced from the newest label so the incremental and
    planner ratios are readable without digging into the entries."""
    view_speedups = {
        str(r["rows"]): r["incremental_speedup"]
        for r in new.get("view_maintenance", ())
        if r.get("incremental_speedup") is not None
    }
    if view_speedups:
        summary["view_maintenance_incremental_vs_refresh"] = view_speedups
    planner_speedup = new.get("planner_cost", {}).get("cost_speedup")
    if planner_speedup is not None:
        summary["planner_cost_vs_syntactic"] = planner_speedup
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", required=True, help="ledger key, e.g. seed or pr1")
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_pr10.json"),
    )
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(FIGURE5_SIZES)
    )
    parser.add_argument("--employee-scale", type=float, default=EMPLOYEE_SCALE)
    parser.add_argument("--overlap-rows", type=int, default=OVERLAP_JOIN_ROWS)
    parser.add_argument(
        "--generator-sizes", type=int, nargs="+", default=list(GENERATOR_SIZES)
    )
    parser.add_argument("--plan-cache-rows", type=int, default=PLAN_CACHE_ROWS)
    parser.add_argument(
        "--plan-cache-executions", type=int, default=PLAN_CACHE_EXECUTIONS
    )
    parser.add_argument(
        "--server-clients",
        type=int,
        default=SERVER_CLIENTS,
        help="Concurrent remote clients of the server-load workload.",
    )
    parser.add_argument(
        "--server-queries",
        type=int,
        default=SERVER_QUERIES,
        help="Timed queries per client of the server-load workload.",
    )
    parser.add_argument("--server-rows", type=int, default=SERVER_ROWS)
    parser.add_argument(
        "--view-sizes", type=int, nargs="+", default=list(VIEW_SIZES)
    )
    parser.add_argument(
        "--planner-cost-rows",
        type=int,
        default=PLANNER_COST_ROWS,
        help="Fact-table rows of the planner-cost workload.",
    )
    parser.add_argument(
        "--view-churn",
        type=float,
        default=VIEW_CHURN,
        help="Fraction of base rows churned per delta batch (default 1%%).",
    )
    parser.add_argument(
        "--workloads",
        nargs="+",
        default=None,
        metavar="NAME",
        help=(
            "Record only these workload columns (default: all); e.g. "
            "--workloads server_load for the CI query-server smoke step."
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=(
            "Override every workload generator seed (recorded in the ledger "
            "entry); default: each workload's baked-in seed."
        ),
    )
    parser.add_argument(
        "--time-limit-seconds",
        type=float,
        default=None,
        help=(
            "Per-workload wall-clock bound: a workload exceeding it is "
            "recorded as a timeout in the ledger and the run exits non-zero "
            "instead of stalling; default: unbounded."
        ),
    )
    args = parser.parse_args()
    if args.time_limit_seconds is not None and args.time_limit_seconds <= 0:
        parser.error("--time-limit-seconds must be positive")

    entry: Dict[str, object] = {"recorded_platform": platform.python_version()}
    if args.seed is not None:
        entry["seed"] = args.seed
    errors: Dict[str, str] = {}
    workloads = {
        "figure5": lambda: time_figure5(args.sizes, args.repetitions, args.seed),
        "table3_employee": lambda: time_table3_employee(
            args.employee_scale, args.repetitions, args.seed
        ),
        "overlap_join": lambda: time_overlap_join(
            args.overlap_rows, args.repetitions, args.seed
        ),
        "generator_scaling": lambda: time_generator_scaling(
            args.generator_sizes, args.repetitions, args.seed
        ),
        "plan_cache": lambda: time_plan_cache(
            args.plan_cache_rows, args.plan_cache_executions, args.repetitions, args.seed
        ),
        "server_load": lambda: time_server_load(
            args.server_clients, args.server_queries, args.server_rows, args.seed
        ),
        "view_maintenance": lambda: time_view_maintenance(
            args.view_sizes, args.view_churn, args.repetitions, args.seed
        ),
        "planner_cost": lambda: time_planner_cost(
            args.planner_cost_rows, args.repetitions, args.seed
        ),
    }
    if args.workloads:
        unknown = sorted(set(args.workloads) - set(workloads))
        if unknown:
            parser.error(
                f"unknown workload(s) {', '.join(unknown)}; "
                f"choose from {', '.join(workloads)}"
            )
        workloads = {k: v for k, v in workloads.items() if k in set(args.workloads)}
    hung_workloads: List[str] = []
    for name, workload in workloads.items():
        value, error, hung = _run_with_time_limit(
            name, workload, args.time_limit_seconds
        )
        if error is not None:
            errors[name] = error
            print(f"workload {name!r} failed:\n{errors[name]}", file=sys.stderr)
            if hung:
                hung_workloads.append(name)
        else:
            entry[name] = value
    if errors:
        entry["errors"] = errors

    output = Path(args.output)
    ledger: Dict[str, Dict] = {}
    if output.exists():
        ledger = json.loads(output.read_text())
    ledger.pop("speedup_newest_vs_oldest", None)
    # Re-recording an existing label moves it to the end, so "newest vs
    # oldest" in the summary below always reflects actual recording order.
    ledger.pop(args.label, None)
    ledger[args.label] = entry
    speedup = _speedups(ledger)
    if speedup:
        ledger["speedup_newest_vs_oldest"] = speedup
    output.write_text(json.dumps(ledger, indent=2) + "\n")
    print(json.dumps(ledger, indent=2))
    if errors:
        print(
            f"{len(errors)} workload(s) failed; ledger entry {args.label!r} is partial",
            file=sys.stderr,
        )
        if hung_workloads:
            # Abandoned daemon threads are still spinning; the ledger is
            # written, so hard-exit rather than wait on work that never ends.
            print(
                f"hung workload(s) abandoned: {', '.join(hung_workloads)}",
                file=sys.stderr,
            )
            sys.stderr.flush()
            sys.stdout.flush()
            os._exit(1)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
