"""The repository's benchmark: one closed-loop workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload employee --seed 1 --seconds 30 --trace 0

The run builds its inputs from ``--seed``, sets the system up several times
(``setup_s`` is the import time plus the median set-up), computes the
expected result of every read before the timed loop, then runs the
workload's closed loop for ``--seconds`` (longer if needed to reach
:data:`MIN_READS` reads, so ``read_p99_ms`` has ten samples beyond it), or
for a fixed number of operations where the workload sets ``ops_per_second``.
Every read is checked against its expected bag outside the timed region.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing.  With ``--trace 1`` the run measures an untraced phase and a
traced phase, and reports the per-layer metrics; the spans are written to
``.perfbench/`` in the checkout.  See ``perfbench/README.md`` for every
metric and the layer each one belongs to.

The process exits 1 when any output is wrong, and 2 when the program
cannot be imported or the workload cannot be set up.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from typing import Any, Dict, Iterator, List, Optional, Tuple

from breakdown import OPERATORS, count_nodes, operator_breakdown
from spans import ATTRS, END, NAME, QUERY, START, Tracer, per_root
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Set-ups per run; ``setup_s`` takes their median.
SETUP_REPEATS = 5
#: Reads a timed run collects at least, so p99 has ten samples beyond it.
MIN_READS = 1010
#: How far past ``--seconds`` a run may go to reach MIN_READS.
MAX_OVERRUN = 2.0
#: A run stops early after this many failed operations.
MAX_FAILURES = 50


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# -- the closed loop ------------------------------------------------------------------------


class LoopResult:
    """What one closed-loop phase observed."""

    def __init__(self) -> None:
        self.reads: Dict[str, List[int]] = defaultdict(list)  # kind -> latency ns
        self.writes: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.busy_ns = 0  # wall time of the loop minus the untimed checks
        # Traced reads only: the statistics counters of each read.
        self.read_statistics: List[Dict[str, int]] = []

    @property
    def read_count(self) -> int:
        return sum(len(samples) for samples in self.reads.values())

    def read_p50_ms(self) -> float:
        """Median over the read kinds of each kind's median latency."""
        medians = [statistics.median(samples) for samples in self.reads.values() if samples]
        return statistics.median(medians) / 1e6 if medians else 0.0

    def read_p99_ms(self) -> float:
        samples = [value for values in self.reads.values() for value in values]
        if len(samples) < 2:
            return samples[0] / 1e6 if samples else 0.0
        return statistics.quantiles(samples, n=100)[98] / 1e6

    def throughput(self) -> float:
        operations = self.read_count + len(self.writes)
        return operations / (self.busy_ns / 1e9) if self.busy_ns else 0.0


def closed_loop(
    ops: Iterator[Any],
    seconds: float,
    min_reads: int = 0,
    tracer: Any = None,
    cycle: int = 1,
    limit: Optional[int] = None,
) -> Tuple[LoopResult, LoopResult]:
    """Run operations back to back for ``seconds`` (and ``min_reads`` reads).

    With ``limit`` the loop runs exactly that many operations instead, and
    ``seconds`` only sets the hard stop.  Returns ``(untraced, traced)``.
    Without a tracer every operation is untraced.  With one, operations
    alternate in blocks of ``cycle`` (one pass over the workload's operation
    mix) between untraced and traced, so both halves see the same mix and
    the same drift over the run.
    """
    plain, traced = LoopResult(), LoopResult()
    clock = time.perf_counter_ns
    start = clock()
    deadline = start + int(seconds * 1e9)
    hard_stop = start + int(seconds * MAX_OVERRUN * 1e9)
    check_ns = 0
    index = -1
    while True:
        now = clock()
        if now >= hard_stop:
            if limit is not None:
                log(f"hard stop after {index + 1} of {limit} operations")
            break
        if limit is not None:
            if index + 1 >= limit:
                break
        elif now >= deadline and plain.read_count >= min_reads:
            break
        if plain.failed + traced.failed >= MAX_FAILURES:
            log(f"stopping after {plain.failed + traced.failed} failed operations")
            break
        op = next(ops)
        index += 1
        tracing = tracer is not None and (index // cycle) % 2 == 1
        result = traced if tracing else plain
        if tracer is not None:
            tracer.active = tracing
        result.attempted += 1
        try:
            if op.write is not None:
                if tracing:
                    tracer.query_id += 1
                    token = tracer.open("write")
                    op.write()
                    result.writes.append(tracer.close(token, "write", {"kind": op.kind}))
                else:
                    began = clock()
                    op.write()
                    result.writes.append(clock() - began)
                continue
            if tracing:
                tracer.query_id += 1
                token = tracer.open("read")
                built = tracer.open("api.build")
                relation = op.build()
                tracer.close(built, "api.build")
                counters: Dict[str, int] = {}
                rows = relation.rows(counters)
                elapsed = tracer.close(token, "read", {"kind": op.kind})
                result.read_statistics.append(counters)
            else:
                began = clock()
                rows = op.build().rows()
                elapsed = clock() - began
            result.reads[op.kind].append(elapsed)
            checked = clock()
            if Counter(rows) != op.expected:
                result.failed += 1
                log(f"wrong result for a {op.kind} read ({len(rows)} rows)")
            check_ns += clock() - checked
        except Exception:  # the loop must go on; the failure is counted and shown
            result.failed += 1
            log(f"{op.kind} operation failed:\n{traceback.format_exc()}")
    plain.busy_ns = clock() - start - check_ns
    return plain, traced


# -- tracing ----------------------------------------------------------------------------------


class Capture:
    """Span attributes: the plans the engine received, the frames decoded."""

    def __init__(self) -> None:
        self.plans: Dict[int, Tuple[Any, Any]] = {}  # id(plan) -> (plan, database)

    def engine_call(self, args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
        plan = args[0] if args else kwargs.get("plan")
        database = args[1] if len(args) > 1 else kwargs.get("database")
        self.plans.setdefault(id(plan), (plan, database))
        return {"plan": id(plan)}

    @staticmethod
    def frame(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
        payload = args[0] if args else kwargs.get("payload", b"")
        rows = result.get("rows") if isinstance(result, dict) else None
        return {
            "bytes": len(payload),
            "type": result.get("type") if isinstance(result, dict) else None,
            "rows": len(rows) if isinstance(rows, list) else 0,
        }


def install_tracing(tracer: Any, capture: Capture) -> None:
    """Wrap each layer's public entry points (whatever of them still exists)."""
    import repro.api as api
    import repro.engine as engine
    import repro.incremental as incremental
    import repro.planner as planner
    import repro.rewriter as rewriter
    import repro.server as server

    tracer.wrap_function(getattr(api, "parse_expression", None), "api.parse")
    tracer.wrap_method(getattr(rewriter, "SnapshotRewriter", None), "rewrite", "rewriter.rewr")
    tracer.wrap_function(getattr(planner, "optimize", None), "planner.optimize")
    tracer.wrap_function(getattr(engine, "execute", None), "engine.execute", capture.engine_call)
    tracer.wrap_function(getattr(server, "encode_frame", None), "protocol.encode")
    tracer.wrap_function(getattr(server, "decode_frame", None), "protocol.decode", capture.frame)
    tracer.wrap_function(getattr(server, "plan_to_json", None), "plans.encode")
    tracer.wrap_function(getattr(server, "plan_from_json", None), "plans.decode")
    view_cls = getattr(incremental, "MaterializedView", None)
    tracer.wrap_method(view_cls, "apply", "incremental.apply")
    tracer.wrap_method(view_cls, "refresh", "incremental.refresh")


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Any, capture: Capture, traced: LoopResult) -> Dict[str, float]:
    """Each layer's self time per read, from the read spans.

    Times are summarized like ``read_p50_ms``: the median over the read
    kinds of each kind's median.
    """
    reads = per_root(tracer.spans, "read")
    engine_plans = defaultdict(list)  # query id -> ids of the plans the engine ran
    for span in tracer.spans:
        if span[NAME] == "engine.execute" and span[ATTRS]:
            engine_plans[span[QUERY]].append(span[ATTRS]["plan"])

    def per_read(*names: str) -> float:
        by_kind = defaultdict(list)
        for root, own, _ in reads:
            by_kind[root[ATTRS]["kind"]].append(sum(own.get(name, 0) for name in names) / 1e6)
        return _median([statistics.median(values) for values in by_kind.values()])

    node_counts = {
        plan_id: count_nodes(plan) for plan_id, (plan, _database) in capture.plans.items()
    }
    plan_nodes = [
        sum(node_counts[plan_id] for plan_id in engine_plans[root[QUERY]])
        for root, _, _ in reads
        if engine_plans[root[QUERY]]
    ]
    metrics = {
        "api.build_ms": per_read("api.build", "api.parse"),
        "api.parse_calls": _mean([calls.get("api.parse", 0) for _, _, calls in reads]),
        "rewriter.rewr_ms": per_read("rewriter.rewr"),
        "rewriter.plan_nodes": _mean(plan_nodes),
        "planner.optimize_ms": per_read("planner.optimize"),
        "engine.execute_ms": per_read("engine.execute"),
        # The remote client's own frame and plan codec work inside a read.
        "protocol.client_codec_ms": per_read(
            "protocol.encode", "protocol.decode", "plans.encode", "plans.decode"
        ),
        "read.other_ms": per_read("read"),
    }
    counters = traced.read_statistics

    def counter_mean(key: str) -> float:
        return _mean([float(c.get(key, 0)) for c in counters])

    metrics["planner.rules_fired"] = _mean(
        [float(sum(v for k, v in c.items() if k.startswith("planner."))) for c in counters]
    )
    for strategy in ("interval", "hash", "nested_loop"):
        metrics[f"engine.join_strategy.{strategy}"] = counter_mean(f"join_strategy.{strategy}")
    coalesce_in = sum(c.get("coalesce_input_rows", 0) for c in counters)
    coalesce_out = sum(c.get("coalesce_output_rows", 0) for c in counters)
    metrics["engine.coalesce.retention"] = coalesce_out / coalesce_in if coalesce_in else 0.0
    metrics["engine.preaggregated_rows"] = counter_mean("preaggregated_rows")
    return metrics


def engine_breakdown(plans: List[Tuple[Any, Any]]) -> Dict[str, float]:
    """Per-operator self ms and rows out, averaged over the sampled plans."""
    import repro.algebra.operators as operators
    import repro.engine as engine

    metrics: Dict[str, float] = {}
    if not plans:
        return metrics
    results = [
        operator_breakdown(
            plan, database, engine.execute, engine.Database, operators.RelationAccess
        )
        for plan, database in plans
    ]
    for op in OPERATORS:
        metrics[f"engine.{op}.self_ms"] = _mean([r["self_ms"].get(op, 0.0) for r in results])
        metrics[f"engine.{op}.rows_out"] = _mean(
            [float(r["rows_out"].get(op, 0)) for r in results]
        )
    whole = sum(r["whole_ms"] for r in results)
    covered = sum(sum(r["self_ms"].values()) for r in results)
    metrics["engine.op_coverage"] = covered / whole if whole else 0.0
    return metrics


def codec_metrics(
    results_by_kind: Dict[str, List[Tuple[Any, ...]]], chunk_rows: int, reads_by_kind: Dict[str, int]
) -> Dict[str, float]:
    """Encode/decode the actual results as the server streams them.

    The encode side is the server's row codec plus ``encode_frame`` on
    ``row_chunk`` messages of the observed chunk size; the decode side is
    ``decode_frame`` plus the client's row codec.  Both are per read,
    weighted by how often each read kind ran.
    """
    from repro.server import decode_frame, encode_frame

    encode_ms: Dict[str, float] = {}
    decode_ms: Dict[str, float] = {}
    total_bytes = 0
    total_rows = 0
    for kind, rows in results_by_kind.items():
        chunks = [rows[i:i + chunk_rows] for i in range(0, len(rows), chunk_rows)]
        encode_times, decode_times = [], []
        payloads: List[bytes] = []
        for _ in range(5):
            began = time.perf_counter_ns()
            frames = [
                encode_frame({"type": "row_chunk", "id": 1, "rows": [list(row) for row in chunk]})
                for chunk in chunks
            ]
            encode_times.append(time.perf_counter_ns() - began)
            payloads = [frame[4:] for frame in frames]
            began = time.perf_counter_ns()
            for payload in payloads:
                [tuple(row) for row in decode_frame(payload)["rows"]]
            decode_times.append(time.perf_counter_ns() - began)
        encode_ms[kind] = statistics.median(encode_times) / 1e6
        decode_ms[kind] = statistics.median(decode_times) / 1e6
        total_bytes += sum(len(payload) for payload in payloads)
        total_rows += len(rows)
    weight = sum(reads_by_kind.get(kind, 0) for kind in results_by_kind) or 1
    return {
        "protocol.encode_ms": sum(
            encode_ms[k] * reads_by_kind.get(k, 0) for k in encode_ms
        ) / weight,
        "protocol.decode_ms": sum(
            decode_ms[k] * reads_by_kind.get(k, 0) for k in decode_ms
        ) / weight,
        "protocol.result_bytes_per_row": total_bytes / total_rows if total_rows else 0.0,
    }


def remote_metrics(
    workload: Any, untraced: LoopResult, traced: LoopResult, tracer: Any, capture: Capture
) -> Dict[str, float]:
    """Wire, codec, replica-engine and incremental metrics of ``remote_churn``."""
    from repro.incremental import Delta

    replica = workload.replica
    readers = {
        "aggregate": lambda: workload.aggregate(replica),
        "view": lambda: workload.view_read(replica),
    }
    metrics: Dict[str, float] = {}

    # server.wire_ms: remote read latency minus local execution of the same
    # query on the same-seed replica.
    local_ms: Dict[str, float] = {}
    for kind, build in readers.items():
        samples = []
        for _ in range(15):
            began = time.perf_counter_ns()
            build().rows()
            samples.append(time.perf_counter_ns() - began)
        local_ms[kind] = statistics.median(samples) / 1e6
    metrics["server.wire_ms"] = _mean(
        [statistics.median(untraced.reads[kind]) / 1e6 - local_ms[kind] for kind in readers]
    )

    # Codec cost on the actual results, chunked as observed on the wire.
    chunk_rows = max(
        [span[ATTRS]["rows"] for span in tracer.spans
         if span[NAME] == "protocol.decode" and span[ATTRS] and span[ATTRS]["type"] == "row_chunk"]
        or [1024]
    )
    results = {kind: build().rows() for kind, build in readers.items()}
    tracer.active = False
    metrics.update(
        codec_metrics(results, chunk_rows, {k: len(v) for k, v in traced.reads.items()})
    )
    tracer.active = True

    # Engine work of the same reads, on the replica, traced.
    capture.plans.clear()
    start = len(tracer.spans)
    for build in readers.values():
        for _ in range(5):
            build().rows()
    engine_ms = [
        (span[END] - span[START]) / 1e6
        for span in tracer.spans[start:]
        if span[NAME] == "engine.execute"
    ]
    metrics["engine.execute_ms"] = _median(engine_ms)
    metrics["rewriter.plan_nodes"] = _mean([count_nodes(p) for p, _ in capture.plans.values()])
    metrics.update(engine_breakdown(list(capture.plans.values())))

    # Incremental maintenance: the churn batches as detached deltas on the
    # replica's view, then full refreshes.
    view = workload.replica_view
    key = list(view.schema).index("r_key")
    groups = len({row[key] for row in view.rows()}) or 1
    start = len(tracer.spans)
    applied: List[Dict[str, int]] = []
    for batch in workload.churn_batches:
        for delta in (Delta.deletes("R", batch), Delta.inserts("R", batch)):
            counters: Dict[str, int] = {}
            view.apply(delta, counters)
            applied.append(counters)
    for _ in range(3):
        view.refresh()
    durations = defaultdict(list)
    for span in tracer.spans[start:]:
        durations[span[NAME]].append((span[END] - span[START]) / 1e6)
    metrics["incremental.apply_ms"] = _median(durations["incremental.apply"])
    metrics["incremental.refresh_ms"] = _median(durations["incremental.refresh"])
    metrics["incremental.delta_rows"] = _mean(
        [float(c.get("incremental.delta_rows", 0)) for c in applied]
    )
    metrics["incremental.resweep_share"] = _mean(
        [c.get("incremental.resweep_groups", 0) / groups for c in applied]
    )
    writes = sorted(untraced.writes)
    metrics["incremental.dml_p50_ms"] = _median(writes) / 1e6
    metrics["incremental.dml_p90_ms"] = (
        statistics.quantiles(writes, n=10)[8] / 1e6 if len(writes) > 1 else 0.0
    )

    session = workload.session
    metrics["client.retries"] = float(session.execution_info().retries)
    server_info = session.server_execution_info()
    metrics["server.timeouts"] = float(server_info.timeouts)
    metrics["server.fallbacks"] = float(server_info.fallbacks)
    return metrics


def traced_run(
    workload: Any, ops: Iterator[Any], seconds: float, limit: Optional[int]
) -> Tuple[Dict[str, float], LoopResult, Any]:
    """Alternate untraced and traced passes, then run the layer analyses."""
    session = workload.session
    tracer = Tracer()
    capture = Capture()
    before = session.cache_info()
    install_tracing(tracer, capture)
    try:
        untraced, traced = closed_loop(
            ops, seconds, tracer=tracer, cycle=workload.cycle, limit=limit
        )
        tracer.active = True
        after = session.cache_info()
        metrics = layer_metrics(tracer, capture, traced)
        # Both halves of the loop looked up the cache; with the same mix in
        # each, the ratio is that of the traced half.
        lookups = (after.hits - before.hits) + (after.misses - before.misses)
        metrics["rewriter.cache_hit_ratio"] = (
            (after.hits - before.hits) / lookups if lookups else 0.0
        )
        metrics["rewriter.cache_entries"] = float(after.size)
        if workload.name == "remote_churn":
            metrics.update(remote_metrics(workload, untraced, traced, tracer, capture))
        else:
            # Sample the distinct plans the engine ran: all of them when the
            # cache holds them (employee), the first few otherwise (adhoc).
            sampled = list(capture.plans.values())[:12]
            metrics.update(engine_breakdown(sampled))
            info = session.execution_info()
            metrics["client.retries"] = float(info.retries)
            metrics["server.timeouts"] = float(info.timeouts)
            metrics["server.fallbacks"] = float(info.fallbacks)
    finally:
        tracer.uninstall()
    base = untraced.read_p50_ms()
    metrics["trace.overhead_pct"] = (
        100.0 * (traced.read_p50_ms() - base) / base if base else 0.0
    )
    combined = LoopResult()
    combined.attempted = untraced.attempted + traced.attempted
    combined.failed = untraced.failed + traced.failed
    return metrics, combined, tracer


# -- main ---------------------------------------------------------------------------------------

def metric_units(section: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def environment(seed: int) -> Dict[str, Any]:
    try:
        numpy_version: Optional[str] = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    began = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        log(f"no repro package under {os.path.join(ROOT, 'src')}; run from a full checkout")
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401 - imported for its cost, counted in setup_s
    except ImportError:
        log(f"cannot import the program:\n{traceback.format_exc()}")
        return 2
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    startup_s = time.perf_counter() - began
    env = environment(args.seed)
    log("environment: " + json.dumps(env))

    setups: List[float] = []
    tracer = None
    try:
        try:
            for _ in range(SETUP_REPEATS):
                started = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - started)
            workload.oracle()
        except Exception:
            log(f"set-up failed:\n{traceback.format_exc()}")
            return 2
        gc.collect()  # start the loop without the set-up's garbage
        ops = workload.ops()
        op_limit = None
        if workload.ops_per_second is not None:
            op_limit = max(MIN_READS, round(workload.ops_per_second * args.seconds))
        if args.trace:
            metrics, loop, tracer = traced_run(workload, ops, args.seconds, op_limit)
        else:
            loop, _ = closed_loop(ops, args.seconds, MIN_READS, limit=op_limit)
            metrics = {
                "read_p50_ms": loop.read_p50_ms(),
                "read_p99_ms": loop.read_p99_ms(),
                "throughput_ops_s": loop.throughput(),
                "success_rate": 1.0 - loop.failed / loop.attempted if loop.attempted else 0.0,
                "setup_s": startup_s + statistics.median(setups),
            }
            log(f"reads per kind: { {k: len(v) for k, v in loop.reads.items()} }, "
                f"writes: {len(loop.writes)}")
    finally:
        final = workload.teardown()
    correct = final["ok"] and loop.failed == 0
    if not final["ok"]:
        log("the final consistency check of the workload failed")
    if args.trace:
        # A metric of a layer the workload does not use reads 0.
        units = metric_units("per_layer")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(path, dict(env, workload=args.workload))
        log(f"spans written to {path}")
        report = {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    else:
        client_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (client_kb + final["extra_rss_kb"]) / 1024
        report = {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in metric_units("end_to_end").items()
        }
    for name, entry in report.items():
        print(f"{args.workload:>13} {name:<34} {entry['value']:>14.4f} {entry['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": report,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
