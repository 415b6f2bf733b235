"""Interval-join kernels for the columnar batch engine, serial and pooled.

Serially, a join with equality conjuncts runs as a hash join that tests
the overlap per candidate pair (:func:`keyed_interval_join`), and one
without runs the whole-column :func:`interval_join_vectorized` or the
bisect-bounded :func:`interval_sweep`.  For a pool the engine partitions
the join by its equality conjuncts (:func:`partition_by_keys`, one
partition per distinct key) or -- when the overlap predicate carries no
equality conjunct -- by fragment-replicate chunking of the left input, and
this module runs those partitions across a :mod:`multiprocessing` pool.

Design constraints that shaped the code:

* **Workers are module-level functions** and the per-worker state travels
  through the pool initializer, so the pool works under both the ``fork``
  start method (Linux: state is inherited copy-on-write, nothing is
  re-pickled) and ``spawn`` (macOS/Windows: the initargs payload is pickled
  once per worker, not once per task).
* **Predicates cross the process boundary as ASTs.**  Compiled expression
  closures are not picklable; :class:`~repro.algebra.expressions.Expression`
  nodes are frozen dataclasses and are.  Each worker compiles the residual
  once in its initializer.
* **Deadlines stay in the parent.**  Workers run uninterrupted; the parent
  polls its deadline between partition results, so cancellation is coarser
  in parallel mode (one partition, not one sweep step).

The pooled sweep kernel (:func:`interval_sweep`) hoists the begin columns
and bounds each inner scan with :func:`bisect.bisect_left` plus a
list-comprehension emission.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

try:  # numpy is optional: interval_join_vectorized reports failure without it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-less installs
    _np = None  # type: ignore[assignment]

from ..algebra.expressions import Expression

__all__ = [
    "interval_sweep",
    "interval_join_vectorized",
    "key_buckets",
    "keyed_interval_join",
    "partition_by_keys",
    "chunk_partitions",
    "run_partitions_parallel",
]

Row = Tuple[Any, ...]
#: One co-partition of the join: (left rows, right rows).
Partition = Tuple[List[Row], List[Row]]
#: Right-bucket size up to which :func:`keyed_interval_join` probes each
#: left row against the bucket instead of sweeping the key's partition.
NESTED_BUCKET = 16


def interval_sweep(
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
    lb: int,
    le: int,
    rb: int,
    re: int,
    keep: Optional[Callable[[Row], bool]],
    out: List[Row],
    checkpoint: Optional[Callable[[int], None]] = None,
) -> None:
    """Forward-scan plane sweep over begin-sorted inputs.

    Both inputs are sorted by interval begin; the side whose current head
    starts earlier scans the other side forward while begins fall before
    its end, emitting overlapping pairs.  Each qualifying pair is found
    exactly once (by whichever row starts first, ties to the left input),
    in ``O(n log n + output)`` instead of the nested loop's ``O(n^2)``.
    Degenerate intervals (``begin >= end``) and NULL end points follow the
    raw predicate semantics: NULL comparisons are false, so such rows are
    dropped up front, while degenerate intervals still join wherever the
    two strict comparisons hold.  The candidate range of the inner scan is
    located with ``bisect_left`` over the hoisted begin column and the
    matches are emitted through one list comprehension per head row.
    """
    lhs = [r for r in left_rows if r[lb] is not None and r[le] is not None]
    rhs = [r for r in right_rows if r[rb] is not None and r[re] is not None]
    lhs.sort(key=itemgetter(lb))
    rhs.sort(key=itemgetter(rb))
    lbegins = [r[lb] for r in lhs]
    rbegins = [r[rb] for r in rhs]
    n_left, n_right = len(lhs), len(rhs)
    i = j = 0
    while i < n_left and j < n_right:
        if checkpoint is not None:
            checkpoint(len(out))
        if lbegins[i] <= rbegins[j]:
            left_row = lhs[i]
            begin, end = lbegins[i], left_row[le]
            k = bisect_left(rbegins, end, j)
            if keep is None:
                out.extend(
                    [left_row + r for r in rhs[j:k] if begin < r[re]]
                )
            else:
                out.extend(
                    [
                        combined
                        for r in rhs[j:k]
                        if begin < r[re] and keep(combined := left_row + r)
                    ]
                )
            i += 1
        else:
            right_row = rhs[j]
            begin, end = rbegins[j], right_row[re]
            k = bisect_left(lbegins, end, i)
            if keep is None:
                out.extend(
                    [r + right_row for r in lhs[i:k] if begin < r[le]]
                )
            else:
                out.extend(
                    [
                        combined
                        for r in lhs[i:k]
                        if begin < r[le] and keep(combined := r + right_row)
                    ]
                )
            j += 1


def _expand_ranges(lo: Any, hi: Any) -> Tuple[Any, Any]:
    """All (head, tail) index pairs with ``tail`` in ``[lo[head], hi[head])``.

    The ranges come from two ``searchsorted`` calls, so each is contiguous;
    repeat/cumsum/arange expand them into flat pair arrays at C speed.
    """
    np = _np
    counts = np.maximum(hi - lo, 0)
    total = int(counts.sum())
    if not total:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    heads = np.repeat(np.arange(len(lo), dtype=np.int64), counts)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    tails = np.arange(total, dtype=np.int64) - offsets + np.repeat(lo, counts)
    return heads, tails


def _int_column(column: Sequence[Any]) -> Any:
    """The column as an int64 array, or None if that would bend semantics.

    The arrays feed only comparisons (sorting and range location); the
    output rows are built from the original tuples, so ``bool`` entries may
    coerce (``True`` orders exactly like ``1`` under Python ``<`` too).
    Anything numpy does not *infer* as int64 or bool -- floats (a forced
    int64 cast would truncate them), NULLs, strings, arbitrary objects,
    out-of-range ints -- is refused.
    """
    np = _np
    try:
        array = np.asarray(column)
    except (OverflowError, TypeError, ValueError):
        return None
    if array.dtype == np.int64:
        return array
    if array.dtype == np.bool_:
        return array.astype(np.int64)
    return None


def interval_join_vectorized(
    left_begins: Sequence[Any],
    left_ends: Sequence[Any],
    right_begins: Sequence[Any],
    right_ends: Sequence[Any],
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
    keep: Optional[Callable[[Row], bool]],
    out: List[Row],
) -> bool:
    """Whole-column interval join: every inner scan becomes a searchsorted.

    Same pairing rule as :func:`interval_sweep` split into two disjoint
    cases -- pairs whose left row starts first (ties included) and pairs
    whose right row starts strictly first -- each solved for *all* head rows
    at once: sort one side's begin column, locate every head's candidate
    range with two vectorized ``searchsorted`` calls (the lower bounds run
    over needles already in sorted order, which binary-searches markedly
    faster), and expand the ranges to flat index pairs.  The other strict
    comparison holds automatically for well-formed intervals; a per-pair
    mask enforces it only when degenerate (``end <= begin``) intervals are
    present.  Only the final tuple concatenation runs per output row.

    Requires numpy and integer endpoint columns (NULL end points fall back
    to the scalar sweep, which drops them); returns ``False`` without
    touching ``out`` when the preconditions fail.
    """
    if _np is None:
        return False
    if not left_rows or not right_rows:
        return True
    np = _np
    lb = _int_column(left_begins)
    le = _int_column(left_ends)
    rb = _int_column(right_begins)
    re = _int_column(right_ends)
    if lb is None or le is None or rb is None or re is None:
        return False
    left_order = np.argsort(lb)
    right_order = np.argsort(rb)
    sorted_lb = lb[left_order]
    sorted_rb = rb[right_order]
    # With no degenerate intervals the second overlap comparison is implied
    # by the range bounds (rb >= lb and re > rb give re > lb), so the
    # per-pair masks -- two gathers and two compares -- can be skipped.
    check_degenerate = bool((le <= lb).any() or (re <= rb).any())

    # Case A -- left head starts first (lb <= rb): candidates are the right
    # rows with rb in [lb, le); the mask re-checks lb < re for degenerates.
    heads, tails = _expand_ranges(
        np.searchsorted(sorted_rb, sorted_lb, side="left"),
        np.searchsorted(sorted_rb, le[left_order], side="left"),
    )
    left_a = left_order[heads]
    right_a = right_order[tails]
    if check_degenerate:
        mask = re[right_a] > lb[left_a]
        left_a, right_a = left_a[mask], right_a[mask]

    # Case B -- right head starts strictly first (rb < lb): candidates are
    # the left rows with lb in (rb, re); the mask re-checks rb < le.
    heads, tails = _expand_ranges(
        np.searchsorted(sorted_lb, sorted_rb, side="right"),
        np.searchsorted(sorted_lb, re[right_order], side="left"),
    )
    left_b = left_order[tails]
    right_b = right_order[heads]
    if check_degenerate:
        mask = le[left_b] > rb[right_b]
        left_b, right_b = left_b[mask], right_b[mask]

    left_index = np.concatenate([left_a, left_b]).tolist()
    right_index = np.concatenate([right_a, right_b]).tolist()
    if keep is None:
        out.extend(
            [
                left_rows[i] + right_rows[j]
                for i, j in zip(left_index, right_index)
            ]
        )
    else:
        out.extend(
            [
                combined
                for i, j in zip(left_index, right_index)
                if keep(combined := left_rows[i] + right_rows[j])
            ]
        )
    return True


def key_buckets(rows: Sequence[Row], indexes: Sequence[int]) -> Dict[Any, List[Row]]:
    """Rows grouped by the values of their key columns, NULL keys dropped.

    A key is the bare value for one key column and a tuple for several
    (what ``itemgetter(*indexes)`` returns, extracted at C speed).  SQL
    comparison semantics: a NULL in any key column compares equal to
    nothing, itself included, so such rows join no bucket.  They are
    bucketed like any other and their buckets dropped afterwards, which
    keeps the per-row loop free of NULL tests.
    """
    buckets: Dict[Any, List[Row]] = {}
    get = buckets.get
    for key, row in zip(map(itemgetter(*indexes), rows), rows):
        bucket = get(key)
        if bucket is None:
            buckets[key] = [row]
        else:
            bucket.append(row)
    single = len(indexes) == 1
    for key in [k for k in buckets if (k is None if single else None in k)]:
        del buckets[key]
    return buckets


def partition_by_keys(
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
    keys: Sequence[Tuple[int, int]],
) -> List[Partition]:
    """Co-partition both inputs by their equality-key values.

    SQL NULL semantics: a NULL in any key column matches nothing, so such
    rows join no partition.  Keys present on only one side produce no
    partition (they cannot contribute output).
    """
    right_parts = key_buckets(right_rows, [ri for _li, ri in keys])
    # Left rows are bucketed only under keys the right side has, so NULL
    # keys (never among the right buckets) fall away here too.
    left_parts: Dict[Any, List[Row]] = {}
    get = left_parts.get
    for key, row in zip(map(itemgetter(*[li for li, _ri in keys]), left_rows), left_rows):
        part = get(key)
        if part is None:
            if key in right_parts:
                left_parts[key] = [row]
        else:
            part.append(row)
    return [(left_part, right_parts[key]) for key, left_part in left_parts.items()]


def keyed_interval_join(
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
    keys: Sequence[Tuple[int, int]],
    lb: int,
    le: int,
    rb: int,
    re: int,
    keep: Optional[Callable[[Row], bool]],
    out: List[Row],
    checkpoint: Optional[Callable[[int], None]] = None,
) -> int:
    """Serial interval join with equality keys; returns the partition count.

    A hash join on the keys with the overlap test applied per candidate
    pair: right rows are bucketed by key and every left row probes its
    bucket.  Equality keys usually split the inputs into many tiny
    partitions, where this beats building both sides' partitions and
    sorting each.  A bucket above :data:`NESTED_BUCKET` rows instead
    collects its left rows and is swept as one partition, so a skewed key
    stays ``O(n log n)``.  NULL keys and NULL end points match nothing;
    degenerate intervals join wherever both strict comparisons hold.  The
    partition count is the number of keys present on both sides, counting
    only right rows with both end points.
    """
    buckets = key_buckets(
        [r for r in right_rows if r[rb] is not None and r[re] is not None],
        [ri for _li, ri in keys],
    )
    get = buckets.get
    left_keys = list(map(itemgetter(*[li for li, _ri in keys]), left_rows))
    swept: Dict[Any, List[Row]] = {}
    emit = out.append
    for key, left_row in zip(left_keys, left_rows):
        bucket = get(key)
        if bucket is None:
            continue
        if checkpoint is not None:
            checkpoint(len(out))
        if len(bucket) > NESTED_BUCKET:
            swept.setdefault(key, []).append(left_row)
            continue
        begin, end = left_row[lb], left_row[le]
        if begin is None or end is None:
            continue
        # A plain loop: buckets hold a handful of rows, too few to pay for
        # a comprehension's frame.
        for r in bucket:
            if begin < r[re] and r[rb] < end:
                combined = left_row + r
                if keep is None or keep(combined):
                    emit(combined)
    for key, lefts in swept.items():
        interval_sweep(lefts, buckets[key], lb, le, rb, re, keep, out, checkpoint)
    return len(buckets.keys() & set(left_keys))


def chunk_left(
    left_rows: Sequence[Row], right_rows: Sequence[Row], chunks: int
) -> List[Partition]:
    """Fragment-replicate partitioning for joins without equality conjuncts.

    The left input is split into ``chunks`` slices, each joined against the
    whole right input; every output pair is produced by exactly one slice,
    so the union of the partition outputs is the exact join result.
    """
    total = len(left_rows)
    chunks = max(1, min(chunks, total))
    size, extra = divmod(total, chunks)
    partitions: List[Partition] = []
    start = 0
    right = list(right_rows)
    for position in range(chunks):
        stop = start + size + (1 if position < extra else 0)
        if stop > start:
            partitions.append((list(left_rows[start:stop]), right))
        start = stop
    return partitions


def chunk_partitions(
    partitions: Sequence[int], costs: Sequence[int], workers: int
) -> List[List[int]]:
    """Greedy balanced assignment of partition ids to ``workers`` chunks.

    Largest-first into the currently lightest chunk -- the classic LPT
    heuristic; good enough for the skew this engine sees (partition cost is
    its input row count).
    """
    order = sorted(partitions, key=lambda pid: costs[pid], reverse=True)
    buckets: List[List[int]] = [[] for _ in range(max(1, workers))]
    loads = [0] * len(buckets)
    for pid in order:
        lightest = loads.index(min(loads))
        buckets[lightest].append(pid)
        loads[lightest] += costs[pid]
    return [bucket for bucket in buckets if bucket]


# -- pool plumbing ---------------------------------------------------------------------
#
# Worker state is installed by the pool initializer so tasks only carry
# partition ids.  Under fork the payload is inherited; under spawn it is
# pickled once per worker.

_WORKER_STATE: Optional[Tuple[List[Partition], int, int, int, int, Optional[Callable[[Row], bool]]]] = None


def _worker_init(
    partitions: List[Partition],
    lb: int,
    le: int,
    rb: int,
    re: int,
    residual: Optional[Expression],
    schema: Tuple[str, ...],
) -> None:
    global _WORKER_STATE
    keep = residual.compile(schema) if residual is not None else None
    _WORKER_STATE = (partitions, lb, le, rb, re, keep)


def _worker_run(chunk: List[int]) -> List[Row]:
    assert _WORKER_STATE is not None, "pool initializer did not run"
    partitions, lb, le, rb, re, keep = _WORKER_STATE
    out: List[Row] = []
    for pid in chunk:
        left_part, right_part = partitions[pid]
        interval_sweep(left_part, right_part, lb, le, rb, re, keep, out)
    return out


def run_partitions_parallel(
    partitions: List[Partition],
    lb: int,
    le: int,
    rb: int,
    re: int,
    residual: Optional[Expression],
    schema: Tuple[str, ...],
    workers: int,
    out: List[Row],
    checkpoint: Optional[Callable[[int], None]] = None,
) -> int:
    """Sweep every partition across a worker pool; returns the worker count.

    The parent polls ``checkpoint`` between chunk results (workers run each
    partition to completion), and the chunk order is fixed, so the output
    order is deterministic for a given partition list.
    """
    costs = [len(left) + len(right) for left, right in partitions]
    chunks = chunk_partitions(range(len(partitions)), costs, workers)
    workers = min(workers, len(chunks))
    # Imported here: only pooled joins need it, and every in-memory query
    # imports this module.
    import multiprocessing

    context = multiprocessing.get_context()
    with context.Pool(
        processes=workers,
        initializer=_worker_init,
        initargs=(partitions, lb, le, rb, re, residual, schema),
    ) as pool:
        for produced in pool.imap(_worker_run, chunks):
            out.extend(produced)
            if checkpoint is not None:
                checkpoint(len(out))
    return workers
