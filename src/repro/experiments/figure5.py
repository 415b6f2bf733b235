"""Figure 5: cost of multiset coalescing for varying input size.

The paper materialises the result of a selection over the salaries table at
selectivities from 1k to 3M rows and measures the cost of evaluating
``SELECT * FROM materialised`` under snapshot semantics -- which isolates
the cost of the final multiset coalescing step.  The reported behaviour is a
runtime linear in the input size (the sort inside the window functions is
not the dominating factor).

This driver reproduces the same setup at laptop scale: it generates a
salary-history table of ``n`` rows for each requested size, runs the
identity snapshot query through the middleware (whose rewritten plan is
exactly one coalesce over a scan) and reports wall-clock seconds per size.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, Iterable, List, Sequence

from ..engine.catalog import Database
from ..engine.executor import execute as engine_execute
from ..rewriter.middleware import SnapshotMiddleware
from ..algebra.operators import Projection, RelationAccess
from ..temporal.timedomain import TimeDomain
from .report import format_table

__all__ = ["DEFAULT_SIZES", "run_figure5", "format_figure5", "build_salary_table"]

#: Input sizes (rows); the paper uses 1k .. 3M, scaled down here.
DEFAULT_SIZES: Sequence[int] = (1_000, 5_000, 10_000, 30_000, 50_000, 100_000)


def build_salary_table(
    rows: int,
    domain: TimeDomain,
    duplicate_fraction: float = 0.3,
    seed: int = 7,
) -> Database:
    """A materialised selection result: ``rows`` salary periods.

    ``duplicate_fraction`` controls how many rows are value-equivalent with
    overlapping periods, i.e. how much actual merging the coalescing step has
    to perform -- the paper's selection over real data naturally contains
    such overlaps.
    """
    rng = random.Random(seed)
    months = len(domain)
    data: List[tuple] = []
    employees = max(1, int(rows / 8))
    for i in range(rows):
        if rng.random() < duplicate_fraction and data:
            # Re-emit an existing employee/salary with a shifted, overlapping period.
            emp_no, salary, begin, end = data[rng.randrange(len(data))][:4]
            shift = rng.randrange(-3, 4)
            begin, end = domain.clamp(begin + shift, end + shift)
            if begin >= end:
                begin, end = domain.clamp(0, rng.randrange(1, months))
        else:
            emp_no = rng.randrange(1, employees + 1)
            salary = rng.randrange(38000, 90000, 1000)
            begin = rng.randrange(0, months - 1)
            end = min(months, begin + rng.randrange(6, 24))
        data.append((emp_no, salary, begin, end))
    database = Database()
    database.create_table(
        "materialized_salaries",
        ("ms_emp_no", "ms_salary", "t_begin", "t_end"),
        data,
        period=("t_begin", "t_end"),
    )
    return database


def run_figure5(
    sizes: Iterable[int] = DEFAULT_SIZES,
    months: int = 120,
    repetitions: int = 1,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Measure coalescing runtime per input size; returns one dict per size.

    ``seed`` feeds the salary-table generator, so a recorded run is
    reproducible end to end from its ledger entry.  The snapshot rewrite runs
    once outside the timed region, so the figure measures the coalescing
    kernel (which the paper isolates), not the shared REWR front end.
    """
    results: List[Dict[str, object]] = []
    domain = TimeDomain(0, months)
    for size in sizes:
        database = build_salary_table(size, domain, seed=seed)
        middleware = SnapshotMiddleware(domain, database=database)
        query = Projection.of_attributes(
            RelationAccess("materialized_salaries"), "ms_emp_no", "ms_salary"
        )
        plan = middleware.rewrite(query)
        best = None
        output_rows = 0
        # Like timeit: collect up front and keep the collector out of the
        # timed region, so the figure measures the coalescing kernel rather
        # than whatever heap the surrounding process (e.g. a test suite)
        # accumulated -- gen-2 pauses otherwise dwarf the small sizes.
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for _ in range(max(1, repetitions)):
                started = time.perf_counter()
                table = engine_execute(plan, database)
                elapsed = time.perf_counter() - started
                best = elapsed if best is None else min(best, elapsed)
                output_rows = len(table)
        finally:
            if gc_was_enabled:
                gc.enable()
        results.append(
            {
                "input_rows": size,
                "output_rows": output_rows,
                "seconds": best,
                "seconds_per_1k_rows": best / (size / 1000),
            }
        )
    return results


def format_figure5(results: List[Dict[str, object]]) -> str:
    return format_table(
        ["input_rows", "output_rows", "seconds", "seconds_per_1k_rows"],
        results,
        title="Figure 5: multiset coalescing runtime for varying input size",
    )
