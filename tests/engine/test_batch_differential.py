"""Differential suite of the columnar batch engine against independent oracles.

The columnar batch engine (:mod:`repro.engine.batch`) is the only
in-memory engine, so it is checked against two oracles that share none of
its code: the abstract per-snapshot model (the paper's definition of
snapshot semantics, via :func:`repro.conformance.assert_conformant`) and
SQLite executing the same rewritten plan.  The hypothesis suite here drives
randomized generator catalogs (adversarial shapes included -- NULL data,
NULL end points, duplicates, degenerate intervals) through the deep
conformance plan grammar with the planner on and off.  The join cases pin
the partitioned, pooled and vectorized interval-join routes -- and the
partition counters the ``explain()`` surface reports -- against SQLite and
the engine's hash/nested-loop fallback for the same predicate.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

import pytest
from hypothesis import given, settings

from repro.algebra.expressions import Comparison, and_, attr
from repro.algebra.operators import Join, RelationAccess, Rename
from repro.conformance import assert_conformant
from repro.datasets import GeneratorConfig, generate_catalog, generate_table
from repro.engine.catalog import Database
from repro.engine.executor import execute
from repro.rewriter.middleware import SnapshotMiddleware

from tests.strategies import conformance_queries, generator_configs


def _bag(table) -> Counter:
    """Multiset of rows with floats rounded (the hosts sum in different orders)."""
    return Counter(
        tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        for row in table.rows
    )


def _assert_matches_oracles(plan, database, result) -> None:
    """The engine's result equals SQLite's and the non-interval fallback's.

    ``interval_join=False`` answers the same predicate with the hash join
    (equality keys) or the nested loop (none), sharing no sweep code.
    """
    sqlite_result = execute(plan, database, backend="sqlite")
    fallback = execute(plan, database, interval_join=False)
    assert result.schema == sqlite_result.schema == fallback.schema
    assert _bag(result) == _bag(sqlite_result) == _bag(fallback)


@settings(max_examples=60, deadline=None)
@given(config=generator_configs(), query=conformance_queries())
def test_batch_engine_matches_sqlite_on_generated_catalogs(
    config, query
):
    """Batch == SQLite on randomized plans x catalogs, planner on and off.

    Each rewritten plan runs on the engine and on SQLite with identical
    physical output expected; the abstract per-snapshot model then certifies
    the engine's decoded result at every input changepoint.
    """
    database = generate_catalog(config)
    for optimize in (True, False):
        middleware = SnapshotMiddleware(
            config.domain, database=database, optimize=optimize
        )
        plan = middleware.rewrite(query)
        batch_result = execute(plan, database)
        sqlite_result = execute(plan, database, backend="sqlite")
        assert batch_result.schema == sqlite_result.schema
        assert _bag(batch_result) == _bag(sqlite_result)
    assert_conformant(query, database, config.domain, backends=("memory",))


def test_pooled_partitioned_join_matches_sqlite_and_counts_workers():
    """The pooled partitioned interval join is exact and visibly parallel."""
    config = GeneratorConfig(
        rows=2400,
        domain_size=2048,
        seed=11,
        interval_profile="uniform",
        duplicate_rate=0.1,
        null_endpoint_rate=0.05,
        keys=6,
    )
    database = Database()
    for name, prefix in (("L", "l"), ("R", "r")):
        database.register(
            generate_table(name, config, prefix), period=("t_begin", "t_end")
        )
    left = Rename(RelationAccess("L"), (("t_begin", "l_begin"), ("t_end", "l_end")))
    right = Rename(RelationAccess("R"), (("t_begin", "r_begin"), ("t_end", "r_end")))
    predicate = and_(
        Comparison("=", attr("l_key"), attr("r_key")),
        and_(
            Comparison("<", attr("l_begin"), attr("r_end")),
            Comparison("<", attr("r_begin"), attr("l_end")),
        ),
    )
    plan = Join(left, right, predicate)

    statistics: Dict[str, int] = {}
    batch_result = execute(plan, database, statistics, parallel_workers=2)

    _assert_matches_oracles(plan, database, batch_result)
    assert len(batch_result) > 0
    # The acceptance gate: the pool really ran, across >= 2 worker
    # processes, over the equality-key partitions.
    assert statistics["join_strategy.interval_parallel"] == 1
    assert statistics["batch.parallel_workers"] >= 2
    assert statistics["batch.parallel_partitions"] >= 2
    assert statistics["batch.partitions"] >= 2


def test_serial_batch_join_still_counts_partitions():
    """Without a pool the partition counter still reports the key split."""
    config = GeneratorConfig(
        rows=120, domain_size=64, seed=5, interval_profile="mixed", keys=4
    )
    database = Database()
    for name, prefix in (("L", "l"), ("R", "r")):
        database.register(
            generate_table(name, config, prefix), period=("t_begin", "t_end")
        )
    left = Rename(RelationAccess("L"), (("t_begin", "l_begin"), ("t_end", "l_end")))
    right = Rename(RelationAccess("R"), (("t_begin", "r_begin"), ("t_end", "r_end")))
    predicate = and_(
        Comparison("=", attr("l_key"), attr("r_key")),
        and_(
            Comparison("<", attr("l_begin"), attr("r_end")),
            Comparison("<", attr("r_begin"), attr("l_end")),
        ),
    )
    plan = Join(left, right, predicate)

    statistics: Dict[str, int] = {}
    batch_result = execute(plan, database, statistics)

    _assert_matches_oracles(plan, database, batch_result)
    assert statistics["batch.partitions"] >= 2
    assert "join_strategy.interval_parallel" not in statistics


def _overlap_plan():
    left = Rename(RelationAccess("L"), (("t_begin", "l_begin"), ("t_end", "l_end")))
    right = Rename(RelationAccess("R"), (("t_begin", "r_begin"), ("t_end", "r_end")))
    predicate = and_(
        Comparison("<", attr("l_begin"), attr("r_end")),
        Comparison("<", attr("r_begin"), attr("l_end")),
    )
    return Join(left, right, predicate)


def test_vectorized_overlap_join_matches_sqlite_and_counts():
    """The no-equality-key serial join takes the whole-column numpy route."""
    pytest.importorskip("numpy")
    config = GeneratorConfig(
        rows=600, domain_size=512, seed=3, interval_profile="uniform", keys=4
    )
    database = Database()
    for name, prefix in (("L", "l"), ("R", "r")):
        database.register(
            generate_table(name, config, prefix), period=("t_begin", "t_end")
        )
    plan = _overlap_plan()

    statistics: Dict[str, int] = {}
    batch_result = execute(plan, database, statistics)

    _assert_matches_oracles(plan, database, batch_result)
    assert len(batch_result) > 0
    assert statistics["join_strategy.interval_vectorized"] == 1
    assert statistics["batch.partitions"] == 1


def test_vectorized_overlap_join_exact_on_degenerate_and_null_intervals():
    """Degenerate (end <= begin) rows stay exact; NULL endpoints fall back.

    The vectorized kernel's range bounds imply the second overlap
    comparison only for well-formed intervals; this pins the masked slow
    path (degenerates present) and the non-int fallback (NULLs present)
    against SQLite and the nested-loop fallback.
    """
    degenerate = Database()
    degenerate.create_table(
        "L",
        ("l_id", "t_begin", "t_end"),
        [("a", 1, 5), ("b", 3, 3), ("c", 6, 2), ("d", 2, 8)],
        period=("t_begin", "t_end"),
    )
    degenerate.create_table(
        "R",
        ("r_id", "t_begin", "t_end"),
        [("x", 0, 4), ("y", 4, 4), ("z", 7, 1), ("w", 3, 9)],
        period=("t_begin", "t_end"),
    )
    plan = _overlap_plan()
    statistics: Dict[str, int] = {}
    batch_result = execute(plan, degenerate, statistics)
    _assert_matches_oracles(plan, degenerate, batch_result)
    assert statistics["join_strategy.interval_vectorized"] == 1

    nulls = Database()
    nulls.create_table(
        "L",
        ("l_id", "t_begin", "t_end"),
        [("a", 1, 5), ("b", 2, None), ("c", 0, 9)],
        period=("t_begin", "t_end"),
    )
    nulls.create_table(
        "R",
        ("r_id", "t_begin", "t_end"),
        [("x", 0, 4), ("y", None, 6), ("z", 3, 8)],
        period=("t_begin", "t_end"),
    )
    statistics = {}
    batch_result = execute(plan, nulls, statistics)
    _assert_matches_oracles(plan, nulls, batch_result)
    # NULL endpoints are not int columns: the vectorized route must decline
    # and the bisect sweep (which drops NULL rows) must answer instead.
    assert "join_strategy.interval_vectorized" not in statistics
