"""The cost-based planner: estimates, join reordering, strategy hints.

Everything the ``planner="cost"`` mode adds on top of the syntactic rules:
mode normalization, the System-R-style cardinality estimator over ANALYZE
statistics, the pre-REWR join reordering (bag-preserving, verified by
execution), the post-fixpoint strategy annotation, the wire codec for the
strategy hint, and the engine's hint obedience.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.algebra.expressions import Comparison, and_, attr, lit
from repro.algebra.operators import Join, Projection, RelationAccess, Selection
from repro.engine.catalog import Database
from repro.engine.executor import execute
from repro.planner import (
    DEFAULT_PARALLEL_THRESHOLD,
    annotate_join_strategies,
    estimate_plan,
    estimate_rows,
    normalize_planner_mode,
    parallel_engage_threshold,
    reorder_joins,
)
from repro.server.plans import plan_from_json, plan_to_json


class TestPlannerModes:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (True, "syntactic"),
            (False, "off"),
            (None, "off"),
            ("on", "syntactic"),
            ("off", "off"),
            ("syntactic", "syntactic"),
            ("cost", "cost"),
            ("COST", "cost"),
        ],
    )
    def test_normalization(self, value, expected):
        assert normalize_planner_mode(value) == expected

    @pytest.mark.parametrize("value", ["yes", "fast", 3, 1.5])
    def test_garbage_rejected(self, value):
        with pytest.raises(ValueError):
            normalize_planner_mode(value)


def _catalog():
    """Three period tables with very different sizes and key skew."""
    database = Database()
    database.create_table(
        "fact",
        ("fk", "fval", "f_begin", "f_end"),
        [("k%d" % (i % 4), i, 0, 50) for i in range(200)],
        period=("f_begin", "f_end"),
    )
    database.create_table(
        "big",
        ("bk", "bval", "b_begin", "b_end"),
        [("k%d" % (i % 4), i, 0, 50) for i in range(100)],
        period=("b_begin", "b_end"),
    )
    database.create_table(
        "dim",
        ("dk", "dval", "d_begin", "d_end"),
        [("k0", 0, 0, 50), ("k1", 1, 0, 50)],
        period=("d_begin", "d_end"),
    )
    database.analyze()
    return database


class TestEstimates:
    def test_relation_estimate_is_the_analyzed_row_count(self):
        database = _catalog()
        assert estimate_rows(RelationAccess("fact"), database) == 200.0

    def test_unanalyzed_relation_falls_back_to_actual_size(self):
        database = Database()
        database.create_table("t", ("a",), [(1,), (2,), (3,)])
        assert estimate_rows(RelationAccess("t"), database) == 3.0

    def test_equality_selectivity_uses_distinct_counts(self):
        database = _catalog()
        plan = Selection(
            RelationAccess("fact"), Comparison("=", attr("fk"), lit("k0"))
        )
        # 4 distinct keys -> 1/4 of 200 rows.
        assert estimate_rows(plan, database) == pytest.approx(50.0)

    def test_range_selectivity_reads_the_histogram(self):
        database = Database()
        database.create_table(
            "spread",
            ("t_begin", "t_end"),
            [(i, i + 1) for i in range(100)],
            period=("t_begin", "t_end"),
        )
        database.analyze()
        low = Selection(
            RelationAccess("spread"), Comparison("<", attr("t_begin"), lit(10))
        )
        high = Selection(
            RelationAccess("spread"), Comparison("<", attr("t_begin"), lit(90))
        )
        assert estimate_rows(low, database) < estimate_rows(high, database)
        assert estimate_rows(low, database) == pytest.approx(10.0, rel=0.25)

    def test_join_estimate_combines_ndv_and_density(self):
        database = _catalog()
        join = Join(
            RelationAccess("fact"),
            RelationAccess("big"),
            Comparison("=", attr("fk"), attr("bk")),
        )
        # 200 * 100 / max_ndv(4) = 5000.
        assert estimate_rows(join, database) == pytest.approx(5000.0)

    def test_estimate_plan_keys_every_node_by_id(self):
        database = _catalog()
        plan = Selection(
            RelationAccess("fact"), Comparison("=", attr("fk"), lit("k0"))
        )
        estimates = estimate_plan(plan, database)
        assert set(estimates) == {id(node) for node in plan.walk()}


def _three_way_join():
    return Join(
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


class TestJoinReordering:
    def test_reorder_prefers_the_selective_table_first(self):
        database = _catalog()
        counters: dict = {}
        reordered = reorder_joins(_three_way_join(), database, counters)
        assert counters.get("planner.cost_join_reorders") == 1
        # The restoring projection keeps the original concatenated schema.
        assert isinstance(reordered, Projection)

    def test_reordered_plan_is_bag_equal(self):
        database = _catalog()
        original = _three_way_join()
        reordered = reorder_joins(original, database)
        baseline = execute(original, database)
        result = execute(reordered, database)
        assert result.schema == baseline.schema
        assert Counter(result.rows) == Counter(baseline.rows)

    def test_reorder_without_statistics_is_still_bag_equal(self):
        database = _catalog()
        for name in list(database.names()):
            database.insert(name, [])  # no-op DML keeps rows, tests the path
        original = _three_way_join()
        reordered = reorder_joins(original, database)
        assert Counter(execute(reordered, database).rows) == Counter(
            execute(original, database).rows
        )

    def test_two_way_join_untouched(self):
        database = _catalog()
        join = Join(
            RelationAccess("fact"),
            RelationAccess("big"),
            Comparison("=", attr("fk"), attr("bk")),
        )
        reordered = reorder_joins(join, database)
        assert reordered == join

    def test_snapshot_mode_reorders_despite_shared_period_names(self):
        """Through the pipeline every table carries (t_begin, t_end).

        At the snapshot-logical level the period is implicit, so the
        shared default names must not trip the duplicate-attribute guard:
        ``snapshot=True`` hides them, the reorder fires, and the cost-mode
        session returns the same bag as the syntactic one.
        """
        from repro.api import connect

        def _session(planner):
            session = connect((0, 64), planner=planner)
            session.load(
                "fact", ["fk"], [("k%d" % (i % 3), 0, 50) for i in range(60)]
            )
            session.load(
                "big", ["bk"], [("k%d" % (i % 3), 0, 50) for i in range(30)]
            )
            session.load("dim", ["dk", "dval"], [("k0", 0, 0, 50), ("k1", 1, 0, 50)])
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
        baseline = _session(True).execute(query)
        cost_session = _session("cost")
        cost_session.analyze()
        statistics: dict = {}
        result = cost_session.execute(query, statistics)
        assert statistics.get("planner.cost_join_reorders") == 1
        assert Counter(result.rows) == Counter(baseline.rows)

    def test_duplicate_attribute_names_bail_out(self):
        database = Database()
        for name in ("a", "b", "c"):
            database.create_table(name, ("x",), [(1,)])
        chain = Join(
            Join(RelationAccess("a"), RelationAccess("b"), None),
            RelationAccess("c"),
            None,
        )
        # Every leaf exposes the same attribute name: reordering would be
        # ambiguous, so the plan must come back unchanged.
        assert reorder_joins(chain, database) == chain


class TestStrategyAnnotation:
    def test_large_equi_join_gets_hash(self):
        database = _catalog()
        join = Join(
            RelationAccess("fact"),
            RelationAccess("big"),
            Comparison("=", attr("fk"), attr("bk")),
        )
        counters: dict = {}
        annotated = annotate_join_strategies(join, database, counters)
        assert annotated.strategy == "hash"
        assert counters["planner.cost_strategy_hash"] == 1

    def test_overlap_join_gets_interval(self):
        database = _catalog()
        join = Join(
            RelationAccess("fact"),
            RelationAccess("big"),
            and_(
                Comparison("=", attr("fk"), attr("bk")),
                and_(
                    Comparison("<", attr("f_begin"), attr("b_end")),
                    Comparison("<", attr("b_begin"), attr("f_end")),
                ),
            ),
        )
        annotated = annotate_join_strategies(join, database)
        assert annotated.strategy == "interval"

    def test_tiny_inputs_get_nested_loop(self):
        database = _catalog()
        join = Join(
            RelationAccess("dim"),
            RelationAccess("dim"),
            Comparison("=", attr("dk"), attr("dk")),
        )
        annotated = annotate_join_strategies(join, database)
        assert annotated.strategy == "nested_loop"


class TestStrategyHintPlumbing:
    def test_join_repr_includes_the_hint(self):
        join = Join(
            RelationAccess("a"),
            RelationAccess("b"),
            Comparison("=", attr("x"), attr("y")),
            "interval",
        )
        assert "strategy=interval" in repr(join)

    def test_codec_roundtrip_preserves_the_hint(self):
        join = Join(
            RelationAccess("a"),
            RelationAccess("b"),
            Comparison("=", attr("x"), attr("y")),
            "hash",
        )
        decoded = plan_from_json(plan_to_json(join))
        assert decoded.strategy == "hash"

    def test_codec_omits_the_field_when_unset(self):
        join = Join(
            RelationAccess("a"),
            RelationAccess("b"),
            Comparison("=", attr("x"), attr("y")),
        )
        payload = plan_to_json(join)
        assert "strategy" not in payload
        assert plan_from_json(payload).strategy is None

    def test_with_children_keeps_the_hint(self):
        join = Join(RelationAccess("a"), RelationAccess("b"), None, "hash")
        rebuilt = join.with_children(RelationAccess("c"), RelationAccess("d"))
        assert rebuilt.strategy == "hash"

    def test_executors_obey_hints_without_changing_results(self):
        database = _catalog()
        predicate = Comparison("=", attr("fk"), attr("bk"))
        baseline = execute(
            Join(RelationAccess("fact"), RelationAccess("big"), predicate),
            database,
        )
        for strategy in ("nested_loop", "hash"):
            statistics: dict = {}
            hinted = execute(
                Join(
                    RelationAccess("fact"),
                    RelationAccess("big"),
                    predicate,
                    strategy,
                ),
                database,
                statistics,
            )
            assert Counter(hinted.rows) == Counter(baseline.rows)
            assert statistics.get(f"join_strategy.{strategy}") == 1


class TestParallelThreshold:
    def test_without_statistics_the_historical_constant(self):
        database = Database()
        database.create_table("t", ("a", "t_begin", "t_end"), [(1, 0, 5)])
        plan = RelationAccess("t")
        assert parallel_engage_threshold(plan, database) == (
            DEFAULT_PARALLEL_THRESHOLD
        )
        assert parallel_engage_threshold(plan, None) == DEFAULT_PARALLEL_THRESHOLD

    def test_dense_statistics_lower_the_threshold(self):
        database = Database()
        database.create_table(
            "dense",
            ("a", "t_begin", "t_end"),
            [(i, 0, 100) for i in range(600)],
            period=("t_begin", "t_end"),
        )
        database.analyze()
        threshold = parallel_engage_threshold(RelationAccess("dense"), database)
        assert threshold < DEFAULT_PARALLEL_THRESHOLD

    def test_sparse_statistics_raise_the_threshold(self):
        database = Database()
        database.create_table(
            "sparse",
            ("a", "t_begin", "t_end"),
            [(i, i * 10, i * 10 + 1) for i in range(50)],
            period=("t_begin", "t_end"),
        )
        database.analyze()
        threshold = parallel_engage_threshold(RelationAccess("sparse"), database)
        assert threshold > DEFAULT_PARALLEL_THRESHOLD
