"""Property test: the cost planner never changes results, on any backend.

For randomized conformance-grammar plans over generated catalogs
(adversarial interval shapes included), the ``planner="cost"`` pipeline --
ANALYZE statistics, logical join reordering, strategy hints, and the
stats-driven parallel threshold -- must return exactly the bag the
syntactic planner returns, on the in-memory engine and the SQLite backend.
This is the standing safety net that keeps cost plans semantically inert:
only the order and physical strategy may change.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from hypothesis import given, settings

from repro.datasets import generate_catalog
from repro.rewriter.middleware import SnapshotMiddleware

from tests.strategies import conformance_queries, generator_configs


def _bag(table) -> Counter:
    return Counter(table.rows)


@settings(max_examples=60, deadline=None)
@given(config=generator_configs(), query=conformance_queries())
def test_cost_plans_match_syntactic_on_all_executors(config, query):
    database = generate_catalog(config)
    database.analyze()
    syntactic = SnapshotMiddleware(
        config.domain, database=database, optimize="syntactic"
    )
    cost = SnapshotMiddleware(config.domain, database=database, optimize="cost")
    for backend in (None, "sqlite"):
        baseline = syntactic.execute(query, backend=backend)
        statistics: Dict[str, int] = {}
        result = cost.execute(query, statistics, backend=backend)
        assert result.schema == baseline.schema
        assert _bag(result) == _bag(baseline)


@settings(max_examples=30, deadline=None)
@given(config=generator_configs(), query=conformance_queries())
def test_cost_plans_match_without_statistics(config, query):
    """Cost mode must also be exact when ANALYZE was never run."""
    database = generate_catalog(config)
    syntactic = SnapshotMiddleware(
        config.domain, database=database, optimize="syntactic"
    )
    cost = SnapshotMiddleware(config.domain, database=database, optimize="cost")
    baseline = syntactic.execute(query)
    result = cost.execute(query)
    assert result.schema == baseline.schema
    assert _bag(result) == _bag(baseline)
