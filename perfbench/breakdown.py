"""Per-operator execution time, measured from outside the engine.

:func:`operator_breakdown` takes a plan exactly as the engine received it
and runs it one node at a time.  Every node runs through the public
``repro.engine.execute`` with its children replaced by ``RelationAccess``
reads of their already materialized results, which sit as tables in a
scratch catalog.  A node's self time is the median time of that run, and
its output feeds its parent.  ``coverage`` is the sum of the self times
over the median time of the whole plan: near 1 when the node-at-a-time
runs account for the engine's work.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

#: Benchmark operator names by plan node class.
OPERATOR_NAMES = {
    "RelationAccess": "scan",
    "ConstantRelation": "scan",
    "Selection": "selection",
    "Projection": "projection",
    "Rename": "rename",
    "Join": "join",
    "Aggregation": "aggregate",
    "Union": "union",
    "Difference": "difference",
    "Distinct": "distinct",
    "CoalesceOperator": "coalesce",
    "SplitOperator": "split",
    "TemporalAggregateOperator": "temporal_aggregate",
}

OPERATORS = (
    "scan", "selection", "projection", "rename", "join", "aggregate", "union",
    "difference", "distinct", "coalesce", "split", "temporal_aggregate",
)


def operator_name(node: Any) -> str:
    return OPERATOR_NAMES.get(type(node).__name__, "other")


def count_nodes(plan: Any) -> int:
    return 1 + sum(count_nodes(child) for child in plan.children())


def _median_ns(action: Callable[[], Any], repeats: int) -> Tuple[float, Any]:
    times: List[int] = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter_ns()
        result = action()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times), result


def operator_breakdown(
    plan: Any,
    database: Any,
    execute: Callable[..., Any],
    database_cls: Callable[[], Any],
    relation_access: Callable[[str], Any],
    repeats: int = 3,
) -> Dict[str, Any]:
    """Self ms and output rows per operator kind, plus whole-plan ms and coverage."""
    scratch = database_cls()
    self_ms: Dict[str, float] = {}
    rows_out: Dict[str, int] = {}

    def visit(node: Any) -> str:
        inputs = [visit(child) for child in node.children()]
        if inputs:
            single = node.with_children(*(relation_access(name) for name in inputs))
            catalog = scratch
        else:
            single = node
            catalog = database
        elapsed, table = _median_ns(lambda: execute(single, catalog), repeats)
        kind = operator_name(node)
        self_ms[kind] = self_ms.get(kind, 0.0) + elapsed / 1e6
        rows_out[kind] = rows_out.get(kind, 0) + len(table.rows)
        name = f"node{len(scratch.names())}"
        scratch.create_table(name, table.schema, table.rows)
        return name

    visit(plan)
    whole, _ = _median_ns(lambda: execute(plan, database), repeats)
    whole_ms = whole / 1e6
    return {
        "self_ms": self_ms,
        "rows_out": rows_out,
        "whole_ms": whole_ms,
        "coverage": sum(self_ms.values()) / whole_ms if whole_ms > 0 else 0.0,
    }
