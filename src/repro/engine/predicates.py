"""Join-predicate analysis shared by the engine and the cost planner.

A join predicate is read as a conjunction and split three ways:

* **equi keys** -- ``l.a = r.b`` attribute equalities across the inputs,
  which the engine hashes or partitions on;
* an **interval pattern** -- one strict comparison in each direction
  across the inputs (``l.begin < r.end AND r.begin < l.end``, the shape
  every REWR join carries), which the engine answers with a sort-merge
  interval join;
* the **residual** -- every other conjunct, applied as a filter on the
  candidate pairs.

The helpers only need ``has_attribute`` / ``column_index`` on each input,
so they work on :class:`~repro.engine.batch.ColumnarBatch` inputs, on
:class:`~repro.engine.table.Table` inputs and on the planner's schema
views alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..algebra.expressions import Attribute, BooleanOp, Comparison, Expression

__all__ = [
    "IntervalPattern",
    "combine_residual",
    "extract_interval_pattern",
    "split_join_predicate",
]


@dataclass(frozen=True)
class IntervalPattern:
    """Column indexes of a detected overlap predicate.

    The predicate ``left[begin] < right[end] AND right[begin] < left[end]``
    is exactly the strict-overlap test of the intervals
    ``[left.begin, left.end)`` and ``[right.begin, right.end)``.
    """

    left_begin: int
    left_end: int
    right_begin: int
    right_end: int


def split_join_predicate(
    predicate: Optional[Expression], left: Any, right: Any
) -> Tuple[List[Tuple[int, int]], List[Expression]]:
    """Split a predicate into hashable equi-join key pairs and residual conjuncts.

    Returns ``(pairs, residual)`` where each pair is (left column index,
    right column index).  Conjuncts that are not attribute equalities across
    the two inputs stay in the residual list.
    """
    if predicate is None:
        return [], []
    pairs: List[Tuple[int, int]] = []
    residual: List[Expression] = []
    for conjunct in _flatten_conjuncts(predicate):
        pair = _equi_pair(conjunct, left, right)
        if pair is None:
            residual.append(conjunct)
        else:
            pairs.append(pair)
    return pairs, residual


def combine_residual(conjuncts: List[Expression]) -> Optional[Expression]:
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return BooleanOp("and", tuple(conjuncts))


def _flatten_conjuncts(predicate: Expression) -> List[Expression]:
    if isinstance(predicate, BooleanOp) and predicate.op == "and":
        result: List[Expression] = []
        for operand in predicate.operands:
            result.extend(_flatten_conjuncts(operand))
        return result
    return [predicate]


def _equi_pair(conjunct: Expression, left: Any, right: Any) -> Optional[Tuple[int, int]]:
    if not (isinstance(conjunct, Comparison) and conjunct.op == "="):
        return None
    lhs, rhs = conjunct.left, conjunct.right
    if not (isinstance(lhs, Attribute) and isinstance(rhs, Attribute)):
        return None
    if left.has_attribute(lhs.name) and right.has_attribute(rhs.name):
        return left.column_index(lhs.name), right.column_index(rhs.name)
    if left.has_attribute(rhs.name) and right.has_attribute(lhs.name):
        return left.column_index(rhs.name), right.column_index(lhs.name)
    return None


def extract_interval_pattern(
    conjuncts: List[Expression], left: Any, right: Any
) -> Tuple[Optional[IntervalPattern], List[Expression]]:
    """Find an overlap pattern among residual conjuncts.

    Looks for one strict attribute comparison in each direction across the
    inputs (``l.a < r.b`` and ``r.c < l.d``, with ``>`` normalised); together
    they state that interval ``(a, d)`` on the left overlaps ``(c, b)`` on
    the right.  Returns the pattern (or ``None``) plus the leftover
    conjuncts, which the join applies as a filter on matching pairs.
    """
    forward: Optional[Tuple[int, int]] = None  # left column < right column
    backward: Optional[Tuple[int, int]] = None  # right column < left column
    remaining: List[Expression] = []
    for conjunct in conjuncts:
        sides = _strict_cross_comparison(conjunct, left, right)
        if sides is None:
            remaining.append(conjunct)
            continue
        direction, low, high = sides
        if direction == "forward" and forward is None:
            forward = (low, high)
        elif direction == "backward" and backward is None:
            backward = (low, high)
        else:
            remaining.append(conjunct)
    if forward is None or backward is None:
        return None, conjuncts
    pattern = IntervalPattern(
        left_begin=forward[0],
        left_end=backward[1],
        right_begin=backward[0],
        right_end=forward[1],
    )
    return pattern, remaining


def _strict_cross_comparison(
    conjunct: Expression, left: Any, right: Any
) -> Optional[Tuple[str, int, int]]:
    """Classify a conjunct as a strict ``<`` between the two inputs.

    Returns ``("forward", left index, right index)`` for ``l.a < r.b``,
    ``("backward", right index, left index)`` for ``r.c < l.d`` (both after
    normalising ``>``), or ``None``.
    """
    if not (isinstance(conjunct, Comparison) and conjunct.op in ("<", ">")):
        return None
    lhs, rhs = conjunct.left, conjunct.right
    if conjunct.op == ">":
        lhs, rhs = rhs, lhs
    if not (isinstance(lhs, Attribute) and isinstance(rhs, Attribute)):
        return None
    if left.has_attribute(lhs.name) and right.has_attribute(rhs.name):
        return "forward", left.column_index(lhs.name), right.column_index(rhs.name)
    if right.has_attribute(lhs.name) and left.has_attribute(rhs.name):
        return "backward", right.column_index(lhs.name), left.column_index(rhs.name)
    return None
