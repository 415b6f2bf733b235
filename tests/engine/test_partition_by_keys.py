"""``partition_by_keys``: the keyed co-partitioning of the interval join.

Each case is checked against a nested-loop reference: the set of
(left row, right row) pairs whose key columns are all non-NULL and equal
must be exactly the pairs that some partition co-locates, each pair in
exactly one partition.  The serial keyed interval join, which buckets the
same keys, is checked against the same kind of reference.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import product

import pytest

from repro.engine.parallel import NESTED_BUCKET, keyed_interval_join, partition_by_keys


def _reference_pairs(left, right, keys) -> Counter:
    """Nested loop: every pair equal on all key columns, NULL matching nothing."""
    pairs: Counter = Counter()
    for left_row, right_row in product(left, right):
        if all(
            left_row[li] is not None
            and right_row[ri] is not None
            and left_row[li] == right_row[ri]
            for li, ri in keys
        ):
            pairs[(left_row, right_row)] += 1
    return pairs


def _partition_pairs(partitions) -> Counter:
    pairs: Counter = Counter()
    for left_part, right_part in partitions:
        for left_row, right_row in product(left_part, right_part):
            pairs[(left_row, right_row)] += 1
    return pairs


def _check(left, right, keys):
    partitions = partition_by_keys(left, right, keys)
    assert _partition_pairs(partitions) == _reference_pairs(left, right, keys)
    # Partitions are only emitted for keys present on both sides.
    assert all(left_part and right_part for left_part, right_part in partitions)
    return partitions


def test_single_column_key():
    left = [("a", 1, 0, 5), ("b", 2, 1, 4), ("a", 3, 2, 9)]
    right = [(7, "a", 0, 3), (8, "b", 2, 6), (9, "a", 5, 8)]
    partitions = _check(left, right, [(0, 1)])
    assert len(partitions) == 2


def test_composite_key():
    left = [("a", 1, 0), ("a", 2, 1), ("b", 1, 2), ("a", 1, 3)]
    right = [(1, "a", 10), (2, "a", 11), (2, "b", 12), (1, "a", 13)]
    partitions = _check(left, right, [(0, 1), (1, 0)])
    assert len(partitions) == 2  # ("a", 1) and ("a", 2); ("b", ...) differ


@pytest.mark.parametrize("null_column", [0, 1])
def test_null_in_any_key_column_matches_nothing(null_column):
    left = [("a", 1, "x"), ("a", 1, "y")]
    right = [("a", 1, "z"), (None, 1, "w"), ("a", None, "v"), (None, None, "u")]
    nulled = list(left[0])
    nulled[null_column] = None
    left = left + [tuple(nulled)]
    partitions = _check(left, right, [(0, 0), (1, 1)])
    assert len(partitions) == 1
    ((left_part, right_part),) = partitions
    assert all(None not in row[:2] for row in left_part + right_part)


def test_null_single_key_on_both_sides_does_not_pair():
    # Python's None == None would pair these; SQL semantics must not.
    left = [(None, 0), ("k", 1)]
    right = [(None, 2), ("k", 3)]
    partitions = _check(left, right, [(0, 0)])
    assert partitions == [([("k", 1)], [("k", 3)])]


def test_keys_on_one_side_only_produce_no_partition():
    left = [("only-left", 0), ("both", 1)]
    right = [("both", 2), ("only-right", 3)]
    partitions = _check(left, right, [(0, 0)])
    assert partitions == [([("both", 1)], [("both", 2)])]
    assert _check(left, [], [(0, 0)]) == []
    assert _check([], right, [(0, 0)]) == []


def test_duplicates_keep_their_multiplicity():
    left = [("a", 0), ("a", 0), ("b", 1)]
    right = [("a", 5), ("b", 6), ("b", 6)]
    _check(left, right, [(0, 0)])


@pytest.mark.parametrize("keys_count", [3, 40])
def test_keyed_interval_join_matches_nested_loop(keys_count):
    """Probe and sweep paths, NULL keys/end points and degenerate intervals.

    Three keys over 120 rows put more than ``NESTED_BUCKET`` rows in every
    right bucket (the sweep path); forty keys keep buckets small (the probe
    path).  The reference evaluates the raw predicate on every pair, with
    SQL's NULL comparisons.
    """
    rng = random.Random(keys_count)

    def rows(count):
        out = []
        for i in range(count):
            begin = rng.choice([None] + list(range(12)))
            end = rng.choice([None] + list(range(14)))
            key = rng.choice([None] + list(range(keys_count)))
            out.append((key, i, begin, end))
        return out

    left, right = rows(120), rows(120)

    def holds(a, b):
        return a is not None and b is not None and a < b

    expected = Counter(
        l + r
        for l, r in product(left, right)
        if l[0] is not None
        and l[0] == r[0]
        and holds(l[2], r[3])
        and holds(r[2], l[3])
    )
    out: list = []
    partitions = keyed_interval_join(left, right, [(0, 0)], 2, 3, 2, 3, None, out)
    assert Counter(out) == expected
    assert partitions == len(
        {l[0] for l in left} & {r[0] for r in right if r[2] is not None and r[3] is not None}
        - {None}
    )
    if keys_count == 3:
        assert all(
            sum(1 for r in right if r[0] == key and r[2] is not None and r[3] is not None)
            > NESTED_BUCKET
            for key in range(keys_count)
        )
