"""The delta-stream differential sweep: incremental views vs. full re-execution.

This is the acceptance gate of the incremental subsystem (the PR 4
conformance sweep, transposed to view maintenance): hypothesis generates
(catalog, query, delta stream) triples -- catalogs via the deterministic
synthetic generator, plans from the extended conformance grammar, streams
mixing inserts and bag deletes against both base relations -- and after
**every** applied delta asserts that the materialized view's contents
bag-equal a full re-execution of its plan, with the full re-execution on
the in-memory engine and on SQLite, the planner on and off.

Two grounding mechanisms compose:

* per-configuration, ``view.verify()`` re-executes the rewritten plan from
  scratch through the same pipeline and bag-compares against the
  incrementally maintained Z-set (catches every delta-rule bug that
  diverges from the engine); on the SQLite sessions that re-execution
  runs on SQLite, which shares no kernel with the delta rules;
* across configurations, the four views' contents are bag-compared against
  each other (catches bugs shared between a delta rule and the matching
  engine kernel of *one* planner mode).

Failures shrink: hypothesis minimizes the catalog config, the plan, and the
delta stream together, so a red run ends with a minimal witness stream in
the same spirit as the conformance harness's shrunk counterexamples.

Marked ``incremental`` and deselected from tier-1; CI runs this as the
dedicated "Incremental view sweep" step.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import connect
from repro.datasets import generate_catalog

from tests.strategies import conformance_queries, generator_configs

pytestmark = pytest.mark.incremental

#: The execution matrix every case runs under: re-execution backend x planner.
CONFIGURATIONS = (
    ("memory", True),
    ("memory", False),
    ("sqlite", True),
    ("sqlite", False),
)


# -- delta-stream strategies -------------------------------------------------------------


def _delta_rows(domain_size: int):
    """Rows insertable into either base relation (R and S share the shape).

    The value universe matches the generator's (``k*`` keys, ``g*``
    categories, small ints) so inserted rows join/group with generated ones;
    NULL data values, NULL endpoints and degenerate intervals are all
    reachable, mirroring the adversarial shapes of the conformance sweep.
    """
    key = st.sampled_from(["k0", "k1", "k2"])
    cat = st.sampled_from(["g0", "g1", "g2", None])
    val = st.sampled_from([0, 1, 2, 3, None])
    begin = st.integers(0, max(0, domain_size - 1))
    length = st.integers(0, domain_size)  # 0 => degenerate interval
    endpoint_null = st.sampled_from((False, False, False, True))

    def build(parts):
        k, c, v, b, n, null_end = parts
        end = min(domain_size, b + n)
        return (k, c, v, b, None if null_end else end)

    return st.tuples(key, cat, val, begin, length, endpoint_null).map(build)


def delta_streams(domain_size: int = 16, max_steps: int = 5):
    """Abstract delta steps: ``("insert", name, rows)`` / ``("delete", name, picks)``.

    Deletes carry *indices*, concretized against the evolving reference bag
    at replay time (see :func:`_concretize_delete`), so every generated
    stream is valid bag DML regardless of what the catalog held.
    """
    name = st.sampled_from(["R", "S"])
    insert = st.tuples(
        st.just("insert"),
        name,
        st.lists(_delta_rows(domain_size), min_size=1, max_size=3),
    )
    delete = st.tuples(
        st.just("delete"),
        name,
        st.lists(st.integers(0, 255), min_size=1, max_size=3),
    )
    return st.lists(st.one_of(insert, delete), min_size=1, max_size=max_steps)


def _concretize_delete(reference_rows, picks):
    """Turn abstract delete indices into concrete rows present in the bag.

    Distinct *positions* are selected (index modulo the current size), so a
    row value is requested at most as many times as copies exist -- always a
    valid bag delete.  Returns the picked rows and removes them from the
    reference list in place.
    """
    if not reference_rows:
        return []
    positions = sorted({index % len(reference_rows) for index in picks}, reverse=True)
    picked = [reference_rows[position] for position in positions]
    for position in positions:
        del reference_rows[position]
    return picked


# -- the differential sweep --------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    config=generator_configs(max_rows=6),
    query=conformance_queries(),
    stream=delta_streams(),
)
def test_view_bag_equals_full_reexecution_at_every_step(config, query, stream):
    """After every delta, view == full re-execution, in all four configurations."""
    sessions, views = [], []
    try:
        for backend, planner in CONFIGURATIONS:
            session = connect(
                domain=config.domain,
                database=generate_catalog(config),
                backend=backend,
                planner=planner,
            )
            sessions.append(session)
            views.append(session.materialize(session.query(query), name="V"))

        # The reference bag replays the stream once; all four catalogs start
        # identical (generator determinism), so the concrete DML is shared.
        reference = {
            name: list(sessions[0].database.table(name).rows) for name in ("R", "S")
        }

        for step_index, (kind, name, payload) in enumerate(stream):
            if kind == "insert":
                rows = payload
                reference[name].extend(rows)
                for session in sessions:
                    session.insert(name, rows)
            else:
                rows = _concretize_delete(reference[name], payload)
                if not rows:
                    continue
                for session in sessions:
                    session.delete(name, rows)

            for (backend, planner), view in zip(CONFIGURATIONS, views):
                assert view.verify(), (
                    f"step {step_index} ({kind} {len(rows)} rows into {name}): "
                    f"view diverged from full re-execution on "
                    f"backend={backend!r} planner={planner}\n{view.explain()}"
                )
            baseline = Counter(views[0].rows())
            for (backend, planner), view in zip(CONFIGURATIONS[1:], views[1:]):
                assert Counter(view.rows()) == baseline, (
                    f"step {step_index}: view contents differ between "
                    f"configurations {CONFIGURATIONS[0]} and "
                    f"({backend!r}, {planner})"
                )
    finally:
        for session in sessions:
            session.close()


@settings(max_examples=15, deadline=None)
@given(
    config=generator_configs(max_rows=5),
    query=conformance_queries(),
    stream=delta_streams(max_steps=3),
)
def test_detached_deltas_match_catalog_dml(config, query, stream):
    """``view.apply(Delta(...))`` lands exactly where catalog DML would.

    One session feeds the view through catalog ``insert``/``delete`` (the
    observer path); a twin session applies the *same* signed batches through
    the detached ``apply`` entry point.  The two views must stay bag-equal
    at every step -- the transport must not change the semantics.  Deltas
    against relations the plan never reads are a catalog no-op but a
    detached-``apply`` error (the caller named a relation the view cannot
    use); both behaviours are pinned here.
    """
    from repro import Delta, IncrementalError

    catalog_fed = connect(domain=config.domain, database=generate_catalog(config))
    detached = connect(domain=config.domain, database=generate_catalog(config))
    try:
        view_dml = catalog_fed.materialize(catalog_fed.query(query), name="V")
        view_apply = detached.materialize(detached.query(query), name="V")
        reference = {
            name: list(catalog_fed.database.table(name).rows) for name in ("R", "S")
        }
        for kind, name, payload in stream:
            if kind == "insert":
                rows = payload
                reference[name].extend(rows)
                catalog_fed.insert(name, rows)
                delta = Delta.inserts(name, rows)
            else:
                rows = _concretize_delete(reference[name], payload)
                if not rows:
                    continue
                catalog_fed.delete(name, rows)
                delta = Delta.deletes(name, rows)
            if name in view_apply.base_relations:
                view_apply.apply([delta])
            else:
                with pytest.raises(IncrementalError):
                    view_apply.apply([delta])
            assert Counter(view_apply.rows()) == Counter(view_dml.rows())
            assert view_dml.verify()
    finally:
        catalog_fed.close()
        detached.close()
