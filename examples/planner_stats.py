"""The planner and the interval join, observable end to end.

Builds a temporal join over the running example (which workers are on a
machine that requires their skill, and when) as one fluent chain and uses
``TemporalRelation.explain()`` -- backed by the stable
``Operator.explain_tree()`` renderer -- to show the whole pipeline:

* the logical plan, the REWR plan, and the optimized plan (selection pushed
  to the base table, identity projections gone, the user's equality
  conjunct folded into the join predicate);
* the planner's own ``planner.*`` rule counters;
* the engine's ``join_strategy.*`` statistics: the REWR join carries the
  interval-overlap predicate, so with the planner's predicate normalisation
  the engine runs it as a sort-merge interval join instead of filtering a
  hash/nested-loop result.

Run from the repository root::

    PYTHONPATH=src python examples/planner_stats.py
"""

from repro import connect
from repro.datasets.running_example import ASSIGN_ROWS, TIME_DOMAIN, WORKS_ROWS


def main() -> None:
    session = connect(TIME_DOMAIN)
    works = session.load("works", ["name", "skill"], WORKS_ROWS)
    assign = session.load("assign", ["mach", "req_skill"], ASSIGN_ROWS)

    # Which specialised workers are on duty while some machine needs their
    # skill?  (A snapshot theta join: the rewriting adds the interval
    # overlap to the join predicate.)
    staffed = (
        works.join(assign, on="skill = req_skill")
        .select("name", "mach", "skill")
        .where("skill = 'SP'")
    )

    # The full pipeline with the planner off...
    session.planner = False
    print("pipeline (planner off):\n")
    print(staffed.explain())

    # ...and on: one rendering covers logical plan -> REWR -> planner rules
    # fired -> the join strategy the engine chose.
    session.planner = True
    print("\npipeline (planner on):\n")
    print(staffed.explain())

    print("\nresult:\n")
    print(staffed.pretty())

    # And the same plan, interval join disabled, to see the fallback counters.
    from repro.engine import execute

    plan = session.pipeline.rewrite(staffed.plan)
    fallback_statistics: dict = {}
    execute(plan, session.database, fallback_statistics, interval_join=False)
    print("\nwith interval_join=False the same plan reports:")
    for key, value in sorted(fallback_statistics.items()):
        if key.startswith("join_strategy."):
            print(f"  {key} = {value}")


if __name__ == "__main__":
    main()
