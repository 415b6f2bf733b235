"""Plan execution over multiset tables (the non-temporal query engine).

This is the substrate standing in for PostgreSQL/DBX/DBY in the paper's
experiments: a bag-semantics engine for the logical algebra of
:mod:`repro.algebra.operators`.  The rewriting middleware
(:mod:`repro.rewriter`) produces ordinary plans plus *physical extension
operators* (coalesce, split, fused temporal aggregation); those subclass
:class:`PhysicalOperator` and are executed through the extension hook,
mirroring how the real middleware emits plain SQL containing
window-function subqueries.

:func:`execute` is the single entry point.  In-memory plans run on the
columnar batch engine of :mod:`repro.engine.batch`; any other registered
backend (SQLite above all) receives the plan through
:mod:`repro.backends`.  This module holds what both the engine and its
callers share: the :class:`ExecutionContext` carried through a run, the
:class:`PhysicalOperator` hook and :class:`ExecutorError`.

The join strategy chosen per join is reported through the statistics
mapping under ``join_strategy.interval`` / ``join_strategy.hash`` /
``join_strategy.nested_loop`` (plus the historical ``hash_joins`` /
``nested_loop_joins`` / ``interval_joins`` aliases).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence

if TYPE_CHECKING:  # avoids the runtime import cycle engine -> backends -> engine
    from ..backends.base import ExecutionBackend
    from ..execution import Deadline, QueryLimits
    from .batch import ColumnarBatch

from ..errors import ResourceLimitError
from ..algebra.operators import AlgebraError, Operator
from .catalog import Database
from .table import Table

__all__ = ["ExecutionContext", "PhysicalOperator", "execute", "ExecutorError"]


class ExecutorError(AlgebraError):
    """Raised when a plan cannot be executed."""


@dataclass
class ExecutionContext:
    """Carries the catalog and execution statistics through a plan run.

    ``statistics`` is kept as a :class:`collections.Counter` internally so
    counting is a single ``+=`` without per-call ``dict.get`` probing; a
    plain mapping passed to the constructor is coerced (its entries are
    seeded into the counter).  :func:`execute` folds the counts back into
    whatever mapping the caller supplied.
    """

    database: Database
    statistics: Counter | None = None
    #: Allow the sort-merge interval join; ``False`` forces the historical
    #: hash/nested-loop strategies (used by differential tests and the
    #: overlap-join microbenchmark baseline).
    interval_join: bool = True
    #: Process count for the partitioned interval join; ``None`` or ``1``
    #: keeps it serial.
    parallel_workers: Optional[int] = None
    #: Minimum combined join input size (rows) before the worker pool is
    #: worth its startup cost.  The default is the historical constant;
    #: the pipeline overrides it with the stats-driven estimate of
    #: :func:`repro.planner.cost.parallel_engage_threshold` once the
    #: referenced tables have been analyzed.
    parallel_threshold: int = 4096
    #: Per-node execution observations keyed by ``id(plan node)``:
    #: ``actual_rows`` for every node, plus ``join_strategy`` on joins.
    #: ``None`` (the default) disables recording; ``explain()`` passes a
    #: dict here to line actuals up against the cost model's estimates.
    observations: Optional[Dict[int, Dict[str, Any]]] = None
    #: Cooperative fault-tolerance limits (see :class:`repro.execution
    #: .ExecutionPolicy`): a wall-clock :class:`~repro.execution.Deadline`
    #: polled inside operator and sweep loops, and a per-operator output-row
    #: budget bounding runaway plans.
    deadline: "Optional[Deadline]" = None
    row_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.statistics is not None and not isinstance(self.statistics, Counter):
            self.statistics = Counter(self.statistics)
        # Precomputed so the unlimited (default) checkpoint is one branch.
        self._limited = self.deadline is not None or self.row_budget is not None

    def count(self, key: str, amount: int = 1) -> None:
        if self.statistics is not None:
            self.statistics[key] += amount

    def checkpoint(self, produced: int = 0) -> None:
        """Cooperative limit check, called from operator and sweep loops.

        ``produced`` is the number of rows the current operator has emitted
        so far; exceeding the row budget raises
        :class:`~repro.errors.ResourceLimitError`, an expired deadline
        raises :class:`~repro.errors.QueryTimeoutError` (amortised through
        :meth:`~repro.execution.Deadline.poll`).
        """
        if not self._limited:
            return
        if self.deadline is not None:
            self.deadline.poll()
        if self.row_budget is not None and produced > self.row_budget:
            raise ResourceLimitError(
                f"operator produced {produced} rows, exceeding the "
                f"{self.row_budget}-row budget"
            )


class PhysicalOperator(Operator):
    """Extension hook: an operator that executes itself over child batches.

    The snapshot middleware adds coalesce, split and the fused temporal
    aggregation this way; custom temporal operators (e.g. a native interval
    merge join) could be slotted in the same way, which is the integration
    path Section 10.5 of the paper sketches.
    """

    def execute_batch(
        self, children: Sequence["ColumnarBatch"], context: ExecutionContext
    ) -> "ColumnarBatch":
        """Evaluate the operator over its evaluated children."""
        raise NotImplementedError


def execute(
    plan: Operator,
    database: Database,
    statistics: Dict[str, int] | None = None,
    backend: "str | ExecutionBackend | None" = None,
    interval_join: bool = True,
    limits: "Optional[QueryLimits]" = None,
    parallel_workers: Optional[int] = None,
    parallel_threshold: Optional[int] = None,
    observations: Optional[Dict[int, Dict[str, Any]]] = None,
) -> Table:
    """Execute a logical plan against the catalog and return a result table.

    ``backend`` selects the execution host: ``None`` (or ``"memory"``) runs
    the in-process columnar engine (:mod:`repro.engine.batch`); any other
    registered backend name -- or an
    :class:`~repro.backends.ExecutionBackend` instance, e.g. a session
    :class:`~repro.backends.SQLiteBackend` reusing one connection -- routes
    the plan through :mod:`repro.backends` instead.  ``interval_join=False``
    disables the sort-merge interval join (in-memory engine only), forcing
    the nested-loop/hash fallback for overlap predicates.  ``limits``
    carries a per-execution deadline and row budget (see
    :class:`repro.execution.QueryLimits`), enforced cooperatively inside
    the operator loops.  ``parallel_workers`` sizes the partitioned-join
    pool and ``parallel_threshold`` overrides its engage threshold (the
    cost planner derives it from table statistics; ``None`` keeps the
    4096-row constant).  ``observations`` -- when a dict is passed --
    collects per-node ``actual_rows`` / ``join_strategy`` readouts for
    ``explain()`` (in-memory engine only).
    """
    if backend is not None and backend != "memory":
        from ..backends.base import resolve_backend
        from ..execution import backend_accepts_limits

        resolved = resolve_backend(backend)
        if limits is None:
            return resolved.execute(plan, database, statistics)
        if backend_accepts_limits(resolved):
            return resolved.execute(plan, database, statistics, limits=limits)
        return limits.enforce_result(resolved.execute(plan, database, statistics))
    counter = None if statistics is None else Counter()
    context = ExecutionContext(
        database=database,
        statistics=counter,
        interval_join=interval_join,
        deadline=limits.deadline if limits is not None else None,
        row_budget=limits.row_budget if limits is not None else None,
        parallel_workers=parallel_workers,
        observations=observations,
    )
    if parallel_threshold is not None:
        context.parallel_threshold = parallel_threshold
    try:
        return execute_batch_plan(plan, context)
    finally:
        # Fold counts back even when a plan raises mid-execution, so the
        # caller keeps the partial statistics of the stages that did run.
        if statistics is not None:
            for key, amount in counter.items():
                statistics[key] = statistics.get(key, 0) + amount


# The engine module imports the context and hook defined above, so it is
# bound last; the package __init__ always imports this module first.
from .batch import execute_batch_plan  # noqa: E402
