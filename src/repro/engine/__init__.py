"""Multiset engine substrate: tables, catalog, the columnar batch engine, window functions.

:func:`execute` is the single entry point; in-memory plans run on the
columnar batch engine of :mod:`repro.engine.batch`.
"""

from ..planner import optimize
from .catalog import DEFAULT_PERIOD, Database
from .executor import ExecutionContext, ExecutorError, PhysicalOperator, execute
from .table import Table, TableError
from .window import (
    WindowSpec,
    apply_window,
    lag,
    lead,
    partition_rows,
    row_number,
    running_sum,
    sum_over_partition,
)

__all__ = [
    "Table",
    "TableError",
    "Database",
    "DEFAULT_PERIOD",
    "execute",
    "ExecutionContext",
    "ExecutorError",
    "PhysicalOperator",
    "optimize",
    "WindowSpec",
    "apply_window",
    "row_number",
    "lag",
    "lead",
    "running_sum",
    "sum_over_partition",
    "partition_rows",
]
