"""The in-memory execution backend plus re-exports of the host contract.

The :class:`~repro.execution.ExecutionBackend` protocol and the backend
registry live in :mod:`repro.execution` (below the rewriter, so the
middleware and the fluent API import them without cycles); this module
re-exports them for compatibility and contributes the default backend: the
in-memory columnar engine behind :func:`repro.engine.executor.execute`.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..algebra.operators import Operator
from ..engine.catalog import Database
from ..engine.table import Table
from ..execution import (
    BackendError,
    ExecutionBackend,
    QueryLimits,
    available_backends,
    register_backend,
    resolve_backend,
)

__all__ = [
    "BackendError",
    "ExecutionBackend",
    "InMemoryBackend",
    "register_backend",
    "resolve_backend",
    "available_backends",
]


class InMemoryBackend:
    """The default backend: the in-memory columnar engine (:mod:`repro.engine.batch`)."""

    name = "memory"

    def execute(
        self,
        plan: Operator,
        database: Database,
        statistics: Optional[Dict[str, int]] = None,
        limits: Optional[QueryLimits] = None,
    ) -> Table:
        from ..engine.executor import execute as engine_execute

        return engine_execute(plan, database, statistics, limits=limits)

    def __repr__(self) -> str:
        return "InMemoryBackend()"


register_backend(InMemoryBackend.name, InMemoryBackend)
