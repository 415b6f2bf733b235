"""Execution backends: hosts that run the engine's logical plans.

The middleware's rewritten queries are ordinary multiset queries; anything
that can execute those over the PERIODENC tables can serve as the host
DBMS.  ``"memory"`` is the in-process engine of :mod:`repro.engine`,
``"sqlite"`` compiles plans to SQL (window functions included) and runs
them on :mod:`sqlite3`.  Select one wherever a ``backend=`` parameter is
accepted (:func:`repro.engine.executor.execute`,
:class:`repro.rewriter.middleware.SnapshotMiddleware`, the experiment
drivers), by name or as an instance.
"""

from .base import (
    BackendError,
    ExecutionBackend,
    InMemoryBackend,
    available_backends,
    register_backend,
    resolve_backend,
)
from .sqlcompile import CompiledQuery, SQLCompiler, compile_plan
from .sqlite import SQLiteBackend

__all__ = [
    "BackendError",
    "ExecutionBackend",
    "InMemoryBackend",
    "SQLiteBackend",
    "CompiledQuery",
    "SQLCompiler",
    "compile_plan",
    "available_backends",
    "register_backend",
    "resolve_backend",
]
