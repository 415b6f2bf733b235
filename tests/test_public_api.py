"""Integration tests for the package-level public API and the README quickstart."""

import importlib

import pytest

import repro
from repro import (
    Database,
    KRelation,
    PeriodDatabase,
    PeriodKRelation,
    PeriodSemiring,
    SnapshotMiddleware,
    Table,
    TemporalElement,
    TimeDomain,
)


#: The pinned package-level API surface.  A failure here means an export was
#: added or removed: if intentional, update this snapshot *in the same PR*
#: (it is the contract the README/quickstart and downstream users code
#: against); if not, the import graph changed by accident.
EXPECTED_REPRO_EXPORTS = {
    "__version__",
    # fluent session API (canonical front door)
    "connect",
    "Session",
    "SessionProtocol",
    "RemoteSession",
    "QueryServer",
    "TemporalRelation",
    "GroupedRelation",
    "FluentError",
    "parse_expression",
    # temporal foundations
    "TimeDomain",
    "Interval",
    "TemporalElement",
    "PeriodSemiring",
    "Semiring",
    "BOOLEAN",
    "NATURAL",
    # abstract model (oracle)
    "KRelation",
    "SnapshotKRelation",
    "SnapshotDatabase",
    "evaluate_snapshot_query",
    # logical model
    "PeriodKRelation",
    "PeriodDatabase",
    "evaluate_period_query",
    # implementation level
    "SnapshotMiddleware",
    "Database",
    "Table",
    "ExecutionBackend",
    "InMemoryBackend",
    "SQLiteBackend",
    "available_backends",
    "resolve_backend",
    # fault tolerance (error taxonomy, policies, fault injection)
    "ReproError",
    "ParseError",
    "PlanError",
    "BackendError",
    "BackendUnavailableError",
    "ProtocolError",
    "QueryTimeoutError",
    "ResourceLimitError",
    "ExecutionPolicy",
    "FaultSchedule",
    "FaultInjectingBackend",
    # incremental view maintenance
    "IncrementalError",
    "Delta",
    "MaterializedView",
    # conformance
    "ConformanceError",
    "ConformanceReport",
    "Counterexample",
    "assert_conformant",
    "check_conformance",
}

EXPECTED_API_EXPORTS = {
    "connect",
    "Session",
    "SessionProtocol",
    "TemporalRelation",
    "GroupedRelation",
    "FluentError",
    "ExpressionSyntaxError",
    "parse_expression",
    "as_expression",
}


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_package_surface_snapshot(self):
        """Accidental export changes must fail loudly (see the note above)."""
        assert set(repro.__all__) == EXPECTED_REPRO_EXPORTS
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_api_surface_snapshot(self):
        api = importlib.import_module("repro.api")
        assert set(api.__all__) == EXPECTED_API_EXPORTS
        for name in api.__all__:
            assert hasattr(api, name), f"repro.api.{name}"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.semirings",
            "repro.temporal",
            "repro.abstract_model",
            "repro.logical_model",
            "repro.algebra",
            "repro.engine",
            "repro.backends",
            "repro.rewriter",
            "repro.api",
            "repro.server",
            "repro.client",
            "repro.incremental",
            "repro.baselines",
            "repro.conformance",
            "repro.datasets",
            "repro.experiments",
            "repro.stats",
        ],
    )
    def test_subpackage_exports_resolve(self, module):
        imported = importlib.import_module(module)
        for name in imported.__all__:
            assert hasattr(imported, name), f"{module}.{name}"

    def test_execution_module_stays_below_rewriter_and_backends(self):
        """The module that broke the ``rewriter -> backends -> rewriter`` cycle.

        ``repro.execution`` must never grow a *module-level* import of the
        layers above it (function-local imports for lazy registration are
        fine) -- that is the invariant that lets the middleware and the
        fluent API import the backend contract without ``TYPE_CHECKING``
        guards.  Checked statically so a regression fails here, not as an
        ImportError at some unlucky caller.
        """
        import ast
        import pathlib

        source = pathlib.Path(repro.execution.__file__).read_text()
        for node in ast.parse(source).body:
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                assert "rewriter" not in module and "backends" not in module, (
                    f"repro.execution imports {module!r} at module level"
                )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    assert "rewriter" not in alias.name
                    assert "backends" not in alias.name

    def test_middleware_imports_the_backend_contract_at_runtime(self):
        """No TYPE_CHECKING guard: the protocol is a real runtime import."""
        from repro.execution import ExecutionBackend
        from repro.rewriter import middleware

        assert middleware.ExecutionBackend is ExecutionBackend


class TestReadmeQuickstart:
    def test_quickstart_snippet(self):
        from repro.algebra import (
            AggregateSpec,
            Aggregation,
            Comparison,
            RelationAccess,
            Selection,
            attr,
            lit,
        )

        middleware = SnapshotMiddleware(TimeDomain(0, 24))
        middleware.load_table(
            "works",
            ["name", "skill"],
            [
                ("Ann", "SP", 3, 10),
                ("Joe", "NS", 8, 16),
                ("Sam", "SP", 8, 16),
                ("Ann", "SP", 18, 20),
            ],
        )
        onduty = Aggregation(
            Selection(RelationAccess("works"), Comparison("=", attr("skill"), lit("SP"))),
            (),
            (AggregateSpec("count", None, "cnt"),),
        )
        table = middleware.execute(onduty)
        assert (0, 0, 3) in table.rows
        assert (2, 8, 10) in table.rows
        assert "cnt" in table.pretty()


class TestCrossLayerIntegration:
    def test_same_query_through_all_three_levels(self):
        """Abstract, logical and implementation level agree on one query."""
        from repro.abstract_model import evaluate_snapshot_query
        from repro.algebra import Projection, RelationAccess
        from repro.logical_model import evaluate_period_query
        from repro.semirings import NATURAL

        domain = TimeDomain(0, 12)
        facts = [(("a", 1), 0, 6, 1), (("a", 1), 4, 9, 1), (("b", 2), 2, 5, 1)]

        # logical model
        logical_db = PeriodDatabase(NATURAL, domain)
        logical_db.create_relation("r", ("cat", "val"), facts)
        query = Projection.of_attributes(RelationAccess("r"), "cat")
        logical = evaluate_period_query(query, logical_db)

        # abstract model (oracle)
        oracle = evaluate_snapshot_query(query, logical_db.to_snapshot_database())
        assert PeriodKRelation.encode(logical_db.period_semiring, oracle) == logical

        # implementation level
        middleware = SnapshotMiddleware(domain)
        middleware.load_period_relation("r", logical_db.relation("r"))
        assert middleware.execute_decoded(query) == logical

    def test_engine_objects_usable_directly(self):
        database = Database()
        table = Table("t", ("x", "t_begin", "t_end"), [(1, 0, 5)])
        database.register(table, period=("t_begin", "t_end"))
        assert database.table("t").rows == [(1, 0, 5)]

    def test_temporal_element_round_trip_through_krelation(self):
        domain = TimeDomain(0, 10)
        semiring = PeriodSemiring(repro.NATURAL, domain)
        element = semiring.element({})
        assert isinstance(element, TemporalElement)
        relation = KRelation(repro.NATURAL, ("x",), {(1,): 2})
        assert relation.annotation((1,)) == 2
