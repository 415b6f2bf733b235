"""connect() DSN parsing: memory://, sqlite:///, repro://, and the legacy shim."""

from __future__ import annotations

import sqlite3

import pytest

import repro
from repro import Session, SessionProtocol, TimeDomain, connect
from repro.api.relation import FluentError

ROWS = [(1, "a", 0, 5), (2, "b", 3, 9)]


class TestMemoryDsn:
    def test_domain_from_query_param(self):
        with connect("memory://?domain=0:24") as session:
            assert isinstance(session, Session)
            assert session.domain == TimeDomain(0, 24)

    def test_domain_from_keyword(self):
        with connect("memory://", domain=(2, 10)) as session:
            assert session.domain == TimeDomain(2, 10)

    def test_dsn_param_overrides_keyword(self):
        with connect("memory://?domain=0:8", domain=(0, 99)) as session:
            assert session.domain == TimeDomain(0, 8)

    def test_planner_and_cache_params(self):
        with connect("memory://?domain=0:8&planner=off&plan_cache=off") as session:
            assert session.planner is False
            assert not session.pipeline.caching

    def test_backend_param(self):
        with connect("memory://?domain=0:8&backend=sqlite") as session:
            assert session.backend == "sqlite"

    def test_missing_domain_raises(self):
        with pytest.raises(FluentError, match="needs a time domain"):
            connect("memory://")

    def test_unknown_param_raises(self):
        with pytest.raises(FluentError, match="unsupported"):
            connect("memory://?domain=0:8&compression=lz4")

    def test_executor_param_is_gone(self):
        # One in-memory engine: the former row/batch switch is now an
        # unknown parameter like any other, on the DSN and as a keyword.
        with pytest.raises(FluentError, match=r"unsupported memory:// DSN parameter.*executor"):
            connect("memory://?domain=0:8&executor=batch")
        with pytest.raises(TypeError):
            connect("memory://?domain=0:8", executor="batch")

    def test_malformed_domain_raises(self):
        with pytest.raises(FluentError, match="lo:hi"):
            connect("memory://?domain=eight")

    def test_malformed_bool_raises(self):
        with pytest.raises(FluentError, match="boolean"):
            connect("memory://?domain=0:8&planner=maybe")


class TestSqliteDsn:
    def test_file_backed_session_executes_and_persists(self, tmp_path):
        path = tmp_path / "temporal.db"
        with connect(f"sqlite:///{path}?domain=0:12") as session:
            session.load("r", ["v", "tag"], ROWS)
            sqlite_rows = sorted(session.table("r").where("v >= 1").rows())
        with connect("memory://?domain=0:12") as memory:
            memory.load("r", ["v", "tag"], ROWS)
            assert sorted(memory.table("r").where("v >= 1").rows()) == sqlite_rows
        # Durability: the queried table lives in the file after close.
        with sqlite3.connect(path) as raw:
            stored = raw.execute("SELECT COUNT(*) FROM r").fetchone()[0]
        assert stored == len(ROWS)

    def test_close_closes_the_file_backend(self, tmp_path):
        session = connect(f"sqlite:///{tmp_path / 'x.db'}?domain=0:12")
        session.load("r", ["v", "tag"], ROWS)
        session.table("r").rows()
        session.close()
        session.close()  # idempotent
        from repro.errors import BackendUnavailableError

        with pytest.raises(BackendUnavailableError):
            session.table("r").rows()

    def test_missing_path_raises(self):
        with pytest.raises(FluentError, match="file path"):
            connect("sqlite://?domain=0:12")


class TestLegacyShim:
    """The pre-DSN keyword form keeps working (deprecated in the docstring)."""

    @pytest.mark.parametrize("domain", [(0, 24), 24, TimeDomain(0, 24)])
    def test_positional_domain_forms(self, domain):
        session = connect(domain)
        assert isinstance(session, Session)
        assert session.domain == TimeDomain(0, 24)

    def test_positional_domain_with_keywords(self):
        session = connect((0, 12), backend="sqlite", planner=False, plan_cache=False)
        assert session.backend == "sqlite"
        assert session.planner is False

    def test_domain_twice_raises(self):
        with pytest.raises(FluentError, match="once"):
            connect((0, 12), domain=(0, 24))

    def test_no_target_no_domain_raises(self):
        with pytest.raises(FluentError, match="connect needs a target"):
            connect()

    def test_unknown_scheme_raises(self):
        with pytest.raises(FluentError, match="unknown DSN scheme"):
            connect("postgres://localhost/db")

    def test_deprecation_is_documented_not_enforced(self):
        # Docstring-only deprecation: no warning is emitted at runtime.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            connect((0, 24))
        assert "deprecated" in connect.__doc__

    def test_every_transport_satisfies_the_protocol(self):
        assert isinstance(connect((0, 24)), SessionProtocol)
        assert issubclass(repro.RemoteSession, object)  # imported lazily below
        from repro.client import RemoteSession

        # Structural check: the protocol methods all exist on RemoteSession.
        for method in (
            "execute",
            "execute_decoded",
            "check",
            "explain_relation",
            "table",
            "load",
            "query",
            "close",
            "cache_info",
            "clear_plan_cache",
            "execution_info",
        ):
            assert callable(getattr(RemoteSession, method)), method
