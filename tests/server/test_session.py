"""Session layer: options, disciplines, the response envelope."""

import hashlib

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.server import (
    DatabaseManager,
    Response,
    SessionOptions,
    render_response,
    result_digest,
)
from repro.sql.parser import parse
from repro.vm.constants import VALUES_PER_PAGE

NUM_PAGES = 8
NUM_ROWS = NUM_PAGES * VALUES_PER_PAGE


def _values() -> np.ndarray:
    return np.arange(NUM_ROWS, dtype=np.int64)


@pytest.fixture
def manager():
    with DatabaseManager() as mgr:
        db = mgr.create_database(
            config=AdaptiveConfig(background_mapping=False)
        )
        db.create_table("t", {"x": _values()})
        yield mgr


class TestSessionOptions:
    def test_defaults(self):
        options = SessionOptions()
        assert options.read_only is False
        assert options.autocommit is True
        assert options.observe is True
        assert options.planner == "adaptive"

    def test_mapping_round_trip(self):
        options = SessionOptions(read_only=True, planner="fullscan")
        assert SessionOptions.from_mapping(options.to_mapping()) == options

    def test_from_mapping_accepts_none(self):
        assert SessionOptions.from_mapping(None) == SessionOptions()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown session option"):
            SessionOptions.from_mapping({"isolation": "serializable"})

    def test_bad_planner_rejected(self):
        with pytest.raises(ValueError, match="planner"):
            SessionOptions(planner="cost-based")

    def test_non_bool_flag_rejected(self):
        with pytest.raises(ValueError):
            SessionOptions(read_only="yes")


class TestStructuredOperations:
    def test_query_matches_numpy_oracle(self, manager):
        with manager.open_session() as session:
            lo, hi = 100, 4_000
            response = session.query("t", "x", lo, hi)
            assert response.ok
            expected_rows = np.arange(lo, hi + 1, dtype=np.int64)
            assert response.data["rows"] == expected_rows.size
            assert response.data["value_sum"] == int(expected_rows.sum())
            assert response.data["checksum"] == result_digest(
                expected_rows, expected_rows
            )
            assert response.data["snapshot"] is False
            assert response.data["degraded"] is False
            assert response.sim_ns > 0

    def test_include_values_ships_rows(self, manager):
        with manager.open_session() as session:
            response = session.query("t", "x", 5, 9, include_values=True)
            assert response.data["rowids"] == [5, 6, 7, 8, 9]
            assert response.data["values"] == [5, 6, 7, 8, 9]

    def test_autocommit_update_flushes_immediately(self, manager):
        db = manager.database()
        with manager.open_session() as session:
            response = session.update("t", "x", 3, 999_999)
            assert response.ok
            assert response.data == {"old_value": 3, "flushed": True}
            assert len(db.table("t").pending_updates("x")) == 0
            hit = session.query("t", "x", 999_999, 999_999)
            assert hit.data["rows"] == 1

    def test_batched_update_waits_for_commit(self, manager):
        db = manager.database()
        options = SessionOptions(autocommit=False)
        with manager.open_session(options=options) as session:
            response = session.update("t", "x", 3, 999_999)
            assert response.data["flushed"] is False
            assert len(db.table("t").pending_updates("x")) == 1
            commit = session.commit()
            assert commit.ok
            assert commit.data["columns_flushed"] == 1
            assert len(db.table("t").pending_updates("x")) == 0

    def test_flush_skips_clean_columns(self, manager):
        with manager.open_session() as session:
            response = session.flush("t")
            assert response.ok
            assert response.data["columns_flushed"] == 0

    def test_delete_tombstones_rows(self, manager):
        with manager.open_session() as session:
            response = session.delete("t", "x", 10, 19)
            assert response.data["deleted"] == 10
            gone = session.query("t", "x", 10, 19)
            assert gone.data["rows"] == 0

    def test_sequence_and_session_id_stamped(self, manager):
        with manager.open_session() as session:
            first = session.query("t", "x", 0, 1)
            second = session.status()
            assert first.session_id == session.session_id
            assert (first.sequence, second.sequence) == (1, 2)

    def test_status_reports_settings(self, manager):
        with manager.open_session() as session:
            session.query("t", "x", 0, 100)
            status = session.status()
            assert status.data["db"] == "default"
            assert status.data["health"] == "healthy"
            assert status.data["degraded"] is False
            assert status.data["admission"]["active"] == 1
            assert status.data["ledger_ns"] > 0
            assert status.data["pinned_snapshots"] == []
            # status itself is envelope work: uncharged.
            assert status.sim_ns == 0


class TestSql:
    def test_sql_round_trip(self, manager):
        with manager.open_session() as session:
            session.execute("CREATE TABLE s (k, v)").raise_for_error()
            rows = ", ".join(f"({i}, {i * 10})" for i in range(50))
            session.execute(f"INSERT INTO s VALUES {rows}").raise_for_error()
            result = session.execute(
                "SELECT COUNT(*) FROM s WHERE k BETWEEN 10 AND 19"
            )
            assert result.ok
            assert result.scalar() == 10

    def test_statement_is_parsed_once(self, manager, monkeypatch):
        from repro.server import session as server_session
        from repro.sql import executor

        parsed = []

        def counting_parse(text):
            parsed.append(text)
            return parse(text)

        monkeypatch.setattr(server_session, "parse", counting_parse)
        monkeypatch.setattr(executor, "parse", counting_parse)
        sql = "SELECT COUNT(*) FROM t WHERE x BETWEEN 10 AND 19"
        with manager.open_session() as session:
            assert session.execute(sql).scalar() == 10
        assert parsed == [sql]

    def test_autocommit_sql_update_flushes(self, manager):
        with manager.open_session() as session:
            session.execute("CREATE TABLE s (k, v)")
            rows = ", ".join(f"({i}, {i})" for i in range(50))
            session.execute(f"INSERT INTO s VALUES {rows}")
            session.execute(
                "UPDATE s SET v = 777 WHERE k = 5"
            ).raise_for_error()
            assert len(
                manager.database().table("s").pending_updates("v")
            ) == 0

    def test_sql_error_renders_like_the_repl(self, manager):
        with manager.open_session() as session:
            response = session.execute("SELECT FROM")
            assert not response.ok
            assert response.error
            lines = []
            render_response(response, emit=lines.append)
            assert lines == [f"error: {response.error}"]


class TestReadOnly:
    @pytest.fixture
    def session(self, manager):
        options = SessionOptions(read_only=True)
        with manager.open_session(options=options) as sess:
            yield sess

    def test_reads_allowed(self, session):
        assert session.query("t", "x", 0, 10).ok
        assert session.status().ok

    def test_structured_writes_rejected(self, session):
        for response in (
            session.update("t", "x", 0, 1),
            session.delete("t", "x", 0, 1),
            session.flush("t"),
            session.commit(),
        ):
            assert not response.ok
            assert response.error == "session is read-only"
            assert response.error_details == "ReadOnlySession"

    def test_sql_writes_rejected_before_execution(self, session):
        response = session.execute("CREATE TABLE s (k)")
        assert not response.ok
        assert response.error_details == "ReadOnlySession"
        assert session.execute("SELECT * FROM t WHERE x = 1").ok


class TestErrors:
    def test_unknown_table_is_an_error_response(self, manager):
        with manager.open_session() as session:
            response = session.query("ghost", "x", 0, 1)
            assert not response.ok
            assert "ghost" in response.error
            with pytest.raises(RuntimeError):
                response.raise_for_error()

    def test_closed_session_refuses_requests(self, manager):
        session = manager.open_session()
        session.close()
        response = session.query("t", "x", 0, 1)
        assert not response.ok
        assert response.error_details == "SessionClosed"

    def test_close_is_idempotent_and_releases_slot(self, manager):
        session = manager.open_session()
        session.close()
        session.close()
        assert manager.admission().active_sessions == 0

    def test_scalar_requires_1x1(self):
        response = Response(columns=["a", "b"], rows=[(1, 2)])
        with pytest.raises(ValueError):
            response.scalar()


class TestRenderResponse:
    def test_tabular_render(self):
        response = Response(columns=["k"], rows=[(1,), (2,)])
        lines = []
        render_response(response, emit=lines.append)
        assert lines[-1] == "(2 rows)"
        assert "k" in lines[0]

    def test_message_render(self):
        lines = []
        render_response(Response(message="1 row updated"), emit=lines.append)
        assert lines == ["1 row updated"]

    def test_silent_on_empty_success(self):
        lines = []
        render_response(Response(), emit=lines.append)
        assert lines == []


class TestResultDigest:
    @staticmethod
    def _sorted_copy_digest(rowids, values) -> str:
        """The digest's definition: blake2b over the bytes of the rowids
        sorted, then of the values in that order."""
        order = np.argsort(rowids, kind="stable")
        digest = hashlib.blake2b(digest_size=16)
        digest.update(np.asarray(rowids, dtype=np.int64)[order].tobytes())
        digest.update(np.asarray(values, dtype=np.int64)[order].tobytes())
        return digest.hexdigest()

    def test_permuted_result_digests_like_its_sorted_twin(self):
        rng = np.random.default_rng(0)
        rowids = np.flatnonzero(rng.random(5_000) < 0.3)
        values = rng.integers(-(2**62), 2**62, size=rowids.size)
        order = rng.permutation(rowids.size)
        want = self._sorted_copy_digest(rowids, values)
        assert result_digest(rowids, values) == want
        assert result_digest(rowids[order], values[order]) == want
        # Neither a strided view nor a plain list changes the bytes hashed.
        assert result_digest(np.stack([rowids, rowids], 1)[:, 0], values.tolist()) == want
        assert result_digest(rowids[:1], values[:1]) != want

    def test_repeated_rowids_keep_their_order(self):
        rowids, values = np.array([4, 2, 4, 2]), np.array([1, 2, 3, 4])
        assert result_digest(rowids, values) == self._sorted_copy_digest(rowids, values)

    @pytest.mark.parametrize("size", [0, 1, 1_000])
    def test_ascending_input_is_never_sorted(self, size, monkeypatch):
        rowids = np.arange(size, dtype=np.int64) * 3
        values = rowids[::-1].copy()
        want = self._sorted_copy_digest(rowids, values)

        def no_sort(*args, **kwargs):
            raise AssertionError("argsort called on ascending rowids")

        monkeypatch.setattr(np, "argsort", no_sort)
        assert result_digest(rowids, values) == want
