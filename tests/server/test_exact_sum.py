"""A served read's value sum is exact, and is taken outside the lock.

A column holding three values of ``2**62`` beside two small ones sums
past the int64 range over ``[1, 2**63 - 1]``: numpy's int64 sum wraps
to ``-4611686018427387899``, the exact sum is ``13835058055282163717``.
The live read, the pinned-snapshot read and the wire carry the exact
one (JSON has no integer limit).  The result digest and the sum are
computed after the request lock is released; a patched digest checks
that from a second thread, without any timing.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig
from repro.server import DatabaseManager, QueryServer, ServerClient
from repro.server import session as session_module
from repro.vm.constants import MAX_VALUE

BIG = np.array([1, 2**62, 2**62, 2**62, 4], dtype=np.int64)
EXACT = 3 * 2**62 + 5


@pytest.fixture
def manager():
    with DatabaseManager() as mgr:
        db = mgr.create_database(config=AdaptiveConfig(background_mapping=False))
        db.create_table("t", {"x": BIG})
        yield mgr


def test_the_wrapped_sum_is_what_numpy_gives():
    assert int(BIG[BIG >= 1].sum()) == EXACT - 2**64 == -4611686018427387899


def test_live_read_sums_exactly(manager):
    with manager.open_session() as session:
        response = session.query("t", "x", 1, MAX_VALUE)
    assert response.ok
    assert response.data["rows"] == 5
    assert response.data["value_sum"] == EXACT


def test_pinned_read_sums_exactly(manager):
    with manager.open_session() as session:
        session.snapshot("t", "x").raise_for_error()
        response = session.query("t", "x", 1, MAX_VALUE)
    assert response.data["snapshot"] is True
    assert response.data["value_sum"] == EXACT


def test_wire_read_sums_exactly(manager):
    with QueryServer(manager=manager) as server:
        host, port = server.address
        with ServerClient(host, port) as client:
            response = client.query("t", "x", 1, MAX_VALUE)
    assert response.ok
    assert response.data["value_sum"] == EXACT


@pytest.mark.parametrize("pinned", [False, True])
def test_digest_runs_outside_the_request_lock(manager, monkeypatch, pinned):
    """While the digest runs, another thread can take the lock."""
    lock = manager.lock()
    digest = session_module.result_digest
    acquired: list[bool] = []

    def probe(rowids, values):
        def try_lock():
            got = lock.acquire(blocking=False)
            if got:
                lock.release()
            acquired.append(got)

        thread = threading.Thread(target=try_lock)
        thread.start()
        thread.join()
        return digest(rowids, values)

    with manager.open_session() as session:
        if pinned:
            session.snapshot("t", "x").raise_for_error()
        monkeypatch.setattr(session_module, "result_digest", probe)
        response = session.query("t", "x", 1, MAX_VALUE)
    assert response.ok
    assert response.data["checksum"] == digest(np.arange(5), BIG)
    assert acquired == [True]
