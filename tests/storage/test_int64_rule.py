"""One rule for every value a column takes: an integer int64 holds exactly.

``create_table`` used to cast its arrays to int64 unchecked (a uint64
``2**64 - 1`` stored as ``-1``, floats truncated, a Python int of
``2**63`` escaped as an ``OverflowError``) and ``insert`` truncated
floats through ``int()``.  Both facades' ``create_table`` and ``insert``
now refuse such a value with a :class:`ValueError` naming the column,
and create or stage nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.facade import AdaptiveDatabase
from repro.shard import ShardedDatabase
from repro.storage import layout

REFUSED = {
    "uint64 past int64": np.array([2**64 - 1, 5], dtype=np.uint64),
    "float array": np.array([1.7, 2.2]),
    "integral floats": np.array([1.0, 2.0]),
    "python int of 2**63": [2**63, 1],
    "python ints past uint64": [2**70, 1],
    "mixed-sign python ints numpy widens to float": [-1, 2**64 - 1],
    "a float among ints": [1, 2.5],
    "strings": np.array(["1", "2"]),
}
ACCEPTED = {
    "int32": np.array([-3, 7], dtype=np.int32),
    "uint64 within int64": np.array([2**63 - 1, 0], dtype=np.uint64),
    "python ints at the bounds": [-(2**63), 2**63 - 1],
    "bools": np.array([True, False]),
}


@pytest.mark.parametrize("values", REFUSED.values(), ids=REFUSED.keys())
def test_create_table_refuses_what_int64_cannot_hold(values):
    db = AdaptiveDatabase()
    with pytest.raises(ValueError, match=r"column 'u\.v'"):
        db.create_table("u", {"k": np.arange(2), "v": values})
    assert db.table_names() == []
    assert db.substrate.files() == []  # no column was created
    db.create_table("u", {"k": np.arange(2), "v": np.arange(2)})  # name still free
    db.close()


@pytest.mark.parametrize("values", REFUSED.values(), ids=REFUSED.keys())
def test_sharded_create_table_refuses_what_int64_cannot_hold(values):
    with ShardedDatabase(shards=2) as db:
        with pytest.raises(ValueError, match=r"column 'u\.v'"):
            db.create_table("u", {"v": values})
        assert db.table_names() == []


@pytest.mark.parametrize("values", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_create_table_stores_every_integer_int64_holds(values):
    want = [int(value) for value in values]
    db = AdaptiveDatabase()
    db.create_table("u", {"v": values})
    assert db.table("u").column("v").values().tolist() == want
    db.close()
    with ShardedDatabase(shards=1) as sharded:
        sharded.create_table("u", {"v": values})
        assert sorted(sharded.query("u", "v", -(2**63), 2**63 - 1).values.tolist()) == (
            sorted(want)
        )


@pytest.mark.parametrize("value", [1.7, 2.0, 2**63, -(2**63) - 1, "3", None])
def test_insert_refuses_what_int64_cannot_hold(tmp_path, value):
    db = AdaptiveDatabase(durable_dir=str(tmp_path))
    db.create_table("u", {"k": np.arange(2), "v": np.arange(2)})
    lsn = db.wal_status()["lsn"]
    with pytest.raises(ValueError, match="column 'v'"):
        db.insert("u", {"k": 5, "v": value})
    assert db.wal_status()["lsn"] == lsn
    assert db.flush_inserts("u")["merged_rows"] == 0
    db.close()


def test_insert_takes_numpy_integers_and_bools():
    db = AdaptiveDatabase()
    db.create_table("u", {"k": np.arange(2), "v": np.arange(2)})
    db.insert("u", {"k": np.int32(7), "v": True})
    db.insert_rows("u", [(np.uint64(2**63 - 1), np.int64(-1))])
    db.flush_inserts("u")
    assert db.table("u").get_record(2) == (7, 1)
    assert db.table("u").get_record(3) == (2**63 - 1, -1)
    db.close()


def test_a_durable_create_refused_by_the_rule_journals_nothing(tmp_path):
    db = AdaptiveDatabase(durable_dir=str(tmp_path))
    with pytest.raises(ValueError, match=r"column 'u\.v'"):
        db.create_table("u", {"v": np.array([0.5])})
    assert db.wal_status()["lsn"] == 0
    db.close()


def test_an_int64_array_passes_unconverted():
    values = np.arange(10)
    assert layout.int64_values(values, "c") is values
