"""Unit tests for the cost model (parameters, ledger, lanes, regions).

Lanes hold whole picoseconds, so the order charges are booked in is not
part of the contract: :func:`test_any_order_and_any_thread_split_books_the_same_ledger`
requires a stream of helper calls — fractional value streams, jittered
backoff waits, sub-picosecond profiles — to leave ``==`` lanes and
counters under any permutation and any split across threads.  Knobs:
``REPRO_SEED`` seeds it and ``REPRO_FUZZ_SCHEDULES`` sets how many
streams it draws (default 200).
"""

import os
import threading
from collections import Counter

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.seeds import base_seed
from repro.vm.cost import (
    MAIN_LANE,
    MAPPER_LANE,
    PS_PER_NS,
    CostLedger,
    CostModel,
    CostParameters,
)

FUZZ_SCHEDULES = int(os.environ.get("REPRO_FUZZ_SCHEDULES", "200"))


class TestCostParameters:
    def test_defaults_are_positive(self):
        params = CostParameters()
        assert params.seq_value_read_ns > 0
        assert params.mmap_syscall_ns > params.mmap_per_page_ns

    def test_full_scan_calibration(self):
        """A 1M-page full scan must land near the paper's ~234 ms."""
        params = CostParameters()
        scan_ns = 1_000_000 * params.page_scan_ns(511)
        assert 150e6 <= scan_ns <= 350e6

    def test_page_scan_kind_ordering(self):
        params = CostParameters()
        seq = params.page_scan_ns(511, "seq")
        prefetched = params.page_scan_ns(511, "prefetched")
        random = params.page_scan_ns(511, "random")
        assert seq < prefetched < random

    def test_read_factor_unknown_kind(self):
        with pytest.raises(ValueError):
            CostParameters().read_factor("warp")

    def test_read_factor_seq_is_unity(self):
        assert CostParameters().read_factor("seq") == 1.0


class TestCostLedger:
    def test_charges_accumulate_per_lane(self):
        ledger = CostLedger()
        ledger.charge(10.0)
        ledger.charge(5.0, MAPPER_LANE)
        ledger.charge(2.5)
        assert ledger.lane_ns(MAIN_LANE) == pytest.approx(12.5)
        assert ledger.lane_ns(MAPPER_LANE) == pytest.approx(5.0)

    def test_unknown_lane_reads_zero(self):
        assert CostLedger().lane_ns("ghost") == 0.0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            CostLedger().charge(-1.0)

    def test_counters(self):
        ledger = CostLedger()
        ledger.count("x")
        ledger.count("x", 4)
        assert ledger.counter("x") == 5
        assert ledger.counter("missing") == 0
        assert ledger.counters() == {"x": 5}


class TestRegions:
    def test_region_captures_lane_deltas(self):
        cost = CostModel()
        cost.ledger.charge(100.0)
        with cost.region() as region:
            cost.ledger.charge(40.0)
            cost.ledger.charge(70.0, MAPPER_LANE)
        assert region.lane_ns(MAIN_LANE) == pytest.approx(40.0)
        assert region.lane_ns(MAPPER_LANE) == pytest.approx(70.0)

    def test_region_overlap_vs_serial(self):
        cost = CostModel()
        with cost.region() as region:
            cost.ledger.charge(40.0)
            cost.ledger.charge(70.0, MAPPER_LANE)
        assert region.elapsed_ns(overlap=True) == pytest.approx(70.0)
        assert region.elapsed_ns(overlap=False) == pytest.approx(110.0)

    def test_empty_region(self):
        cost = CostModel()
        with cost.region() as region:
            pass
        assert region.elapsed_ns() == 0.0

    def test_region_counter_deltas(self):
        cost = CostModel()
        cost.mmap_call(4)
        with cost.region() as region:
            cost.mmap_call(2)
            cost.mmap_call(3)
        assert region.counter_deltas["mmap_calls"] == 2
        assert region.counter_deltas["pages_mapped"] == 5

    def test_nested_regions(self):
        cost = CostModel()
        with cost.region() as outer:
            cost.ledger.charge(10.0)
            with cost.region() as inner:
                cost.ledger.charge(5.0)
        assert inner.lane_ns() == pytest.approx(5.0)
        assert outer.lane_ns() == pytest.approx(15.0)


class TestChargeHelpers:
    def test_sequential_values(self):
        cost = CostModel()
        cost.sequential_values(100)
        expected = 100 * cost.params.seq_value_read_ns
        assert cost.ledger.lane_ns() == pytest.approx(expected)
        assert cost.ledger.counter("values_scanned") == 100

    def test_stream_values_uses_factor(self):
        cost = CostModel()
        cost.stream_values(100, "random")
        expected = (
            100 * cost.params.seq_value_read_ns * cost.params.random_read_factor
        )
        assert cost.ledger.lane_ns() == pytest.approx(expected)

    def test_page_access_kinds(self):
        cost = CostModel()
        cost.page_access("seq", 2)
        cost.page_access("random", 1)
        expected = (
            2 * cost.params.seq_page_access_ns + cost.params.random_page_access_ns
        )
        assert cost.ledger.lane_ns() == pytest.approx(expected)
        assert cost.ledger.counter("pages_accessed") == 3

    def test_page_access_unknown_kind(self):
        with pytest.raises(ValueError):
            CostModel().page_access("teleport")

    def test_full_page_scan_composition(self):
        cost = CostModel()
        cost.full_page_scan(511, 3, kind="seq")
        p = cost.params
        expected = 3 * (
            p.seq_page_access_ns + p.page_header_read_ns + 511 * p.seq_value_read_ns
        )
        assert cost.ledger.lane_ns() == pytest.approx(expected)
        assert cost.ledger.counter("pages_scanned") == 3

    def test_mmap_and_munmap(self):
        cost = CostModel()
        cost.mmap_call(10)
        cost.munmap_call(10)
        p = cost.params
        expected = (
            p.mmap_syscall_ns
            + 10 * p.mmap_per_page_ns
            + p.munmap_syscall_ns
            + 10 * p.mmap_per_page_ns
        )
        assert cost.ledger.lane_ns() == pytest.approx(expected)
        assert cost.ledger.counter("mmap_calls") == 1
        assert cost.ledger.counter("pages_unmapped") == 10

    def test_bitvector_scan_rounds_to_words(self):
        cost = CostModel()
        cost.bitvector_scan(65)  # 2 words
        assert cost.ledger.counter("bitvector_words_scanned") == 2

    def test_maps_parse(self):
        cost = CostModel()
        cost.maps_parse(100)
        expected = (
            cost.params.maps_file_open_ns + 100 * cost.params.maps_line_parse_ns
        )
        assert cost.ledger.lane_ns() == pytest.approx(expected)

    def test_misc_helpers_count(self):
        cost = CostModel()
        cost.soft_fault(3)
        cost.value_write(2)
        cost.bimap_op(4)
        cost.queue_op(5)
        cost.update_check(6)
        counters = cost.ledger.counters()
        assert counters["soft_faults"] == 3
        assert counters["values_written"] == 2
        assert counters["bimap_ops"] == 4
        assert counters["queue_ops"] == 5
        assert counters["updates_checked"] == 6


class TestIntegerLanes:
    """Lanes hold whole picoseconds: rounding is declared, happens once
    per constant, and a lane does not depend on booking order."""

    def test_defaults_are_exact_in_picoseconds(self):
        cost = CostModel()
        for book, ps in [
            (lambda: cost.sequential_values(1), 460),
            (lambda: cost.stream_values(1, "random"), 828),
            (lambda: cost.stream_values(1, "prefetched"), 598),
            (lambda: cost.bitvector_scan(64), 350),
            (lambda: cost.full_page_scan(511, kind="random"), 85_000 + 6_000 + 511 * 828),
        ]:
            before = cost.ledger.snapshot_ps()[0].get(MAIN_LANE, 0)
            book()
            assert cost.ledger.snapshot_ps()[0][MAIN_LANE] - before == ps

    def test_a_sub_picosecond_profile_is_rounded_once(self):
        cost = CostModel(CostParameters(seq_value_read_ns=220.5651))
        for _ in range(1000):
            cost.sequential_values(1)
        cost.sequential_values(1000)
        lanes, counters = cost.ledger.snapshot_ps()
        assert lanes == {MAIN_LANE: 2000 * 220_565}
        assert counters == {"values_scanned": 2000}
        assert cost.ledger.lane_ns() == 2000 * 220_565 / PS_PER_NS

    def test_a_measured_charge_is_rounded_once_to_picoseconds(self):
        ledger = CostLedger()
        ledger.charge(1.23449)
        ledger.charge(0.0004)
        assert ledger.snapshot_ps()[0] == {MAIN_LANE: 1234}
        assert ledger.lanes() == {MAIN_LANE: 1.234}


class _InterleavedLedger(CostLedger):
    """A ledger the background mapper charges whenever its lock is let
    go: one ``mapper_steps`` count and 1 ns on the mapper lane, booked
    together, between any two reads another thread makes."""

    def __init__(self) -> None:
        super().__init__()
        self._lock = _MapperInterleavingLock(self)


class _MapperInterleavingLock:
    def __init__(self, ledger: CostLedger) -> None:
        self._real = threading.Lock()
        self._ledger = ledger
        self._stepping = False

    def acquire(self) -> bool:
        return self._real.acquire()

    def release(self) -> None:
        self._real.release()
        if not self._stepping:
            self._stepping = True
            try:  # nothing reads between the two: one mapper step
                self._ledger.charge(1.0, MAPPER_LANE)
                self._ledger.count("mapper_steps")
            finally:
                self._stepping = False

    __enter__ = acquire

    def __exit__(self, *exc) -> None:
        self.release()


def test_region_close_reads_lanes_and_counters_in_one_snapshot():
    """A region's lane and counter deltas agree while the mapper thread
    charges: each of its steps is 1 ns plus one count, so the mapper
    lane's delta in ns equals the step count's delta."""
    cost = CostModel()
    cost.ledger = _InterleavedLedger()
    with cost.region() as region:
        cost.mmap_call(2)
    steps = region.counter_deltas["mapper_steps"]
    assert steps >= 1
    assert region.lane_ns(MAPPER_LANE) == steps * 1.0
    assert region.counter_deltas["mmap_calls"] == 1


# -- order and thread-split independence ------------------------------------

_KIND = st.sampled_from(["seq", "prefetched", "random", "strided"])
_LANE = st.sampled_from([MAIN_LANE, MAPPER_LANE, "shard1"])
_N = st.integers(0, 5_000)
#: One CostModel helper call: (method, positional arguments).
_CALL = st.one_of(
    st.tuples(st.just("sequential_values"), st.tuples(_N)),
    st.tuples(st.just("stream_values"), st.tuples(_N, _KIND)),
    st.tuples(st.just("full_page_scan"), st.tuples(st.integers(1, 511), _N, _KIND)),
    st.tuples(st.just("page_access"), st.tuples(_KIND, _N)),
    st.tuples(st.just("page_header"), st.tuples(_N)),
    st.tuples(st.just("bitvector_scan"), st.tuples(_N)),
    st.tuples(st.just("mmap_call"), st.tuples(_N, _LANE, st.integers(0, 9))),
    st.tuples(st.just("munmap_call"), st.tuples(_N)),
    st.tuples(st.just("anon_mmap"), st.tuples()),
    st.tuples(st.just("soft_fault"), st.tuples(_N)),
    st.tuples(
        st.just("backoff_wait"),
        st.tuples(st.floats(0, 1e7, allow_nan=False, allow_infinity=False)),
    ),
    st.tuples(st.just("maps_parse"), st.tuples(_N)),
    st.tuples(st.just("bimap_op"), st.tuples(_N)),
    st.tuples(st.just("update_check"), st.tuples(_N)),
    st.tuples(st.just("queue_op"), st.tuples(_N)),
    st.tuples(st.just("value_write"), st.tuples(_N)),
    st.tuples(st.just("cold_read"), st.tuples(_N)),
    st.tuples(st.just("promote"), st.tuples(_N)),
    st.tuples(st.just("wal_append"), st.tuples(_N)),
    st.tuples(st.just("fsync"), st.tuples()),
)
_PROFILES = [
    CostParameters(),
    CostParameters(seq_value_read_ns=0.4713, random_read_factor=1.8377, fsync_ns=1.0e5 / 3),
]


def _replay(params: CostParameters, calls) -> CostModel:
    cost = CostModel(params)
    for method, args in calls:
        getattr(cost, method)(*args)
    return cost


def _merged(costs: list[CostModel]) -> tuple[dict, dict]:
    """Lanes (ns) and counters summed over per-thread ledgers."""
    lanes: Counter = Counter()
    counters: Counter = Counter()
    for cost in costs:
        shard_lanes, shard_counters = cost.ledger.snapshot_ps()
        lanes.update(shard_lanes)
        counters.update(shard_counters)
    return {lane: ps / PS_PER_NS for lane, ps in lanes.items()}, dict(counters)


@seed(base_seed())
@settings(max_examples=FUZZ_SCHEDULES, deadline=None)
@given(
    profile=st.sampled_from(_PROFILES),
    calls=st.lists(_CALL, min_size=1, max_size=60),
    data=st.data(),
)
def test_any_order_and_any_thread_split_books_the_same_ledger(profile, calls, data):
    want = _replay(profile, calls).ledger.snapshot()

    # any permutation of the stream
    order = data.draw(st.permutations(calls), label="order")
    assert _replay(profile, order).ledger.snapshot() == want

    # any split across threads, each with its own ledger, merged in any order
    cuts = sorted(data.draw(st.lists(st.integers(0, len(calls)), max_size=3), label="cuts"))
    chunks = [calls[a:z] for a, z in zip([0, *cuts], [*cuts, len(calls)])]
    costs: list = [None] * len(chunks)

    def run(i: int) -> None:
        costs[i] = _replay(profile, chunks[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(chunks))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    merge_order = data.draw(st.permutations(costs), label="merge order")
    assert _merged(merge_order) == want

    # the same split on one shared ledger, charged from all threads at once
    shared = CostModel(profile)

    def run_shared(chunk) -> None:
        for method, args in chunk:
            getattr(shared, method)(*args)

    threads = [threading.Thread(target=run_shared, args=(chunk,)) for chunk in chunks]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert shared.ledger.snapshot() == want
