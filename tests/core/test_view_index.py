"""Unit tests for view selection and the candidate retention policy."""

import numpy as np
import pytest

from repro.core.config import AdaptiveConfig, RoutingMode
from repro.core.creation import Candidate
from repro.core.stats import ViewEvent
from repro.core.view import VirtualView
from repro.core.view_index import ViewIndex

from ..conftest import uniform_column


@pytest.fixture
def column():
    return uniform_column(num_pages=32)


def make_view(column, lo, hi, pages):
    view = VirtualView(column, lo, hi)
    for page in pages:
        view.add_page(page)
    return view


def make_candidate(column, lo, hi, pages):
    return Candidate(column, lo, hi, np.array(pages))


def index_with(column, config=None):
    return ViewIndex(column, config or AdaptiveConfig(max_views=10))


class TestSingleSelection:
    def test_falls_back_to_full_view(self, column):
        index = index_with(column)
        views = index.get_optimal_views(0, 100)
        assert views == [index.full_view]

    def test_smallest_covering_view_wins(self, column):
        index = index_with(column)
        big = make_view(column, 0, 1000, [0, 1, 2, 3])
        small = make_view(column, 0, 2000, [5, 6])
        index.insert(big)
        index.insert(small)
        assert index.get_optimal_views(10, 500) == [small]

    def test_non_covering_views_ignored(self, column):
        index = index_with(column)
        index.insert(make_view(column, 0, 100, [1]))
        assert index.get_optimal_views(50, 150) == [index.full_view]

    def test_exact_range_covers(self, column):
        index = index_with(column)
        view = make_view(column, 50, 150, [1])
        index.insert(view)
        assert index.get_optimal_views(50, 150) == [view]


class TestMultiSelection:
    def config(self):
        return AdaptiveConfig(max_views=10, mode=RoutingMode.MULTI)

    def test_uses_all_overlapping_when_covering(self, column):
        index = index_with(column, self.config())
        a = make_view(column, 0, 60, [0])
        b = make_view(column, 50, 120, [1])
        c = make_view(column, 40, 80, [2])  # redundant but overlapping
        for v in (a, b, c):
            index.insert(v)
        selected = index.get_optimal_views(10, 110)
        assert set(selected) == {a, b, c}

    def test_gap_falls_back_to_single(self, column):
        index = index_with(column, self.config())
        index.insert(make_view(column, 0, 40, [0]))
        index.insert(make_view(column, 60, 100, [1]))
        # hole in (40, 60): conjunction cannot cover [10, 90]
        assert index.get_optimal_views(10, 90) == [index.full_view]

    def test_touching_ranges_cover(self, column):
        index = index_with(column, self.config())
        a = make_view(column, 0, 49, [0])
        b = make_view(column, 50, 100, [1])
        index.insert(a)
        index.insert(b)
        assert set(index.get_optimal_views(10, 90)) == {a, b}

    def test_non_overlapping_views_excluded(self, column):
        index = index_with(column, self.config())
        a = make_view(column, 0, 60, [0])
        b = make_view(column, 50, 120, [1])
        far = make_view(column, 500, 600, [2])
        for v in (a, b, far):
            index.insert(v)
        assert set(index.get_optimal_views(10, 110)) == {a, b}

    def test_single_partial_can_cover_alone(self, column):
        index = index_with(column, self.config())
        a = make_view(column, 0, 200, [0])
        index.insert(a)
        assert index.get_optimal_views(10, 110) == [a]


class TestRetention:
    def test_candidate_no_better_than_full_view_discarded(self, column):
        index = index_with(column)
        candidate = make_candidate(column, 0, 100, list(range(32)))
        assert index.consider_candidate(candidate) is ViewEvent.DISCARDED_FULL
        assert index.num_partials == 0

    def test_insert_when_novel(self, column):
        index = index_with(column)
        candidate = make_candidate(column, 0, 100, [1, 2])
        assert index.consider_candidate(candidate) is ViewEvent.INSERTED
        assert index.partial_views == [candidate.view]

    def test_subset_of_similar_size_discarded(self, column):
        index = index_with(column)
        existing = make_view(column, 0, 100, [1, 2, 3])
        index.insert(existing)
        candidate = make_candidate(column, 10, 90, [1, 2, 3])
        assert index.consider_candidate(candidate) is ViewEvent.DISCARDED_SUBSET
        assert index.partial_views == [existing]

    def test_subset_with_big_savings_inserted(self, column):
        index = index_with(column)
        index.insert(make_view(column, 0, 100, [1, 2, 3, 4, 5]))
        candidate = make_candidate(column, 10, 90, [1])
        assert index.consider_candidate(candidate) is ViewEvent.INSERTED

    def test_discard_tolerance_widens_discards(self, column):
        config = AdaptiveConfig(discard_tolerance=2, max_views=10)
        index = index_with(column, config)
        index.insert(make_view(column, 0, 100, [1, 2, 3]))
        # candidate saves 2 pages, but d=2 discards it anyway
        candidate = make_candidate(column, 10, 90, [1])
        assert index.consider_candidate(candidate) is ViewEvent.DISCARDED_SUBSET

    def test_superset_of_similar_size_replaces(self, column):
        index = index_with(column)
        existing = make_view(column, 10, 90, [1, 2])
        index.insert(existing)
        candidate = make_candidate(column, 0, 100, [1, 2])
        assert index.consider_candidate(candidate) is ViewEvent.REPLACED
        assert index.partial_views == [candidate.view]

    def test_superset_too_big_not_replacing(self, column):
        index = index_with(column)
        existing = make_view(column, 10, 90, [1])
        index.insert(existing)
        candidate = make_candidate(column, 0, 100, [1, 2, 3])
        assert index.consider_candidate(candidate) is ViewEvent.INSERTED
        assert existing in index.partial_views

    def test_replacement_tolerance_allows_growth(self, column):
        config = AdaptiveConfig(replacement_tolerance=2, max_views=10)
        index = index_with(column, config)
        existing = make_view(column, 10, 90, [1])
        index.insert(existing)
        candidate = make_candidate(column, 0, 100, [1, 2, 3])
        assert index.consider_candidate(candidate) is ViewEvent.REPLACED

    def test_limit_stops_generation(self, column):
        config = AdaptiveConfig(max_views=1)
        index = index_with(column, config)
        assert (
            index.consider_candidate(make_candidate(column, 0, 10, [1]))
            is ViewEvent.INSERTED
        )
        assert index.generation_stopped
        assert (
            index.consider_candidate(make_candidate(column, 20, 30, [2]))
            is ViewEvent.LIMIT_REACHED
        )
        assert index.num_partials == 1

    def test_zero_limit_means_no_views(self, column):
        config = AdaptiveConfig(max_views=0)
        index = index_with(column, config)
        assert (
            index.consider_candidate(make_candidate(column, 0, 10, [1]))
            is ViewEvent.LIMIT_REACHED
        )

    def test_discarded_candidate_leaves_vmas_and_maps_lines_as_found(self, column):
        index = index_with(column)
        substrate = column.substrate
        path = substrate.file_map_path(column.file)
        before = (substrate.maps_line_count(), substrate.maps_line_count(path))
        candidate = make_candidate(column, 0, 100, list(range(32)))
        assert index.consider_candidate(candidate) is ViewEvent.DISCARDED_FULL
        assert candidate.view is None
        assert (substrate.maps_line_count(), substrate.maps_line_count(path)) == before

    def test_replaced_view_is_destroyed(self, column):
        index = index_with(column)
        existing = make_view(column, 10, 90, [1, 2])
        index.insert(existing)
        base = existing.base_vpn
        index.consider_candidate(make_candidate(column, 0, 100, [1, 2]))
        assert column.substrate.address_space.find_vma(base) is None


class TestIndexManagement:
    def test_insert_full_view_rejected(self, column):
        index = index_with(column)
        with pytest.raises(ValueError):
            index.insert(VirtualView.full_view(column))

    def test_drop(self, column):
        index = index_with(column)
        view = make_view(column, 0, 10, [1])
        index.insert(view)
        index.drop(view)
        assert index.num_partials == 0

    def test_all_views(self, column):
        index = index_with(column)
        view = make_view(column, 0, 10, [1])
        index.insert(view)
        assert index.all_views() == [index.full_view, view]


class TestConfigValidation:
    def test_negative_tolerances_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(discard_tolerance=-1)
        with pytest.raises(ValueError):
            AdaptiveConfig(replacement_tolerance=-1)
        with pytest.raises(ValueError):
            AdaptiveConfig(max_views=-1)


class TestDecide:
    def test_range_predicates(self, column):
        index = index_with(column)
        index.insert(make_view(column, 10, 20, [1, 2]))
        # inside the view's range: a subset
        assert index.decide(2, 12, 18)[0] is ViewEvent.DISCARDED_SUBSET
        # around it: a superset
        assert index.decide(2, 5, 25)[0] is ViewEvent.REPLACED
        # overlapping only: neither
        assert index.decide(1, 15, 25)[0] is ViewEvent.INSERTED
        # an equal range is both: the subset rule is asked first, the
        # superset rule when the subset rule's page test refuses
        assert index.decide(2, 10, 20)[0] is ViewEvent.DISCARDED_SUBSET
        assert index.decide(1, 10, 20)[0] is ViewEvent.REPLACED


class TestIncrementalIntervalIndex:
    """The interval index is kept sorted by bisection, never re-sorted:
    after any sequence of inserts, drops, replaces and discards it must
    hold what one fresh sort of the partials by ``(lo, -hi, insertion
    order)`` gives, and every routing mode must pick the same views."""

    MODES = (RoutingMode.SINGLE, RoutingMode.MULTI, RoutingMode.MULTI_COST)

    @staticmethod
    def _freshly_sorted(index: ViewIndex) -> ViewIndex:
        """A twin of ``index`` whose interval index is one fresh sort."""
        twin = ViewIndex.__new__(ViewIndex)
        twin.__dict__.update(index.__dict__)
        twin._last_used, twin._use_counts = {}, {}
        partials = index.partial_views
        keys = sorted((v.lo, -v.hi, i) for i, v in enumerate(partials))
        twin._sorted_keys = keys
        twin._sorted_views = [partials[i] for _, _, i in keys]
        twin._sorted_los = [lo for lo, _, _ in keys]
        return twin

    def _check(self, index: ViewIndex, rng) -> None:
        twin = self._freshly_sorted(index)
        assert index._sorted_views == twin._sorted_views
        assert index._sorted_los == twin._sorted_los
        by_position = sorted(
            range(len(index._sorted_keys)), key=lambda i: index._sorted_keys[i][2]
        )
        assert [index._sorted_views[i] for i in by_position] == index.partial_views
        for _ in range(6):
            lo = int(rng.integers(0, 100))
            hi = lo + int(rng.integers(0, 40))
            for mode in self.MODES:
                config = AdaptiveConfig(max_views=100, mode=mode)
                index.config = twin.config = config
                assert index.get_optimal_views(lo, hi) == twin.get_optimal_views(lo, hi)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_sequences_select_as_a_fresh_sort(self, column, seed):
        rng = np.random.default_rng(seed)
        index = index_with(column, AdaptiveConfig(max_views=100))

        def new_view():
            # A small domain, so that equal los, equal his and equal page
            # counts (the tie-breaks) are common.
            lo = int(rng.integers(0, 100))
            hi = lo + int(rng.integers(0, 50))
            pages = rng.choice(column.num_pages, size=int(rng.integers(1, 5)), replace=False)
            return make_view(column, lo, hi, sorted(pages.tolist()))

        for _ in range(40):
            partials = index.partial_views
            op = rng.choice(["insert", "insert", "drop", "replace", "discard"])
            if op == "insert" or not partials:
                index.insert(new_view())
            else:
                victim = partials[int(rng.integers(0, len(partials)))]
                if op == "drop":
                    index.drop(victim)
                elif op == "replace":
                    index.replace(victim, new_view())
                else:
                    victim.destroy()
                    index.discard(victim)
            self._check(index, rng)
