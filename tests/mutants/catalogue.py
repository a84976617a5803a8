"""The mutant catalogue: planted bugs the suite must keep catching.

Each :class:`Mutant` is one text replacement in one file under ``src/``
and the tests that must fail once it is applied.  ``old`` must occur
exactly once in the file; a refactor that moves the code makes the
mutant *stale*, and :mod:`run` says so, so that the mutant is rewritten
rather than silently skipped.  Add one mutant per new guard.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Mutant:
    """A named bug: ``old`` becomes ``new`` in ``path``."""

    name: str
    #: File to patch, relative to the repository root.
    path: str
    old: str
    new: str
    #: Test ids (paths or ``path::name``) of which at least one must fail.
    tests: tuple[str, ...]


MUTANTS = (
    # -- a view and a snapshot are read through their mappings -----------
    Mutant(
        name="view-run-mapped-one-file-page-off",
        path="src/repro/core/view.py",
        old="file_pages=fpages[starts],",
        new="file_pages=fpages[starts] + (fpages[starts] + npages < self.capacity),",
        tests=("tests/core/test_read_through_mapping.py",),
    ),
    Mutant(
        name="snapshot-hook-holds-its-manager",
        path="src/repro/core/snapshot.py",
        old="        self._hook = hook\n        column.add_pre_write_hook(hook)\n",
        new=(
            "        self._hook = lambda page, manager=self: hook(page)\n"
            "        column.add_pre_write_hook(self._hook)\n"
        ),
        tests=(
            "tests/core/test_snapshot.py::"
            "test_a_dropped_database_with_a_snapshot_frees_its_column_without_gc",
        ),
    ),
    Mutant(
        name="snapshot-hook-holds-its-snapshots",
        path="src/repro/core/snapshot.py",
        old="        self._live.append(weakref.ref(snapshot))\n",
        new="        self._live.append(lambda snapshot=snapshot: snapshot)\n",
        tests=(
            "tests/core/test_snapshot.py::"
            "test_a_dropped_database_with_a_snapshot_frees_its_column_without_gc",
        ),
    ),
    Mutant(
        name="snapshot-rewire-onto-the-wrong-copy-page",
        path="src/repro/core/snapshot.py",
        old="self.base_vpn + fpage, 1, copy_file, copy_page, lane=lane",
        new="self.base_vpn + fpage, 1, copy_file, 0, lane=lane",
        tests=("tests/core/test_read_through_mapping.py",),
    ),
    Mutant(
        name="read-clips-the-window-not-its-file-runs",
        path="src/repro/vm/address_space.py",
        old="            if first[0] < start:\n                fpage[0] += start - first[0]\n",
        new="            if begin[i] < start:\n                fpage[0] += start - begin[i]\n",
        tests=(
            "tests/substrate/test_book.py::"
            "test_a_read_returns_the_file_pages_of_its_range_only[simulated]",
        ),
    ),
    # -- guards of earlier changes ---------------------------------------
    Mutant(
        name="alignment-check-counts-the-padding",
        path="src/repro/core/maintenance.py",
        old="hits = (values >= lows[a:z, None]) & (values <= highs[a:z, None]) & live",
        new="hits = (values >= lows[a:z, None]) & (values <= highs[a:z, None])",
        tests=(
            "tests/core/test_alignment_kernel.py::TestPlanted::"
            "test_padding_of_a_partial_last_page_holds_no_value",
        ),
    ),
    Mutant(
        name="multi-row-insert-skips-the-cap-check",
        path="src/repro/core/facade.py",
        old="self._wal.check_rows_fit(table_name, len(table.column_names), len(checked))",
        new="pass",
        tests=(
            "tests/wal/test_sql_durability.py::"
            "test_an_insert_statement_the_log_cap_refuses_part_way_stages_nothing",
        ),
    ),
    Mutant(
        name="row-writer-head-page-one-row-short",
        path="src/repro/storage/layout.py",
        old="head = min(-first_row % per_page, values.size)",
        new="head = max(min(-first_row % per_page, values.size) - 1, 0)",
        tests=("tests/storage/test_row_writer.py",),
    ),
    # -- the read path writes each hit once ------------------------------
    Mutant(
        name="inside-rowid-base-off-by-one-page",
        path="src/repro/core/scan.py",
        old="(headers[i : i + k] * per_page)[:, None]",
        new="((headers[i : i + k] + 1) * per_page)[:, None]",
        tests=(
            "tests/core/test_scan_kernel.py::test_inside_runs_between_straddlers",
            "tests/core/test_scan_kernel.py::test_seeded_inside_sweep",
        ),
    ),
    Mutant(
        name="inside-run-copied-from-the-neighbouring-page",
        path="src/repro/core/scan.py",
        old="values[out].reshape(k, per_page)[...] = read(slice(i, i + k))",
        new="values[out].reshape(k, per_page)[...] = read(slice(i - 1, i + k - 1))",
        tests=(
            "tests/core/test_scan_kernel.py::test_inside_runs_between_straddlers",
            "tests/core/test_scan_kernel.py::test_seeded_inside_sweep",
        ),
    ),
    Mutant(
        name="straddler-stretch-after-the-wrong-inside-run",
        path="src/repro/core/scan.py",
        old="begins[firsts].tolist(), ends[lasts].tolist(), starts[chunk[firsts]].tolist()",
        new="begins[firsts].tolist(), ends[lasts].tolist(), starts[chunk[lasts]].tolist()",
        tests=(
            "tests/core/test_scan_kernel.py::test_inside_runs_between_straddlers",
            "tests/core/test_scan_kernel.py::test_seeded_inside_sweep",
        ),
    ),
    Mutant(
        name="gather-adds-row-start-twice",
        path="src/repro/shard/column.py",
        old="result.rowids += spec.row_start",
        new="result.rowids += 2 * spec.row_start",
        tests=(
            "tests/core/test_read_memory.py::test_a_sharded_full_domain_read_gathers_once",
            "tests/shard/test_database.py",
        ),
    ),
    Mutant(
        name="simulated-close-keeps-its-files",
        path="src/repro/substrate/simulated.py",
        old="            self.memory.delete_file(name)\n        self._own.clear()",
        new="            pass",
        tests=(
            "tests/core/test_read_memory.py::test_close_frees_the_page_store_without_gc",
            "tests/substrate/test_simulated.py::TestProtocolDelegation::"
            "test_close_deletes_only_its_own_files",
        ),
    ),
    Mutant(
        name="simulated-close-deletes-shared-machine-files",
        path="src/repro/substrate/simulated.py",
        old="for name in sorted(self._own):",
        new="for name in sorted(file.name for file in self.memory.files()):",
        tests=(
            "tests/substrate/test_simulated.py::TestProtocolDelegation::"
            "test_close_deletes_only_its_own_files",
        ),
    ),
    Mutant(
        name="replacement-takes-a-new-insertion-position",
        path="src/repro/core/view_index.py",
        old="self._index(new, self._unindex(old))",
        new=(
            "self._unindex(old)\n"
            "        self._index(new, self._next_position)\n"
            "        self._next_position += 1"
        ),
        tests=("tests/core/test_view_index.py::TestIncrementalIntervalIndex",),
    ),
    # -- the tier moves pages in bulk -------------------------------------
    Mutant(
        name="spill-consults-in-reverse",
        path="src/repro/tier/store.py",
        old="for i in range(fpages.size):\n                if passed == want:",
        new="for i in reversed(range(fpages.size)):\n                if passed == want:",
        tests=("tests/tier/test_initial_placement.py",),
    ),
    Mutant(
        name="failed-refresh-stays-cold",
        path="src/repro/tier/store.py",
        old=(
            "        if self._spill(np.array([fpage], dtype=np.int64), cost, lane)[0]:\n"
            "            return\n"
        ),
        new=(
            "        self._spill(np.array([fpage], dtype=np.int64), cost, lane)\n"
            "        return\n"
        ),
        tests=(
            "tests/tier/test_placement.py::TestPlanted::test_a_failed_far_write_lands_near",
        ),
    ),
    Mutant(
        name="initial-placement-ascending",
        path="src/repro/tier/store.py",
        old="descending = np.flatnonzero(self.hot)[::-1]",
        new="descending = np.flatnonzero(self.hot)",
        tests=("tests/tier/test_initial_placement.py",),
    ),
    Mutant(
        name="failed-spills-charged",
        path="src/repro/tier/store.py",
        old="cost.cold_write(count, lane)",
        new="cost.cold_write(fpages.size, lane)",
        tests=("tests/tier/test_initial_placement.py",),
    ),
    Mutant(
        name="values-drops-its-tail",
        path="src/repro/storage/column.py",
        old="        values[whole.size :] = tail\n        return values",
        new="        return values[: whole.size]",
        tests=("tests/storage/test_row_reader.py",),
    ),
    # -- one telemetry record, exact under parallel shards ----------------
    Mutant(
        name="journal-entry-not-counted",
        path="src/repro/core/view_index.py",
        old=(
            "            other_pages=other.num_pages if other is not None else None,\n"
            "        )\n"
            "        self.history.append(record)\n"
            "        self.observer.on_view_event(record)\n"
        ),
        new=(
            "            other_pages=other.num_pages if other is not None else None,\n"
            "        )\n"
            "        self.history.append(record)\n"
        ),
        tests=("tests/obs/test_observer.py::test_view_lifecycle_events_mirror_the_journal",),
    ),
    Mutant(
        name="parallel-shards-detach-substrate-hooks",
        path="src/repro/shard/database.py",
        old=(
            "            for substrate in self.substrates:\n"
            "                substrate.set_observer(self.observer)"
        ),
        new=(
            "            for substrate in self.substrates:\n"
            "                if not self.parallel:\n"
            "                    substrate.set_observer(self.observer)"
        ),
        tests=("tests/shard/test_obs.py::test_thread_pool_keeps_syscall_metrics_exact",),
    ),
    Mutant(
        name="counter-inc-unlocked",
        path="src/repro/obs/metrics.py",
        old=(
            "        key = label_key(labels)\n"
            "        with self._lock:\n"
            "            self._values[key] = self._values.get(key, 0) + amount\n"
            "\n"
            "    def value(self, **labels: object) -> float:\n"
            '        """Current count of one label set (0 if never incremented)."""'
        ),
        new=(
            "        key = label_key(labels)\n"
            "        self._values[key] = self._values.get(key, 0) + amount\n"
            "\n"
            "    def value(self, **labels: object) -> float:\n"
            '        """Current count of one label set (0 if never incremented)."""'
        ),
        tests=("tests/obs/test_metrics.py::test_concurrent_writes_lose_no_update[counter]",),
    ),
    Mutant(
        name="digest-stretches-do-not-overlap",
        path="src/repro/server/response.py",
        old="rowids[start : start + ORDER_STRETCH + 1]",
        new="rowids[start : start + ORDER_STRETCH]",
        tests=(
            "tests/server/test_session.py::TestResultDigest::"
            "test_descent_across_a_stretch_boundary_is_sorted",
        ),
    ),
    # -- a discarded candidate is booked, not reserved ------------------
    Mutant(
        name="booked-discard-keeps-the-allocator-still",
        path="src/repro/substrate/interface.py",
        old="        self.address_space.allocate_region(capacity)\n",
        new="",
        tests=(
            "tests/core/test_booked_discard.py::test_a_simulated_discard_only_moves_the_allocator",
            "tests/core/test_decide_first.py::"
            "test_book_discarded_charges_what_build_and_destroy_do",
        ),
    ),
    Mutant(
        name="booked-discard-skips-the-reserve-consult",
        path="src/repro/faults/plane.py",
        old=(
            "        self._check(\"reserve\")\n"
            "        self.inner.book_discard(capacity"
        ),
        new="        self.inner.book_discard(capacity",
        tests=(
            "tests/core/test_booked_discard.py::test_an_armed_discard_consults_reserve_once",
            "tests/core/test_booked_discard.py::"
            "test_a_fault_at_the_booked_reservation_charges_nothing",
        ),
    ),
    Mutant(
        name="booked-release-charges-the-whole-area",
        path="src/repro/substrate/interface.py",
        old="        cost.munmap_call(mapped, lane)",
        new="        cost.munmap_call(capacity, lane)",
        tests=(
            "tests/core/test_booked_discard.py::test_a_discard_books_what_build_and_destroy_do",
            "tests/core/test_read_work.py::test_a_small_view_hit_books_four_times",
        ),
    ),
    # -- one page table on both backends -------------------------------
    Mutant(
        name="book-keeps-a-released-area",
        path="src/repro/substrate/interface.py",
        old="        self.address_space.remove_mapping(vpn, npages)\n",
        new="",
        tests=(
            "tests/native/test_page_table.py::test_the_book_agrees_with_the_kernel_after_every_step",
            "tests/vm/test_mmap_api.py",
        ),
    ),
    Mutant(
        name="book-records-every-run-of-a-failed-plan",
        path="src/repro/substrate/interface.py",
        old="            if applied < len(runs):\n",
        new="            if False:\n",
        tests=(
            "tests/substrate/test_book.py::test_a_plan_failing_at_run_k_books_the_runs_before_it",
        ),
    ),
    Mutant(
        name="native-snapshot-keeps-lines-outside-the-book",
        path="src/repro/vm/procmaps.py",
        old="    kept = lines[:, book.covers(lines[0], lines[1])]\n",
        new="    kept = lines.copy()\n",
        tests=(
            "tests/native/test_page_table.py::test_the_book_agrees_with_the_kernel_after_every_step",
            "tests/native/test_store_growth.py",
            "tests/vm/test_procmaps_kernel.py::TestMapsRowsOnTheCapture",
        ),
    ),
    Mutant(
        name="plan-check-skipped",
        path="src/repro/substrate/interface.py",
        old="        _check_plan(firsts, runs, file, pages)\n",
        new="",
        tests=(
            "tests/substrate/test_book.py::test_a_run_outside_its_file_is_refused",
            "tests/vm/test_plan_validation.py",
        ),
    ),
    # -- one maps snapshot on both backends ------------------------------
    Mutant(
        name="native-snapshot-charges-kept-lines",
        path="src/repro/substrate/interface.py",
        old="cost.maps_parse(self.address_space.num_vmas, lane)",
        new=(
            "cost.maps_parse(columns.shape[1] if self.wall else self.address_space.num_vmas, lane)"
        ),
        tests=(
            "tests/native/test_parity.py::test_the_mixed_stream_charges_the_same_ledger_on_both_backends",
            "tests/native/test_parity.py::test_fig7_charges_the_same_ledgers_on_both_backends",
        ),
    ),
    Mutant(
        name="native-rows-drop-file-offset",
        path="src/repro/vm/procmaps.py",
        old="        offsets.append(offset)\n",
        new="        offsets.append(0)\n",
        tests=("tests/vm/test_procmaps_kernel.py::TestMapsRowsOnTheCapture",),
    ),
    Mutant(
        name="native-areas-placed-by-the-kernel",
        path="src/repro/substrate/native.py",
        old="                hint, npages * PAGE_SIZE, prot, flags, fd, file_page * PAGE_SIZE",
        new="                None, npages * PAGE_SIZE, prot, flags, fd, file_page * PAGE_SIZE",
        tests=(
            "tests/native/test_parity.py::test_the_mixed_stream_charges_the_same_ledger_on_both_backends",
        ),
    ),
    Mutant(
        name="plan-outside-book-accepted",
        path="src/repro/vm/address_space.py",
        old="        return self._plan(vpns, npages, file, file_pages, True)\n",
        new="        return self._plan(vpns, npages, file, file_pages, False)\n",
        tests=("tests/substrate/test_book.py::test_a_run_outside_every_area_is_refused",),
    ),
    Mutant(
        name="auditor-skips-kernel-bound",
        path="src/repro/audit/invariants.py",
        old="        if snapshot.lines > book_lines:\n",
        new="        if False:\n",
        tests=(
            "tests/native/test_page_table.py::test_the_auditor_bounds_the_kernel_lines_by_the_book",
        ),
    ),
    Mutant(
        name="area-check-skipped",
        path="src/repro/substrate/interface.py",
        old="        _check_run(npages, file, file_page)\n        vpn = self._place_area(",
        new="        vpn = self._place_area(",
        tests=("tests/substrate/test_book.py::test_a_run_outside_its_file_is_refused",),
    ),
    # -- the page table as columns ------------------------------------------
    Mutant(
        name="containment-checks-only-the-first-page",
        path="src/repro/vm/address_space.py",
        old="                    placed = owed = ends[r]\n",
        new="                    placed, owed = ends[r], lo + 1\n",
        tests=(
            "tests/substrate/test_book.py::test_a_run_leaving_its_area_is_refused",
            "tests/vm/test_map_runs.py::TestPlantedPlans::"
            "test_run_spilling_past_the_reservation_into_a_hole",
        ),
    ),
    Mutant(
        name="splice-merges-file-pages-that-do-not-follow-on",
        path="src/repro/vm/address_space.py",
        old=" and out_f[-1] == f and out_p[-1] + s - out_s[-1] == p:",
        new=" and out_f[-1] == f:",
        tests=(
            "tests/vm/test_map_runs.py::TestPlantedPlans",
            "tests/vm/test_address_space.py",
        ),
    ),
    Mutant(
        name="snapshot-keeps-anonymous-rows",
        path="src/repro/substrate/interface.py",
        old="        wanted = np.array([pathname in (None, path) for path in paths] + [False])\n",
        new="        wanted = np.array([pathname in (None, path) for path in paths] + [True])\n",
        tests=("tests/vm/test_map_runs.py::TestPlantedPlans",),
    ),
    Mutant(
        name="snapshot-ignores-the-file-filter",
        path="src/repro/substrate/interface.py",
        old="        wanted = np.array([pathname in (None, path) for path in paths] + [False])\n",
        new="        wanted = np.array([True for path in paths] + [False])\n",
        tests=("tests/vm/test_map_runs.py::TestPlantedPlans",),
    ),
    Mutant(
        name="booked-discard-in-a-map-pages-span",
        path="src/repro/core/creation.py",
        old='        "book-pages",\n',
        new='        "map-pages",\n',
        tests=(
            "tests/obs/test_calibration.py::test_every_native_map_pages_span_issues_syscalls",
        ),
    ),
)
