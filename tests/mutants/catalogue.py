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
    # -- the read path writes each hit once ------------------------------
    Mutant(
        name="inside-rowid-base-off-by-one-page",
        path="src/repro/core/scan.py",
        old="(headers[page : page + k] * per_page)[:, None]",
        new="((headers[page : page + k] + 1) * per_page)[:, None]",
        tests=(
            "tests/core/test_scan_kernel.py::test_inside_runs_between_straddlers",
            "tests/core/test_scan_kernel.py::test_seeded_inside_sweep",
        ),
    ),
    Mutant(
        name="inside-run-copied-from-the-neighbouring-page",
        path="src/repro/core/scan.py",
        old="values[out].reshape(k, per_page)[...] = data[page : page + k]",
        new="values[out].reshape(k, per_page)[...] = data[page - 1 : page + k - 1]",
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
        tests=("tests/core/test_read_memory.py::test_close_frees_the_page_store_without_gc",),
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
        name="spill-file-offset-one-page-late",
        path="src/repro/tier/store.py",
        old="os.pwritev(self._fd, rows, lo * self._page_bytes)",
        new="os.pwritev(self._fd, rows, (lo + 1) * self._page_bytes)",
        tests=("tests/tier/test_native_spill.py::TestNativeSpillFiles",),
    ),
    Mutant(
        name="far-store-chunk-rows-reversed",
        path="src/repro/tier/store.py",
        old="chunk[row : row + stop - first] = data[first:stop]",
        new="chunk[row : row + stop - first] = data[first:stop][::-1]",
        tests=("tests/tier/test_placement.py", "tests/tier/test_initial_placement.py"),
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
        old="cost.cold_write(pages.size, lane)",
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
)
