"""The native backend: the adaptive stack on the real Linux kernel.

:class:`NativeSubstrate` implements the substrate protocol with the
exact mechanism the paper describes as "fully supported by the vanilla
Linux kernel":

* main-memory files are ``memfd_create`` files (tmpfs fallback), exposed
  to the storage layer as numpy arrays over a shared mapping
  (:class:`NativePageStore`);
* view reservations are real anonymous ``PROT_NONE`` mmaps;
* rewiring is real ``mmap(MAP_FIXED)`` — views genuinely materialize as
  kernel VMAs;
* the maps source is the kernel's own ``/proc/self/maps``.  It is read
  only where the paper reads it, once per update batch: the base
  class's :meth:`~repro.substrate.interface.Substrate.maps_snapshot`
  takes its columns from :meth:`NativeSubstrate._maps_rows`, which keeps
  the stores' lines inside the page table's areas
  (:func:`~repro.vm.procmaps.maps_rows`).  Line counts, the parse
  charge and the translation behind
  :meth:`~repro.substrate.interface.Substrate.read_mapped` come from the
  base class's page table, which each syscall's plan updates; mapped
  pages are read through their own addresses.

Two clocks run side by side: the shared simulated
:class:`~repro.vm.cost.CostModel` is charged exactly as the simulated
backend charges it (so reports stay comparable), while a
:class:`~repro.substrate.interface.WallClockLedger` records the *real*
elapsed time of every syscall — the true wall-clock numbers next to the
calibrated simulated ones.

Everything here requires Linux and degrades by raising
:class:`~repro.native.rewiring.RewiringUnsupportedError` at construction
time; callers (and tests) are expected to gate on
:func:`repro.native.is_supported`.
"""

from __future__ import annotations

import ctypes
import os
import time
import weakref

import numpy as np

from ..native import rewiring
from ..native.platform import (
    MAP_ANONYMOUS,
    MAP_FAILED,
    MAP_FIXED,
    MAP_POPULATE,
    MAP_PRIVATE,
    MAP_SHARED,
    PROT_NONE,
    PROT_READ,
    PROT_WRITE,
    libc,
)
from ..native.rewiring import (
    RewiringUnsupportedError,
    _errno_error,
    _open_memory_file,
)
from ..vm.address_space import AddressSpace
from ..vm.constants import PAGE_SIZE, VALUES_PER_PAGE
from ..vm.cost import CostModel
from ..vm.errors import FileError
from ..vm.procmaps import maps_rows
from .interface import Substrate, WallClockLedger

#: int64 slots in one raw page (header slot + data slots).
_SLOTS_PER_RAW_PAGE = PAGE_SIZE // 8

#: Address space a substrate's areas are laid out in (1 TiB): found free
#: when the substrate is made, and never reserved.
_REGION_BYTES = 1 << 40


def _free_region_vpn() -> int | None:
    """The first page of an address range free at this moment, or ``None``.

    The range is found by a probe mapping, unmapped at once.  The kernel
    hands out the process's later mappings top-down, from the top of
    such a range, so its start stays free for the substrate's areas,
    which grow bottom-up from there.
    """
    addr = libc().mmap(
        None, _REGION_BYTES, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0
    )
    if addr == MAP_FAILED or addr is None:
        return None
    libc().munmap(addr, _REGION_BYTES)
    return addr // PAGE_SIZE


def _release(book: AddressSpace, stores: dict[str, "NativePageStore"]) -> None:
    """Unmap every area ``book`` holds and close the ``stores``.

    A native substrate's tear-down, on :meth:`NativeSubstrate.close` or
    once an unclosed substrate is collected: it takes the book and the
    stores, never the substrate, so it can run as its finalizer.
    """
    spans: list[list[int]] = []  # [start, end) of touching areas
    for vma in book.vmas():
        if spans and spans[-1][1] == vma.start:
            spans[-1][1] = vma.end
        else:
            spans.append([vma.start, vma.end])
    for start, end in spans:
        libc().munmap(start * PAGE_SIZE, (end - start) * PAGE_SIZE)
        book.remove_mapping(start, end - start)
    for store in list(stores.values()):
        store.close()
    stores.clear()


class NativePageStore:
    """A main-memory file backed by a real memfd/tmpfs file.

    Mirrors the :class:`~repro.vm.physical.MemoryFile` page layout — an
    8 B pageID header followed by ``slots_per_page`` int64 values per
    4 KiB page — but physically, in kernel-managed memory: ``data`` and
    ``headers`` are numpy views over one shared mapping of the file, so
    every scan kernel reads the same bytes the rewired views expose.
    """

    def __init__(
        self,
        name: str,
        num_pages: int,
        slots_per_page: int = VALUES_PER_PAGE,
    ) -> None:
        if num_pages <= 0:
            raise FileError(f"file {name!r} needs at least one page")
        if not 0 < slots_per_page <= VALUES_PER_PAGE:
            raise FileError(f"slots_per_page must lie in [1, {VALUES_PER_PAGE}]")
        self.name = name
        self.slots_per_page = slots_per_page
        self.fd = _open_memory_file(name)
        os.ftruncate(self.fd, num_pages * PAGE_SIZE)
        self.inode = os.fstat(self.fd).st_ino
        #: Pathname under which this file appears in /proc/self/maps
        #: lines (memfd files carry a " (deleted)" suffix).
        self.map_path = os.readlink(f"/proc/self/fd/{self.fd}")
        self._num_pages = 0
        #: Whole-file mappings, newest last: the current one and any
        #: still exported.
        self._mmaps: list = []
        self._remap(num_pages)
        self.headers[:] = np.arange(num_pages, dtype=np.int64)

    def _remap(self, num_pages: int) -> None:
        """(Re-)establish the store's own whole-file mapping.

        On resize a *new* mapping is created; each superseded one is
        closed unless a numpy array still exports its buffer (``data``
        held across the resize, a :meth:`page_values` view), in which
        case it stays — shared file mappings stay coherent, so stale
        views read current bytes — until a later resize finds it free.
        These mappings lie outside the substrate's page table, so its
        maps snapshots never see them.
        """
        import mmap as _mmap

        mm = _mmap.mmap(
            self.fd,
            num_pages * PAGE_SIZE,
            _mmap.MAP_SHARED,
            prot=_mmap.PROT_READ | _mmap.PROT_WRITE,
        )
        raw = np.frombuffer(mm, dtype=np.int64).reshape(
            num_pages, _SLOTS_PER_RAW_PAGE
        )
        self.headers = raw[:, 0]
        self.data = raw[:, 1 : 1 + self.slots_per_page]
        self._num_pages = num_pages
        kept = []
        for old in self._mmaps:
            try:
                old.close()
            except BufferError:  # still exported
                kept.append(old)
        kept.append(mm)
        self._mmaps = kept

    @property
    def num_pages(self) -> int:
        """Number of physical pages the file currently holds."""
        return self._num_pages

    @property
    def size_bytes(self) -> int:
        """File size in bytes."""
        return self._num_pages * PAGE_SIZE

    def check_page(self, page: int) -> None:
        """Validate a page index, raising :class:`FileError` if bad."""
        if not 0 <= page < self._num_pages:
            raise FileError(
                f"page {page} out of range for file {self.name!r} "
                f"({self._num_pages} pages)"
            )

    def page_values(self, page: int) -> np.ndarray:
        """The data values of physical page ``page`` (a numpy view)."""
        self.check_page(page)
        return self.data[page]

    def page_id(self, page: int) -> int:
        """The embedded pageID header of physical page ``page``."""
        self.check_page(page)
        return int(self.headers[page])

    def set_page_id(self, page: int, page_id: int) -> None:
        """Rewrite the embedded pageID header of page ``page``."""
        self.check_page(page)
        self.headers[page] = page_id

    def resize(self, num_pages: int) -> None:
        """Grow or shrink the file to ``num_pages`` pages (ftruncate)."""
        if num_pages <= 0:
            raise FileError("cannot resize to zero pages")
        if num_pages == self._num_pages:
            return
        old = self._num_pages
        os.ftruncate(self.fd, num_pages * PAGE_SIZE)
        self._remap(num_pages)
        if num_pages > old:
            self.headers[old:] = np.arange(old, num_pages, dtype=np.int64)

    def close(self) -> None:
        """Release the file descriptor (idempotent).

        The whole-file mappings stay in place — their numpy buffers may
        still be exported — and keep the tmpfs pages alive until the
        process exits or the mappings are garbage collected.
        """
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NativePageStore({self.name!r}, pages={self._num_pages})"


class NativeSubstrate(Substrate):
    """Substrate over the real Linux VM (memfd + MAP_FIXED rewiring)."""

    backend = "native"

    def __init__(
        self,
        capacity_bytes: int | None = None,
        cost: CostModel | None = None,
    ) -> None:
        if not rewiring.is_supported():
            raise RewiringUnsupportedError(
                "native rewiring is not supported on this platform"
            )
        super().__init__()
        # Areas are laid out as the simulator lays them out: each placed
        # at the page table's bump pointer, from the start of a free
        # region.  So the kernel merges the areas' VMAs as the page
        # table merges them, and both backends count the same lines.
        base = _free_region_vpn()
        if base is not None:
            self.address_space._next_vpn = base
        #: Advisory only — the kernel enforces the real limit.
        self.capacity_bytes = capacity_bytes
        self.cost = cost or CostModel()
        self.wall = WallClockLedger()
        self.observer = None
        self._files: dict[str, NativePageStore] = {}
        # An unclosed substrate's areas are unmapped once it is collected.
        weakref.finalize(self, _release, self.address_space, self._files)

    # -- physical-file allocation ---------------------------------------

    def create_file(
        self, name: str, num_pages: int, slots_per_page: int | None = None
    ) -> NativePageStore:
        if name in self._files:
            raise FileError(f"file {name!r} already exists")
        with self.wall.timed("create_file"):
            store = NativePageStore(
                name,
                num_pages,
                slots_per_page if slots_per_page is not None else VALUES_PER_PAGE,
            )
        self._files[name] = store
        return store

    def get_file(self, name: str) -> NativePageStore:
        if name not in self._files:
            raise FileError(f"no such file: {name!r}")
        return self._files[name]

    def delete_file(self, name: str) -> None:
        store = self.get_file(name)
        store.close()
        del self._files[name]

    def files(self) -> list[NativePageStore]:
        return list(self._files.values())

    # -- virtual mapping: the syscalls ----------------------------------

    def _place_area(
        self, npages: int, file: NativePageStore | None, file_page: int
    ) -> int:
        if file is None:
            op, prot, flags, fd = "reserve", PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS, -1
        else:
            op, prot, flags, fd = "map_file", PROT_READ | PROT_WRITE, MAP_SHARED, file.fd
        # A hint, not MAP_FIXED: where the range is taken, the kernel
        # picks another and the page table books that one.
        hint = self.address_space.allocate_region(npages) * PAGE_SIZE
        with self.wall.timed(op):
            addr = libc().mmap(
                hint, npages * PAGE_SIZE, prot, flags, fd, file_page * PAGE_SIZE
            )
        if addr == MAP_FAILED or addr is None:
            raise _errno_error(f"{op} mmap")
        return addr // PAGE_SIZE

    def _issue_runs(
        self,
        vpns: list[int],
        npages: list[int],
        file: NativePageStore | None,
        file_pages: list[int],
        populate: bool,
    ) -> tuple[int, OSError | None]:
        # The kernel has no batched MAP_FIXED: one real call per run, in
        # one loop timed as a whole and counted per call.  Without a
        # file, each run goes back to PROT_NONE reservation memory.
        mmap = libc().mmap
        if file is None:
            op, fd, prot = "unmap_slot", -1, PROT_NONE
            flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED
        else:
            op, fd, prot = "map_fixed", file.fd, PROT_READ | PROT_WRITE
            flags = MAP_SHARED | MAP_FIXED | (MAP_POPULATE if populate else 0)
        applied, failed = 0, False
        started = time.perf_counter_ns()
        for vpn, n, file_page in zip(vpns, npages, file_pages):
            result = mmap(
                vpn * PAGE_SIZE, n * PAGE_SIZE, prot, flags, fd, file_page * PAGE_SIZE
            )
            if result == MAP_FAILED or result is None:
                failed = True
                break
            applied += 1
        self.wall.charge(op, time.perf_counter_ns() - started, applied + failed)
        return applied, _errno_error(f"{op} mmap") if failed else None

    def _unmap_area(self, vpn: int, npages: int) -> None:
        with self.wall.timed("release_region"):
            rc = libc().munmap(vpn * PAGE_SIZE, npages * PAGE_SIZE)
        if rc != 0:
            raise _errno_error("release munmap")

    def _read_pages(
        self, vpns, file: NativePageStore, fpages
    ) -> tuple[np.ndarray, np.ndarray]:
        # The MMU translates: the pages are read at their virtual
        # addresses, a run in place (zero-copy), a gather page by page.
        # Only pages the book maps to a file are touched, never a
        # PROT_NONE reservation slot between them.  No syscall, so
        # nothing is charged to either ledger.
        if isinstance(vpns, slice):
            first, span, rows = vpns.start, vpns.stop - vpns.start, slice(None)
        else:
            first = int(vpns[0])
            span, rows = int(vpns[-1]) - first + 1, vpns - first
        memory = (ctypes.c_char * (span * PAGE_SIZE)).from_address(first * PAGE_SIZE)
        raw = np.frombuffer(memory, dtype=np.int64).reshape(span, _SLOTS_PER_RAW_PAGE)
        return raw[rows, 0].copy(), raw[rows, 1 : 1 + file.slots_per_page]

    # -- the maps source --------------------------------------------------

    def maps_text(self) -> str:
        with self.wall.timed("maps_read"):
            with open("/proc/self/maps") as fh:
                return fh.read()

    def _maps_rows(self, file_filter: str | None) -> tuple[list[str], np.ndarray]:
        # The kernel's own file, read once per batch as the paper reads
        # it.  Only the stores' lines inside the page table's areas are
        # the substrate's: the interpreter's mappings are dropped by
        # inode, unparsed, and the stores' own whole-file mappings by
        # their range.  The simulated ledger is charged for the page
        # table's lines by the base class; the wall ledger measures the
        # read and the parse.
        with self.wall.timed("maps_snapshot"):
            paths = {str(store.inode): store.map_path for store in self._files.values()}
            return maps_rows(self.maps_text(), paths, self.address_space, file_filter)

    def file_map_path(self, file: NativePageStore) -> str:
        return file.map_path

    # -- observation / lifecycle ------------------------------------------

    def close(self) -> None:
        _release(self.address_space, self._files)
