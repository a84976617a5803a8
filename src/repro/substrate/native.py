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
* the maps source is the kernel's own ``/proc/self/maps``, which the
  existing :func:`~repro.vm.procmaps.parse_maps` understands.

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
from ..native.rewiring import RewiringUnsupportedError
from ..vm.constants import PAGE_SIZE, VALUES_PER_PAGE
from ..vm.cost import MAIN_LANE, CostModel
from ..vm.errors import FileError
from ..vm.procmaps import MapsEntry, MappingSnapshot, parse_maps
from .interface import Substrate, WallClockLedger

#: int64 slots in one raw page (header slot + data slots).
_SLOTS_PER_RAW_PAGE = PAGE_SIZE // 8


def _errno_error(what: str) -> OSError:
    err = ctypes.get_errno()
    return OSError(err, f"{what} failed: {os.strerror(err)}")


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
        substrate: "NativeSubstrate",
        name: str,
        num_pages: int,
        slots_per_page: int = VALUES_PER_PAGE,
    ) -> None:
        if num_pages <= 0:
            raise FileError(f"file {name!r} needs at least one page")
        if not 0 < slots_per_page <= VALUES_PER_PAGE:
            raise FileError(f"slots_per_page must lie in [1, {VALUES_PER_PAGE}]")
        self._substrate = substrate
        self.name = name
        self.slots_per_page = slots_per_page
        self.fd = self._open_fd(name)
        os.ftruncate(self.fd, num_pages * PAGE_SIZE)
        self.inode = os.fstat(self.fd).st_ino
        #: Pathname under which this file appears in /proc/self/maps
        #: lines (memfd files carry a " (deleted)" suffix).
        self.map_path = os.readlink(f"/proc/self/fd/{self.fd}")
        self._num_pages = 0
        self._mmaps: list = []
        self._remap(num_pages)
        self.headers[:] = np.arange(num_pages, dtype=np.int64)

    @staticmethod
    def _open_fd(name: str) -> int:
        if hasattr(os, "memfd_create"):
            try:
                return os.memfd_create(name)
            except OSError:
                pass
        if os.path.isdir("/dev/shm"):
            import tempfile

            try:
                fd, path = tempfile.mkstemp(dir="/dev/shm", prefix="repro-")
                os.unlink(path)
                return fd
            except OSError:
                pass
        raise RewiringUnsupportedError(
            "neither memfd_create nor a writable /dev/shm is available"
        )

    def _remap(self, num_pages: int) -> None:
        """(Re-)establish the store's own whole-file mapping.

        On resize a *new* mapping is created and the old one kept alive
        (its numpy buffers may still be exported); shared file mappings
        stay coherent, so stale views read current bytes.  The mapping
        is registered with the substrate so it can be excluded from
        view-level maps snapshots.
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
        addr = ctypes.addressof(ctypes.c_char.from_buffer(mm))
        self._substrate._register_internal(addr // PAGE_SIZE, num_pages)
        self._mmaps.append(mm)
        self.headers = raw[:, 0]
        self.data = raw[:, 1 : 1 + self.slots_per_page]
        self._num_pages = num_pages

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
        #: Advisory only — the kernel enforces the real limit.
        self.capacity_bytes = capacity_bytes
        self.cost = cost or CostModel()
        self.wall = WallClockLedger()
        self.observer = None
        self._files: dict[str, NativePageStore] = {}
        #: Live reservations/file maps we own: start vpn -> npages.
        self._regions: dict[int, int] = {}
        #: Store-internal whole-file mappings, excluded from snapshots:
        #: (start_vpn, npages) tuples.
        self._internal: list[tuple[int, int]] = []

    # -- internal helpers -------------------------------------------------

    def _register_internal(self, start_vpn: int, npages: int) -> None:
        self._internal.append((start_vpn, npages))

    def _is_internal(self, entry: MapsEntry) -> bool:
        for start, npages in self._internal:
            if entry.start_vpn < start + npages and start < entry.end_vpn:
                return True
        return False

    def _mmap_syscall(
        self,
        op: str,
        addr: int | None,
        npages: int,
        prot: int,
        flags: int,
        fd: int,
        offset: int,
    ) -> int:
        with self.wall.timed(op):
            result = libc().mmap(
                addr, npages * PAGE_SIZE, prot, flags, fd, offset
            )
        if result == MAP_FAILED or result is None:
            raise _errno_error(f"{op} mmap")
        return result

    def _charge_anon_mmap(self, lane: str) -> None:
        # Identical to the simulated anonymous-mmap charge: syscall base
        # only, no per-page cost.
        self.cost.ledger.charge(self.cost.params.mmap_syscall_ns, lane)
        self.cost.ledger.count("mmap_calls")

    # -- physical-file allocation ---------------------------------------

    def create_file(
        self, name: str, num_pages: int, slots_per_page: int | None = None
    ) -> NativePageStore:
        if name in self._files:
            raise FileError(f"file {name!r} already exists")
        with self.wall.timed("create_file"):
            store = NativePageStore(
                self,
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

    # -- virtual mapping --------------------------------------------------

    def reserve(self, npages: int, lane: str = MAIN_LANE) -> int:
        addr = self._mmap_syscall(
            "reserve",
            None,
            npages,
            PROT_NONE,
            MAP_PRIVATE | MAP_ANONYMOUS,
            -1,
            0,
        )
        vpn = addr // PAGE_SIZE
        self._regions[vpn] = npages
        self._charge_anon_mmap(lane)
        if self.observer is not None:
            self.observer.on_mmap("anon", npages)
        return vpn

    def map_file(
        self,
        npages: int,
        file: NativePageStore,
        file_page: int = 0,
        lane: str = MAIN_LANE,
    ) -> int:
        addr = self._mmap_syscall(
            "map_file",
            None,
            npages,
            PROT_READ | PROT_WRITE,
            MAP_SHARED,
            file.fd,
            file_page * PAGE_SIZE,
        )
        vpn = addr // PAGE_SIZE
        self._regions[vpn] = npages
        self.cost.mmap_call(npages, lane)
        if self.observer is not None:
            self.observer.on_mmap("file", npages)
        return vpn

    def map_fixed(
        self,
        vpn: int,
        npages: int,
        file: NativePageStore,
        file_page: int,
        populate: bool = False,
        lane: str = MAIN_LANE,
    ) -> None:
        flags = MAP_SHARED | MAP_FIXED
        if populate:
            flags |= MAP_POPULATE
        self._mmap_syscall(
            "map_fixed",
            vpn * PAGE_SIZE,
            npages,
            PROT_READ | PROT_WRITE,
            flags,
            file.fd,
            file_page * PAGE_SIZE,
        )
        self.cost.mmap_call(npages, lane)
        if populate:
            self.cost.soft_fault(npages, lane)
        if self.observer is not None:
            self.observer.on_mmap("fixed", npages)

    def unmap_slot(self, vpn: int, npages: int = 1, lane: str = MAIN_LANE) -> None:
        self._mmap_syscall(
            "unmap_slot",
            vpn * PAGE_SIZE,
            npages,
            PROT_NONE,
            MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED,
            -1,
            0,
        )
        self._charge_anon_mmap(lane)
        if self.observer is not None:
            self.observer.on_mmap("anon", npages)

    def munmap(self, vpn: int, npages: int, lane: str = MAIN_LANE) -> int:
        with self.wall.timed("munmap"):
            rc = libc().munmap(vpn * PAGE_SIZE, npages * PAGE_SIZE)
        if rc != 0:
            raise _errno_error("munmap")
        self._regions.pop(vpn, None)
        self.cost.munmap_call(npages, lane)
        if self.observer is not None:
            self.observer.on_munmap(npages)
        return npages

    def release_region(
        self,
        vpn: int,
        npages: int,
        mapped_pages: int,
        lane: str = MAIN_LANE,
    ) -> None:
        with self.wall.timed("release_region"):
            rc = libc().munmap(vpn * PAGE_SIZE, npages * PAGE_SIZE)
        if rc != 0:
            raise _errno_error("release munmap")
        self._regions.pop(vpn, None)
        self.cost.munmap_call(mapped_pages, lane)

    def protect(
        self, vpn: int, npages: int, perms: str, lane: str = MAIN_LANE
    ) -> None:
        prot = PROT_NONE
        if "r" in perms:
            prot |= PROT_READ
        if "w" in perms:
            prot |= PROT_WRITE
        with self.wall.timed("protect"):
            rc = libc().mprotect(vpn * PAGE_SIZE, npages * PAGE_SIZE, prot)
        if rc != 0:
            raise _errno_error("mprotect")
        self.cost.ledger.charge(self.cost.params.mmap_syscall_ns, lane)
        self.cost.ledger.count("mprotect_calls")

    # -- page access through virtual addresses ---------------------------

    def read_virtual(self, vpn: int, lane: str = MAIN_LANE) -> np.ndarray:
        entry = self._entry_for(vpn)
        if entry is None or entry.anonymous:
            # Reservation slots read as fresh anonymous memory would —
            # without touching the PROT_NONE pages.
            return np.zeros(VALUES_PER_PAGE, dtype=np.int64)
        store = self._store_for_path(entry.pathname)
        slots = store.slots_per_page if store is not None else VALUES_PER_PAGE
        with self.wall.timed("read_virtual"):
            raw = ctypes.string_at(vpn * PAGE_SIZE, PAGE_SIZE)
        return np.frombuffer(raw, dtype=np.int64)[1 : 1 + slots].copy()

    def peek_virtual(self, vpn: int) -> np.ndarray:
        # The native read path charges no simulated cost to begin with
        # (the MMU does the translation); the wall-clock charge is
        # harmless for diagnostics.
        return self.read_virtual(vpn)

    def _entry_for(self, vpn: int) -> MapsEntry | None:
        for entry in parse_maps(self.maps_text()):
            if entry.start_vpn <= vpn < entry.end_vpn:
                return entry
        return None

    def _store_for_path(self, pathname: str) -> NativePageStore | None:
        for store in self._files.values():
            if store.map_path == pathname:
                return store
        return None

    # -- the maps source --------------------------------------------------

    def maps_text(self) -> str:
        with self.wall.timed("maps_read"):
            with open("/proc/self/maps") as fh:
                return fh.read()

    def maps_snapshot(
        self,
        cost: CostModel | None = None,
        lane: str = MAIN_LANE,
        file_filter: str | None = None,
    ) -> MappingSnapshot:
        with self.wall.timed("maps_snapshot"):
            # Parse the real maps file, but keep (and charge the
            # simulated ledger for) only the substrate's own file
            # mappings — the lines the simulated backend would render.
            # The interpreter contributes a fluctuating number of
            # unrelated mappings, and counting those would make the
            # deterministic ledger depend on allocator state; the true
            # cost of parsing the full file is measured by the wall
            # ledger wrapping this.
            own_paths = {store.map_path for store in self._files.values()}
            entries = [
                e
                for e in parse_maps(self.maps_text())
                if e.pathname in own_paths and not self._is_internal(e)
            ]
            if cost is not None:
                cost.maps_parse(len(entries), lane)
            return MappingSnapshot.from_entries(
                entries, cost=cost, lane=lane, file_filter=file_filter
            )

    def maps_line_count(self, pathname: str | None = None) -> int:
        entries = parse_maps(self.maps_text())
        if pathname is None:
            return sum(1 for e in entries if not self._is_internal(e))
        return sum(
            1
            for e in entries
            if e.pathname == pathname and not self._is_internal(e)
        )

    def file_map_path(self, file: NativePageStore) -> str:
        return file.map_path

    # -- observation / lifecycle ------------------------------------------

    def set_observer(self, observer) -> None:
        self.observer = observer

    def close(self) -> None:
        for vpn, npages in list(self._regions.items()):
            libc().munmap(vpn * PAGE_SIZE, npages * PAGE_SIZE)
        self._regions.clear()
        for store in list(self._files.values()):
            store.close()
        self._files.clear()
