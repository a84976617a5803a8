"""Physical main memory and main-memory files.

Memory rewiring (RUMA, [15] in the paper) introduces physical memory to
user space as *main-memory files*: files that behave like normal files but
are backed by volatile physical pages (tmpfs).  A main-memory file is the
handle through which virtual pages are (re-)pointed at physical pages.

This module simulates that substrate:

* :class:`PhysicalMemory` is the machine's RAM — a capacity-checked
  :class:`PagePool` of physical pages and the files carved out of it.
* :class:`MemoryFile` is one main-memory file carved out of it; it
  holds the pool, never the machine, so a dropped machine and its files
  are freed by reference counting, without a cyclic GC pass.  Its page
  payloads live in a numpy array of shape ``(num_pages, VALUES_PER_PAGE)``
  plus one int64 header (the embedded pageID) per page, mirroring the
  paper's page layout.

Identity of a physical page is the pair ``(file, page_index)``; virtual
views may map the same physical page many times (shared pages are exactly
what enables overlapping views).
"""

from __future__ import annotations

import numpy as np

from .constants import PAGE_SIZE, VALUES_PER_PAGE
from .cost import CostModel
from .errors import FileError, OutOfMemoryError


class PagePool:
    """A machine's physical pages: its capacity and the pages in use."""

    def __init__(self, capacity_pages: int) -> None:
        self.capacity_pages = capacity_pages
        self.allocated_pages = 0

    @property
    def free_pages(self) -> int:
        """Physical pages still available."""
        return self.capacity_pages - self.allocated_pages

    def reserve(self, n: int) -> None:
        """Account ``n`` more physical pages, enforcing capacity."""
        if n < 0:
            raise ValueError("cannot reserve a negative page count")
        if n > self.free_pages:
            raise OutOfMemoryError(f"requested {n} pages, only {self.free_pages} free")
        self.allocated_pages += n

    def release(self, n: int) -> None:
        """Return ``n`` physical pages to the pool."""
        if n < 0 or n > self.allocated_pages:
            raise ValueError(f"cannot release {n} pages")
        self.allocated_pages -= n


class MemoryFile:
    """A main-memory file: a user-space handle to physical pages.

    Do not instantiate directly — use :meth:`PhysicalMemory.create_file`,
    which enforces the machine's capacity.
    """

    def __init__(
        self,
        name: str,
        num_pages: int,
        pool: PagePool,
        inode: int = 0,
        slots_per_page: int = VALUES_PER_PAGE,
    ) -> None:
        if num_pages <= 0:
            raise FileError(f"file {name!r} needs at least one page")
        if not 0 < slots_per_page <= VALUES_PER_PAGE:
            raise FileError(
                f"slots_per_page must lie in [1, {VALUES_PER_PAGE}]"
            )
        self.name = name
        #: Inode number shown in rendered /proc/PID/maps lines.
        self.inode = inode
        #: Records stored per page (fewer than VALUES_PER_PAGE when the
        #: records are wider than 8 bytes).
        self.slots_per_page = slots_per_page
        self._pool = pool
        #: Page payloads; row ``p`` is the data area of physical page ``p``.
        self.data = np.zeros((num_pages, slots_per_page), dtype=np.int64)
        #: Embedded 8 B pageID header of every physical page (Section 2).
        self.headers = np.arange(num_pages, dtype=np.int64)

    @property
    def num_pages(self) -> int:
        """Number of physical pages the file currently holds."""
        return self.data.shape[0]

    @property
    def size_bytes(self) -> int:
        """File size in bytes."""
        return self.num_pages * PAGE_SIZE

    def check_page(self, page: int) -> None:
        """Validate a page index, raising :class:`FileError` if bad."""
        if not 0 <= page < self.num_pages:
            raise FileError(
                f"page {page} out of range for file {self.name!r} "
                f"({self.num_pages} pages)"
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
        delta = num_pages - self.num_pages
        if delta > 0:
            self._pool.reserve(delta)
            self.data = np.vstack(
                [self.data, np.zeros((delta, self.slots_per_page), dtype=np.int64)]
            )
            self.headers = np.concatenate(
                [self.headers, np.arange(self.num_pages - delta, num_pages)]
            )
        elif delta < 0:
            self._pool.release(-delta)
            self.data = self.data[:num_pages].copy()
            self.headers = self.headers[:num_pages].copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryFile({self.name!r}, pages={self.num_pages})"


class PhysicalMemory:
    """The simulated machine's physical main memory.

    Tracks the overall page budget (default: 64 GB, the paper's testbed)
    and owns every :class:`MemoryFile`.  A shared :class:`CostModel` is
    attached here so all components charging simulated time agree on one
    ledger.
    """

    DEFAULT_CAPACITY_BYTES = 64 * 1024**3

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
        cost: CostModel | None = None,
    ) -> None:
        if capacity_bytes < PAGE_SIZE:
            raise OutOfMemoryError("capacity smaller than one page")
        self.pool = PagePool(capacity_bytes // PAGE_SIZE)
        self.cost = cost or CostModel()
        self._files: dict[str, MemoryFile] = {}

    @property
    def capacity_pages(self) -> int:
        """Physical pages the machine has."""
        return self.pool.capacity_pages

    @property
    def free_pages(self) -> int:
        """Physical pages still available."""
        return self.pool.free_pages

    def reserve_pages(self, n: int) -> None:
        """Account ``n`` more physical pages, enforcing capacity."""
        self.pool.reserve(n)

    def release_pages(self, n: int) -> None:
        """Return ``n`` physical pages to the pool."""
        self.pool.release(n)

    def create_file(
        self,
        name: str,
        num_pages: int,
        slots_per_page: int = VALUES_PER_PAGE,
    ) -> MemoryFile:
        """Create a new main-memory file of ``num_pages`` physical pages."""
        if name in self._files:
            raise FileError(f"file {name!r} already exists")
        self.reserve_pages(num_pages)
        self._next_inode = getattr(self, "_next_inode", 64592) + 1
        mem_file = MemoryFile(
            name,
            num_pages,
            self.pool,
            inode=self._next_inode,
            slots_per_page=slots_per_page,
        )
        self._files[name] = mem_file
        return mem_file

    def get_file(self, name: str) -> MemoryFile:
        """Look up an existing main-memory file by name."""
        if name not in self._files:
            raise FileError(f"no such file: {name!r}")
        return self._files[name]

    def delete_file(self, name: str) -> None:
        """Delete a main-memory file, releasing its physical pages."""
        mem_file = self.get_file(name)
        self.release_pages(mem_file.num_pages)
        del self._files[name]

    def files(self) -> list[MemoryFile]:
        """All existing main-memory files."""
        return list(self._files.values())
