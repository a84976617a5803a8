"""Virtual memory areas (VMAs), kernel-style.

The Linux kernel tracks each process's mappings as a set of VMAs; one
line of ``/proc/PID/maps`` corresponds to one VMA.  Adjacent compatible
mappings are merged into a single VMA, which is why a partial view over
*clustered* data produces a much smaller maps file than one over uniform
data — the effect behind Figure 7's parse-time gap.

Addresses here are in units of pages (virtual page numbers, "vpn");
:mod:`repro.vm.procmaps` multiplies by ``PAGE_SIZE`` when rendering.
"""

from __future__ import annotations

from dataclasses import dataclass

from .physical import MemoryFile


@dataclass(frozen=True)
class Vma:
    """One virtual memory area: ``npages`` pages starting at ``start``.

    ``file is None`` means an anonymous mapping; otherwise the area maps
    ``file`` starting at page offset ``file_page``.
    """

    start: int
    npages: int
    file: MemoryFile | None = None
    file_page: int = 0
    shared: bool = True
    perms: str = "rw"

    def __post_init__(self) -> None:
        if self.npages <= 0:
            raise ValueError("VMA must span at least one page")
        if self.start < 0 or self.file_page < 0:
            raise ValueError("VMA addresses must be non-negative")

    @classmethod
    def _placed(
        cls,
        start: int,
        npages: int,
        file: MemoryFile | None,
        file_page: int,
        shared: bool = True,
        perms: str = "rw",
    ) -> "Vma":
        """An ordinary, immutable VMA from fields already known to be
        valid — a clip or merge of valid areas, a run of a plan checked
        as a whole — filled in without the per-field guards and the
        re-validation of the dataclass constructor."""
        vma = object.__new__(cls)
        fields = vma.__dict__
        fields["start"] = start
        fields["npages"] = npages
        fields["file"] = file
        fields["file_page"] = file_page
        fields["shared"] = shared
        fields["perms"] = perms
        return vma

    @property
    def end(self) -> int:
        """One past the last virtual page of the area."""
        return self.start + self.npages

    @property
    def anonymous(self) -> bool:
        """Whether the area is anonymous (not file-backed)."""
        return self.file is None

    def contains(self, vpn: int) -> bool:
        """Whether virtual page ``vpn`` lies inside the area."""
        return self.start <= vpn < self.end

    def overlaps(self, start: int, npages: int) -> bool:
        """Whether the area overlaps ``[start, start + npages)``."""
        return self.start < start + npages and start < self.end

    def translate(self, vpn: int) -> tuple[MemoryFile, int] | None:
        """Physical page behind ``vpn``, or None for anonymous areas."""
        if not self.contains(vpn):
            raise ValueError(f"vpn {vpn} not inside {self}")
        if self.file is None:
            return None
        return self.file, self.file_page + (vpn - self.start)

    def can_merge_with(self, successor: "Vma") -> bool:
        """Whether ``successor`` extends this area seamlessly.

        Mirrors the kernel's merge criteria: virtually adjacent, same
        backing object, same flags, and (for file mappings) contiguous
        file offsets.
        """
        if self.start + self.npages != successor.start:
            return False
        if self.shared != successor.shared or self.perms != successor.perms:
            return False
        if self.file is not successor.file:
            return False
        if self.file is None:
            return True
        return self.file_page + self.npages == successor.file_page

    def merged_with(self, successor: "Vma") -> "Vma":
        """The single VMA covering this area plus ``successor``."""
        if not self.can_merge_with(successor):
            raise ValueError(f"cannot merge {self} with {successor}")
        return Vma._placed(
            self.start,
            self.npages + successor.npages,
            self.file,
            self.file_page,
            self.shared,
            self.perms,
        )

    def clipped(self, start: int, end: int, perms: str | None = None) -> "Vma":
        """The part of the area inside ``[start, end)``, which must overlap
        it; with ``perms``, under those permissions instead of its own."""
        start = max(start, self.start)
        return Vma._placed(
            start,
            min(end, self.end) - start,
            self.file,
            self.file_page + (start - self.start) if self.file else 0,
            self.shared,
            self.perms if perms is None else perms,
        )

    def split_at(self, vpn: int) -> tuple["Vma", "Vma"]:
        """Split into two VMAs at virtual page ``vpn`` (strictly inside)."""
        if not self.start < vpn < self.end:
            raise ValueError(f"split point {vpn} not strictly inside {self}")
        return self.clipped(self.start, vpn), self.clipped(vpn, self.end)
