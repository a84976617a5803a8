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
    ) -> "Vma":
        """An ordinary, immutable VMA from fields already known to be
        valid — a row of a page table, whose plans are checked as a
        whole — filled in without the per-field guards and the
        re-validation of the dataclass constructor."""
        vma = object.__new__(cls)
        fields = vma.__dict__
        fields["start"] = start
        fields["npages"] = npages
        fields["file"] = file
        fields["file_page"] = file_page
        return vma

    @property
    def end(self) -> int:
        """One past the last virtual page of the area."""
        return self.start + self.npages

    def contains(self, vpn: int) -> bool:
        """Whether virtual page ``vpn`` lies inside the area."""
        return self.start <= vpn < self.end

    def translate(self, vpn: int) -> tuple[MemoryFile, int] | None:
        """Physical page behind ``vpn``, or None for anonymous areas."""
        if not self.contains(vpn):
            raise ValueError(f"vpn {vpn} not inside {self}")
        if self.file is None:
            return None
        return self.file, self.file_page + (vpn - self.start)
