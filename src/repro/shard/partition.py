"""Shard partitioning: page-aligned contiguous row ranges.

A sharded column splits its rows across N shards, each shard owning a
contiguous, page-aligned row range materialized in its *own* substrate
(its own address space, page store and cost ledger).  Page alignment
matters: every shard's pages embed *local* pageIDs starting at 0, so the
scan kernels work unchanged and a global rowid is recovered as
``local_rowid + spec.row_start``.

:func:`plan_partition` computes the partition; :func:`check_partition`
re-derives the invariant the audit layer enforces — shard ranges are
disjoint, exhaustive, ordered and page-aligned.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from ..storage import layout


@dataclass(frozen=True)
class ShardSpec:
    """One shard's slice of a partitioned column (all ends exclusive)."""

    #: Shard index in ``[0, num_shards)``.
    index: int
    #: Total shards in the partition this spec belongs to.
    num_shards: int
    #: Global row range owned by the shard.
    row_start: int
    row_end: int
    #: Global physical-page range owned by the shard.
    page_start: int
    page_end: int

    @property
    def num_rows(self) -> int:
        """Rows stored in this shard."""
        return self.row_end - self.row_start

    @property
    def num_pages(self) -> int:
        """Physical pages this shard's slice occupies."""
        return self.page_end - self.page_start

    def __str__(self) -> str:
        return (
            f"shard{self.index}/{self.num_shards} "
            f"rows[{self.row_start}, {self.row_end}) "
            f"pages[{self.page_start}, {self.page_end})"
        )


def plan_partition(
    num_rows: int,
    values_per_page: int,
    num_shards: int,
) -> list[ShardSpec]:
    """Split ``num_rows`` rows into ``num_shards`` page-aligned slices.

    Pages are spread as evenly as possible (the first ``pages %
    num_shards`` shards receive one extra page); every shard gets at
    least one page, so asking for more shards than pages is an error
    rather than a silent downgrade.
    """
    if num_shards < 1:
        raise ValueError(f"need at least one shard, got {num_shards}")
    if num_rows < 1:
        raise ValueError(f"need a positive row count, got {num_rows}")
    num_pages = layout.pages_for_rows(num_rows, values_per_page)
    if num_shards > num_pages:
        raise ValueError(
            f"cannot split {num_pages} page(s) across {num_shards} shards; "
            "shards own whole pages, so num_shards must not exceed the "
            "column's page count"
        )
    base, extra = divmod(num_pages, num_shards)
    specs: list[ShardSpec] = []
    page_start = 0
    for index in range(num_shards):
        page_end = page_start + base + (1 if index < extra else 0)
        row_start = page_start * values_per_page
        row_end = min(page_end * values_per_page, num_rows)
        specs.append(
            ShardSpec(
                index=index,
                num_shards=num_shards,
                row_start=row_start,
                row_end=row_end,
                page_start=page_start,
                page_end=page_end,
            )
        )
        page_start = page_end
    return specs


def shard_of_row(specs: list[ShardSpec], row: int) -> ShardSpec:
    """The shard owning global ``row`` (bisect over the row starts)."""
    if not specs:
        raise ValueError("empty partition")
    if not specs[0].row_start <= row < specs[-1].row_end:
        raise IndexError(
            f"row {row} outside the partitioned range "
            f"[{specs[0].row_start}, {specs[-1].row_end})"
        )
    starts = [spec.row_start for spec in specs]
    return specs[bisect.bisect_right(starts, row) - 1]


def check_partition(
    specs: list[ShardSpec],
    num_rows: int,
    values_per_page: int,
) -> list[str]:
    """Partition-coverage invariant: violations as human-readable strings.

    Empty result = the partition is sound: shard ranges are ordered,
    disjoint, exhaustive (rows 0..num_rows and every page covered
    exactly once) and page-aligned.
    """
    violations: list[str] = []
    if not specs:
        return ["partition is empty"]
    num_pages = layout.pages_for_rows(num_rows, values_per_page)
    if specs[0].row_start != 0:
        violations.append(
            f"first shard starts at row {specs[0].row_start}, expected 0"
        )
    if specs[0].page_start != 0:
        violations.append(
            f"first shard starts at page {specs[0].page_start}, expected 0"
        )
    if specs[-1].row_end != num_rows:
        violations.append(
            f"last shard ends at row {specs[-1].row_end}, "
            f"expected {num_rows} (partition not exhaustive)"
        )
    if specs[-1].page_end != num_pages:
        violations.append(
            f"last shard ends at page {specs[-1].page_end}, "
            f"expected {num_pages} (partition not exhaustive)"
        )
    for spec in specs:
        if spec.row_start != spec.page_start * values_per_page:
            violations.append(f"{spec}: row range is not page-aligned")
        if spec.num_pages < 1:
            violations.append(f"{spec}: owns no pages")
        if spec.num_rows < 1:
            violations.append(f"{spec}: owns no rows")
    for prev, cur in zip(specs, specs[1:]):
        if cur.row_start != prev.row_end:
            violations.append(
                f"{prev} and {cur}: row ranges not contiguous "
                "(gap or overlap)"
            )
        if cur.page_start != prev.page_end:
            violations.append(
                f"{prev} and {cur}: page ranges not contiguous "
                "(gap or overlap)"
            )
    return violations
