"""The invariant auditor: view catalog ↔ VMAs ↔ bimap ↔ physical data.

:class:`InvariantAuditor` cross-checks the four representations of
mapping state the adaptive stack keeps (PAPER.md §2.4–2.5):

1. **the view catalog** — each view's own slot bookkeeping;
2. **the address space** — the substrate's page table
   (``address_space``, kept by both backends) and the pages behind it,
   read through uncharged translation (``address_space.translate`` and
   one :meth:`Substrate.read_mapped` per view);
3. **the bimap snapshot** — a fresh parse of the backend's maps source
   (on the native backend, the kernel's real ``/proc/self/maps``, whose
   lines inside the areas must number no more than the page table's);
4. **the physical column** — page contents and embedded pageIDs, plus
   the semantic ground truth ``pages_with_values_in``.

The audit is *free*: every substrate access runs with ``cost=None``
and under :func:`~repro.faults.suppress_faults`, so auditing after
every operation neither changes simulated timings nor perturbs an armed
fault schedule.  It is runnable after any operation on either backend.
"""

from __future__ import annotations

import numpy as np

from ..faults.plane import suppress_faults
from ..vm.errors import BadAddressError
from .report import AuditReport


class InvariantAuditor:
    """Structural + semantic consistency checks over a column's views."""

    def __init__(self, max_content_pages: int | None = None) -> None:
        """``max_content_pages`` caps the per-view page-content reads
        (None audits every mapped page)."""
        self.max_content_pages = max_content_pages

    # -- entry points -----------------------------------------------------

    def audit_views(
        self,
        column,
        views: list,
        check_semantics: bool = True,
        label: str = "",
        report: AuditReport | None = None,
    ) -> AuditReport:
        """Audit ``views`` (all views of ``column``'s file) in one pass.

        ``views`` must be *all* live views over the column's file — the
        region-accounting invariant counts every mapping of the file.
        ``check_semantics`` disables the page-set ground-truth check
        (it transiently fails, by design, while updates are pending).
        """
        substrate = column.substrate
        report = report or AuditReport(backend=substrate.backend)
        report.semantics_checked = report.semantics_checked and check_semantics
        with suppress_faults(substrate):
            self._audit_views_suppressed(
                column, views, check_semantics, label, report
            )
        return report

    def audit_layer(
        self,
        layer,
        check_semantics: bool = True,
        label: str = "",
        report: AuditReport | None = None,
    ) -> AuditReport:
        """Audit one adaptive storage layer (full view + partials)."""
        return self.audit_views(
            layer.column,
            layer.view_index.all_views(),
            check_semantics=check_semantics,
            label=label,
            report=report,
        )

    def audit_database(self, db) -> AuditReport:
        """Audit every instantiated layer of an
        :class:`~repro.core.facade.AdaptiveDatabase`.

        Columns with pending (un-flushed) updates are audited
        structurally only: their views lag the physical data until the
        next flush, so the semantic page-set check would flag the lag as
        a violation by design.
        """
        report = AuditReport(backend=db.substrate.backend)
        for (table_name, column_name), layer in sorted(db._layers.items()):
            table = db.table(table_name)
            pending = len(table.pending_updates(column_name)) > 0
            self.audit_layer(
                layer,
                check_semantics=not pending,
                label=f"{table_name}.{column_name}",
                report=report,
            )
        wal = db._wal
        if wal is not None and not wal.closed:
            self._audit_wal_consistency(db, wal, report)
        return report

    def _audit_wal_consistency(self, db, wal, report: AuditReport) -> None:
        """``wal-consistency``: every acked op is checkpointed or replayable.

        Re-scans the log from disk (free — no cost charges, no fault
        plane) and cross-checks it against the in-memory log state:

        * a *live* log never carries a torn tail (tears are repaired at
          open and after injected short writes);
        * record LSNs are contiguous (+1 steps — a gap would skip an op
          at replay);
        * the scanned tail agrees with the in-memory LSN (every
          in-memory append reached the OS);
        * the acknowledgement watermark is covered: an op acked at LSN
          ``k`` is replayable (``k`` ≤ scanned tail) or behind a
          checkpoint (pruning only removes segments a checkpoint
          covers, and the checkpoint marker lands after the prune);
        * byte accounting matches the on-disk segment sizes.
        """
        from ..wal.records import scan_wal

        label = "wal"
        scan = scan_wal(wal.directory)

        report.checks += 1
        if scan.torn is not None:
            report.add_finding(
                "wal-consistency",
                f"live log carries a torn tail ({scan.torn.reason} in "
                f"{scan.torn.segment} at offset {scan.torn.offset})",
                label=label,
            )

        lsns = [int(record["lsn"]) for record in scan.records]
        report.checks += 1
        gaps = [
            (a, b) for a, b in zip(lsns, lsns[1:]) if b != a + 1
        ]
        if gaps:
            report.add_finding(
                "wal-consistency",
                f"record LSNs are not contiguous (gaps at {gaps[:5]})",
                label=label,
            )

        scanned_tail = lsns[-1] if lsns else 0
        report.checks += 1
        if scanned_tail != wal.lsn:
            report.add_finding(
                "wal-consistency",
                f"scanned tail lsn {scanned_tail} disagrees with the "
                f"in-memory lsn {wal.lsn}",
                label=label,
            )

        report.checks += 1
        if db._last_acked_lsn > max(scanned_tail, wal.lsn):
            report.add_finding(
                "wal-consistency",
                f"acked watermark {db._last_acked_lsn} is beyond the log "
                f"tail {scanned_tail}: an acknowledged write is neither "
                f"checkpointed nor replayable",
                label=label,
            )

        disk_bytes = sum(
            path.stat().st_size for path in scan.segments if path.exists()
        )
        report.checks += 1
        if disk_bytes != wal.total_bytes:
            report.add_finding(
                "wal-consistency",
                f"on-disk segments hold {disk_bytes} bytes, the log "
                f"accounts for {wal.total_bytes}",
                label=label,
            )

    # -- the checks -------------------------------------------------------

    def _audit_views_suppressed(
        self,
        column,
        views: list,
        check_semantics: bool,
        label: str,
        report: AuditReport,
    ) -> None:
        substrate = column.substrate
        path = substrate.file_map_path(column.file)
        # A fresh, uncharged bimap snapshot of this file's mappings —
        # on the native backend this parses the kernel's real
        # /proc/self/maps.
        snapshot = substrate.maps_snapshot(cost=None, file_filter=path)
        live_views = [v for v in views if getattr(v, "_alive", True)]

        total_mapped = 0
        for view in live_views:
            total_mapped += self._audit_one_view(
                column, view, snapshot, path, check_semantics, label, report
            )
        report.mapped_pages += total_mapped

        # Region accounting: the snapshot holds exactly the pages the
        # catalog says are mapped — no leaked or lost mappings — from no
        # more maps lines than the page table holds (kernel <= book).
        # A flush is charged for the page table's lines; the kernel may
        # merge two of them into one line, never split one.
        report.checks += 1
        book_lines = substrate.maps_line_count(path)
        if len(snapshot) != total_mapped:
            report.add_finding(
                "region-accounting",
                f"maps snapshot holds {len(snapshot)} mapped pages, "
                f"the view catalog accounts for {total_mapped}",
                label=label,
            )
        if snapshot.lines > book_lines:
            report.add_finding(
                "region-accounting",
                f"maps source shows {snapshot.lines} lines of {path!r} "
                f"inside the areas, the page table holds {book_lines}",
                label=label,
            )
        report.maps_regions += book_lines

        if column.tier is not None:
            self._audit_tier_placement(column, label, report)

    def _audit_tier_placement(self, column, label: str, report: AuditReport) -> None:
        """Tier-placement invariant over ``column.tier``.

        The placement covers every page of the column's store, the
        running hot count equals the pages marked hot and never exceeds
        budget plus recorded debt (debt only exists after spill
        failures).
        """
        store = column.tier
        num_pages = int(column.file.num_pages)

        report.checks += 1
        if store.hot.size != num_pages or store.hits.size != num_pages:
            report.add_finding(
                "tier-placement",
                f"placement arrays cover {store.hot.size} pages, "
                f"store holds {num_pages}",
                label=label,
            )
            return

        # The running hot count is the placement's, page for page.
        report.checks += 1
        hot = store.hot_count()
        marked = int(store.hot.sum())
        if hot != marked:
            report.add_finding(
                "tier-placement",
                f"running hot count {hot} != {marked} pages marked hot",
                label=label,
            )

        # Budget: hot count within budget plus recorded debt, and debt
        # only ever stems from spill failures.
        budget = store.governor.budget
        if budget is not None:
            report.checks += 1
            if hot > budget + store.governor.debt:
                report.add_finding(
                    "tier-placement",
                    f"{hot} hot pages exceed budget {budget} "
                    f"plus debt {store.governor.debt}",
                    label=label,
                )
            report.checks += 1
            if store.governor.debt > 0 and store.spill_failures == 0:
                report.add_finding(
                    "tier-placement",
                    f"governor carries debt {store.governor.debt} "
                    f"without any spill failure",
                    label=label,
                )

    def _audit_one_view(
        self,
        column,
        view,
        snapshot,
        path: str,
        check_semantics: bool,
        label: str,
        report: AuditReport,
    ) -> int:
        substrate = column.substrate
        vrange = (view.lo, view.hi)
        mapped = np.sort(np.asarray(view.mapped_fpages(), dtype=np.int64))
        report.views.append(
            {
                "label": label,
                "range": [int(view.lo), int(view.hi)],
                "pages": mapped.tolist(),
                "full": bool(view.is_full_view),
            }
        )

        # Catalog bookkeeping: the slot bimap is a bijection and the
        # page count agrees with it.
        report.checks += 1
        unique = np.unique(mapped)
        if unique.size != mapped.size or mapped.size != view.num_pages:
            report.add_finding(
                "catalog-bijection",
                f"view reports {view.num_pages} pages but its slot table "
                f"holds {mapped.size} ({unique.size} distinct)",
                label=label,
                view_range=vrange,
            )
            return int(mapped.size)
        report.checks += 1
        if view.is_full_view and view.num_pages != column.num_pages:
            report.add_finding(
                "catalog-bijection",
                f"full view maps {view.num_pages} of {column.num_pages} pages",
                label=label,
                view_range=vrange,
            )

        page_tables = substrate.address_space
        agreed = []  # pages whose translation both sources agree on
        for fpage in mapped.tolist():
            vpn = view.vpn_of(fpage)

            # Bimap snapshot agreement: the maps source says this
            # virtual page maps exactly this physical page.
            report.checks += 1
            phys = snapshot.physical_of(vpn)
            if phys != (path, fpage):
                report.add_finding(
                    "snapshot-agreement",
                    f"maps snapshot resolves vpn {vpn} to {phys}, "
                    f"catalog says ({path!r}, {fpage})",
                    label=label,
                    view_range=vrange,
                    fpage=fpage,
                )
                continue

            # Page-table agreement: the substrate's page table agrees
            # with the maps source (on native, the kernel's), so the
            # read through it below touches a page the kernel maps.
            report.checks += 1
            try:
                backing = page_tables.translate(vpn)
            except BadAddressError:
                backing = None
            if (
                backing is None
                or substrate.file_map_path(backing[0]) != path
                or backing[1] != fpage
            ):
                report.add_finding(
                    "page-table-agreement",
                    f"page tables translate vpn {vpn} to {backing}, "
                    f"maps say ({path!r}, {fpage})",
                    label=label,
                    view_range=vrange,
                    fpage=fpage,
                )
                continue
            agreed.append(fpage)
        # Physical contents: one read through the view's area yields,
        # for each page both sources agree on (within the budget), the
        # column's physical page, and the embedded pageID still names it.
        checked = agreed[: self.max_content_pages]
        if checked:
            headers, values = substrate.read_mapped(view.base_vpn, view.capacity)
            report.checks += 2 * len(checked)
            if headers.size != mapped.size:
                report.add_finding(
                    "content-agreement",
                    f"a read through the view returns {headers.size} pages, "
                    f"its catalog maps {mapped.size}",
                    label=label,
                    view_range=vrange,
                )
            else:
                # the read is in slot order, ``mapped`` sorted
                pages = np.array(checked)
                at = np.argsort(view.mapped_fpages())[mapped.searchsorted(pages)]
                wrong = (values[at] != column.file.data[pages]).any(axis=1)
                for fpage in pages[wrong].tolist():
                    report.add_finding(
                        "content-agreement",
                        f"virtual read of vpn {view.vpn_of(fpage)} differs from "
                        f"physical page {fpage}",
                        label=label,
                        view_range=vrange,
                        fpage=fpage,
                    )
                for fpage, page_id in zip(checked, headers[at].tolist()):
                    if page_id != fpage:
                        report.add_finding(
                            "page-id",
                            f"embedded pageID {page_id} != {fpage}",
                            label=label,
                            fpage=fpage,
                        )

        # Semantic ground truth: a partial view indexes exactly the
        # pages holding at least one value in its covered range; the
        # full view indexes everything (checked above).
        if check_semantics and not view.is_full_view:
            report.checks += 1
            expected = column.pages_with_values_in(view.lo, view.hi)
            if not np.array_equal(mapped, expected):
                missing = np.setdiff1d(expected, mapped).tolist()
                extra = np.setdiff1d(mapped, expected).tolist()
                report.add_finding(
                    "semantic-page-set",
                    f"view page set diverges from ground truth "
                    f"(missing {missing}, extra {extra})",
                    label=label,
                    view_range=vrange,
                )
        return int(mapped.size)
