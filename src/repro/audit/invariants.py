"""The invariant auditor: view catalog ↔ VMAs ↔ bimap ↔ physical data.

:class:`InvariantAuditor` cross-checks the four representations of
mapping state the adaptive stack keeps (PAPER.md §2.4–2.5):

1. **the view catalog** — each view's own slot bookkeeping;
2. **the address space** — the backend's VMAs and page tables, read
   through uncharged translation (:meth:`Substrate.peek_virtual` and,
   on the simulated backend, ``mapper.translate``);
3. **the bimap snapshot** — a fresh parse of the backend's maps source
   (on the native backend, the kernel's real ``/proc/self/maps``);
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
from .report import AuditReport


class InvariantAuditor:
    """Structural + semantic consistency checks over a column's views."""

    def __init__(self, max_content_pages: int | None = None) -> None:
        """``max_content_pages`` caps the per-view page-content reads
        (None audits every mapped page — fine at test scale; large
        native columns may want a bound, since each native peek parses
        the maps file)."""
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
        wal = getattr(db, "_wal", None)
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
        # catalog says are mapped — no leaked or lost mappings.
        report.checks += 1
        if len(snapshot) != total_mapped:
            report.add_finding(
                "region-accounting",
                f"maps snapshot holds {len(snapshot)} mapped pages, "
                f"the view catalog accounts for {total_mapped}",
                label=label,
            )
        report.maps_regions += substrate.maps_line_count(path)

        if getattr(column.file, "tier_of", None) is not None:
            self._audit_tier_placement(column.file, label, report)

    def _audit_tier_placement(self, store, label: str, report: AuditReport) -> None:
        """Tier-placement invariant over a :class:`TieredPageStore`.

        Every page lives in exactly one tier, the store's running hot
        count equals the pages marked hot and never exceeds budget plus
        recorded debt (debt only exists after spill failures), and each
        cold page's far-tier copy matches the authoritative page
        contents bit for bit.
        """
        num_pages = int(store.num_pages)

        report.checks += 1
        if store.hot.size != num_pages or store.hits.size != num_pages:
            report.add_finding(
                "tier-placement",
                f"placement arrays cover {store.hot.size} pages, "
                f"store holds {num_pages}",
                label=label,
            )
            return

        # Exactly one tier: the cold set is the complement of the hot set.
        report.checks += 1
        cold_pages = np.array(store.cold.pages(), dtype=np.int64)
        expected_cold = np.nonzero(~store.hot)[0].astype(np.int64)
        if not np.array_equal(cold_pages, expected_cold):
            leaked = np.setdiff1d(cold_pages, expected_cold).tolist()
            lost = np.setdiff1d(expected_cold, cold_pages).tolist()
            report.add_finding(
                "tier-placement",
                f"cold tier diverges from placement (cold copies of hot "
                f"pages: {leaked}, cold pages without copies: {lost})",
                label=label,
            )

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

        # Cold-copy agreement: the far-tier copy (spill file on native)
        # matches the authoritative page contents.
        content_budget = (
            self.max_content_pages
            if self.max_content_pages is not None
            else int(expected_cold.size)
        )
        for fpage in expected_cold.tolist():
            if fpage not in store.cold:
                continue  # already reported above
            if content_budget <= 0:
                break
            content_budget -= 1
            report.checks += 1
            cold_copy = store.cold.read_page(fpage)
            direct = np.asarray(store.page_values(fpage))
            if not np.array_equal(cold_copy, direct):
                report.add_finding(
                    "tier-placement",
                    f"cold copy of page {fpage} differs from the "
                    f"authoritative page contents",
                    label=label,
                    fpage=fpage,
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

        content_budget = (
            self.max_content_pages
            if self.max_content_pages is not None
            else int(mapped.size)
        )
        simulated_mapper = getattr(substrate, "mapper", None)
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

            # Page-table agreement (simulated backend): the uncharged
            # translation path agrees with the maps source.
            if simulated_mapper is not None:
                report.checks += 1
                backing = simulated_mapper.translate(vpn)
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

            if content_budget <= 0:
                continue
            content_budget -= 1

            # Physical contents: reading through the view's virtual page
            # yields the column's physical page, and the embedded pageID
            # still matches.
            report.checks += 1
            through_view = substrate.peek_virtual(vpn)
            direct = column.file.page_values(fpage)
            if not np.array_equal(through_view, direct):
                report.add_finding(
                    "content-agreement",
                    f"virtual read of vpn {vpn} differs from physical "
                    f"page {fpage}",
                    label=label,
                    view_range=vrange,
                    fpage=fpage,
                )
            report.checks += 1
            if column.file.page_id(fpage) != fpage:
                report.add_finding(
                    "page-id",
                    f"embedded pageID {column.file.page_id(fpage)} != {fpage}",
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
