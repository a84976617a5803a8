"""Unit tests for the invariant auditor: it passes on healthy state and
catches each class of deliberately planted corruption."""

import numpy as np
import pytest

from repro.audit import InvariantAuditor, run_audited_session
from repro.core.config import AdaptiveConfig
from repro.core.facade import AdaptiveDatabase
from repro.faults import FaultySubstrate
from repro.substrate import make_substrate

from ..conftest import to_reservation


def _grown_db(num_pages: int = 8, queries: int = 8, backend="simulated"):
    rng = np.random.default_rng(21)
    values = rng.integers(0, 1_000_000, size=num_pages * 512, dtype=np.int64)
    db = AdaptiveDatabase(
        config=AdaptiveConfig(background_mapping=False), backend=backend
    )
    db.create_table("t", {"x": values})
    for _ in range(queries):
        lo = int(rng.integers(0, 900_000))
        db.query("t", "x", lo, lo + 60_000)
    return db


def _some_partial(db):
    layer = db.layer("t", "x")
    partials = [v for v in layer.view_index.partial_views if v.num_pages > 0]
    assert partials, "session did not grow a partial view"
    return layer, partials[0]


class TestHealthyState:
    def test_clean_database_passes(self):
        with _grown_db() as db:
            report = db.audit()
        assert report.ok
        assert report.checks > 0
        assert report.mapped_pages > 0
        assert any(v["full"] for v in report.views)

    def test_pending_updates_skip_semantics_only(self):
        with _grown_db() as db:
            db.update("t", "x", 0, 999_999)  # pending, not flushed
            report = db.audit()
            assert report.ok
            assert not report.semantics_checked
            db.flush_updates("t", "x")
            report = db.audit()
            assert report.ok
            assert report.semantics_checked

    def test_audited_sessions_pass_on_all_fault_levels(self):
        for level in ("none", "light", "heavy"):
            result = run_audited_session(
                num_pages=16, num_queries=12, faults=level, seed=2
            )
            assert result.ok, result.render()
        assert result.faults  # the heavy schedule certainly fired


class TestPlantedCorruption:
    def test_detects_lost_mapping(self):
        """A page unmapped behind the catalog's back is found."""
        with _grown_db() as db:
            layer, view = _some_partial(db)
            fpage = int(view.mapped_fpages()[0])
            to_reservation(db.substrate, view.vpn_of(fpage))
            report = db.audit()
        assert not report.ok
        assert {f.invariant for f in report.findings} >= {"snapshot-agreement"}

    def test_detects_wrong_page_set(self):
        """A structurally clean view with the wrong page set is found."""
        with _grown_db() as db:
            layer, view = _some_partial(db)
            fpage = int(view.mapped_fpages()[0])
            view.remove_page(fpage)  # clean removal, semantically wrong
            report = db.audit()
        assert not report.ok
        assert any(
            f.invariant == "semantic-page-set" for f in report.findings
        )

    def test_detects_torn_catalog(self):
        """Slot bookkeeping that disagrees with itself is found."""
        with _grown_db() as db:
            layer, view = _some_partial(db)
            view._num_mapped += 1  # claim a page that is not there
            view._mapped_cache = None
            report = db.audit()
        assert not report.ok
        assert any(
            f.invariant == "catalog-bijection" for f in report.findings
        )

    def test_detects_corrupted_page_id(self):
        """A clobbered embedded pageID header is found."""
        with _grown_db() as db:
            layer, view = _some_partial(db)
            fpage = int(view.mapped_fpages()[0])
            layer.column.file.set_page_id(fpage, fpage + 1)
            report = InvariantAuditor().audit_layer(
                layer, check_semantics=False
            )
        assert not report.ok
        assert any(f.invariant == "page-id" for f in report.findings)

    @pytest.mark.parametrize("faulty", [False, True], ids=["bare", "fault-plane"])
    def test_detects_wrong_page_table_translation(self, faulty, monkeypatch):
        """The simulated page tables (``substrate.address_space``) are
        cross-checked against the maps source, also behind a fault plane:
        a translation that strays from the maps is found."""
        backend = make_substrate("simulated")
        if faulty:
            backend = FaultySubstrate(backend)
        with _grown_db(backend=backend) as db:
            layer, view = _some_partial(db)
            fpage = int(view.mapped_fpages()[0])
            vpn = view.vpn_of(fpage)
            aspace = db.substrate.address_space
            translate = aspace.translate

            def misrouted(page: int):
                backing = translate(page)
                if page != vpn:
                    return backing
                return backing[0], backing[1] + 1

            monkeypatch.setattr(aspace, "translate", misrouted)
            report = db.audit()
        assert not report.ok
        planted = [f for f in report.findings if f.invariant == "page-table-agreement"]
        assert [f.fpage for f in planted] == [fpage]
        assert "snapshot-agreement" not in {f.invariant for f in report.findings}

    def test_report_render_mentions_findings(self):
        with _grown_db() as db:
            layer, view = _some_partial(db)
            to_reservation(db.substrate, view.vpn_of(int(view.mapped_fpages()[0])))
            report = db.audit()
        text = report.render()
        assert "FAIL" in text
        assert "snapshot-agreement" in text
