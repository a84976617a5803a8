"""Unit and property tests for row/page layout arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage import layout
from repro.vm.constants import VALUES_PER_PAGE


class TestLayout:
    def test_first_page(self):
        assert layout.row_to_page(0) == 0
        assert layout.row_to_slot(0) == 0
        assert layout.row_to_page(VALUES_PER_PAGE - 1) == 0

    def test_page_boundary(self):
        assert layout.row_to_page(VALUES_PER_PAGE) == 1
        assert layout.row_to_slot(VALUES_PER_PAGE) == 0

    def test_negative_rows_rejected(self):
        with pytest.raises(ValueError):
            layout.row_to_page(-1)
        with pytest.raises(ValueError):
            layout.row_to_slot(-1)

    def test_pages_for_rows(self):
        assert layout.pages_for_rows(1) == 1
        assert layout.pages_for_rows(VALUES_PER_PAGE) == 1
        assert layout.pages_for_rows(VALUES_PER_PAGE + 1) == 2

    def test_pages_for_rows_rejects_empty(self):
        with pytest.raises(ValueError):
            layout.pages_for_rows(0)

    def test_rows_in_page(self):
        num_rows = VALUES_PER_PAGE + 5
        assert layout.rows_in_page(0, num_rows) == VALUES_PER_PAGE
        assert layout.rows_in_page(1, num_rows) == 5
        assert layout.rows_in_page(2, num_rows) == 0


@given(row=st.integers(0, 10**12))
def test_row_roundtrip(row):
    """row -> (page, slot) -> row is the identity."""
    page, slot = layout.row_to_page(row), layout.row_to_slot(row)
    assert page * VALUES_PER_PAGE + slot == row
    assert 0 <= slot < VALUES_PER_PAGE


@given(num_rows=st.integers(1, 10**7))
def test_pages_cover_all_rows(num_rows):
    """pages_for_rows produces exactly enough pages."""
    pages = layout.pages_for_rows(num_rows)
    assert layout.row_to_page(num_rows - 1) == pages - 1
    assert sum(layout.rows_in_page(p, num_rows) for p in range(pages)) == num_rows
