"""A small query layer on top of the adaptive storage views.

The paper's introduction frames the classical interface as
``getRecordsWithValue(keyRange)`` → record ids → ``getRecord(recordID)``.
This module implements that pipeline against the fused design: range
selection is the database's own read path (``AdaptiveDatabase.query``,
routed through the column's adaptive view layer), and the returned row
ids drive projections into sibling columns and aggregate computation.

Projections pay realistic costs: fetching scattered rows from a
non-indexed column touches its pages randomly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..vm.constants import MAX_VALUE
from ..vm.cost import MAIN_LANE
from .adaptive import QueryResult
from .facade import AdaptiveDatabase


def exact_sum(values: np.ndarray) -> int:
    """The sum of int64 ``values`` as an exact Python ``int``.

    numpy's int64 sum wraps modulo 2**64, so it is exact whenever the
    true sum fits int64 — certain once no value lies further from zero
    than ``MAX_VALUE // n``, which the two extremes show.  Otherwise the
    high and the low 32 bits of the values are summed apart; neither sum
    can wrap below 2**31 values.
    """
    n = values.size
    if n == 0:
        return 0
    limit = MAX_VALUE // n
    # ``argmin``/``argmax``: a ufunc reduction's set-up outweighs a
    # short result.
    if -limit <= values[values.argmin()] and values[values.argmax()] <= limit:
        return int(values.sum())
    return (int((values >> 32).sum()) << 32) + int((values & 0xFFFFFFFF).sum())


@dataclass(frozen=True)
class AggregateResult:
    """Aggregates over the values selected by a range predicate."""

    count: int
    total: int
    minimum: int | None
    maximum: int | None

    @property
    def average(self) -> float | None:
        """Arithmetic mean of the selected values (None if empty)."""
        if self.count == 0:
            return None
        return self.total / self.count


@dataclass
class RecordSet:
    """A selection result joined with projected sibling columns."""

    rowids: np.ndarray
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.rowids.size)

    def records(self) -> list[tuple[int, ...]]:
        """Materialize (rowid, col values...) tuples in rowid order."""
        order = np.argsort(self.rowids)
        cols = [self.columns[name][order] for name in self.columns]
        rows = self.rowids[order]
        return [
            (int(row), *(int(col[i]) for col in cols))
            for i, row in enumerate(rows.tolist())
        ]


class QueryEngine:
    """Range selection, projection and aggregation over one table of a
    database.

    The engine owns no storage: a selection is ``db.query`` (or
    ``db.scan``), so a column has one adaptive layer — and its
    pending-update log one consumer — however it is reached.
    """

    def __init__(self, db: AdaptiveDatabase, table_name: str) -> None:
        self.db = db
        self.table = db.table(table_name)

    # -- selection -----------------------------------------------------------

    def select(
        self, column_name: str, lo: int, hi: int, full_scan: bool = False
    ) -> QueryResult:
        """getRecordsWithValue(keyRange) on one column: ``db.query``.

        ``full_scan=True`` selects the degraded planner tier,
        ``db.scan``: the predicate is answered through the full view
        only, with no view adaptation.  Admission control uses this tier
        to keep serving under memory pressure.
        """
        answer = self.db.scan if full_scan else self.db.query
        return answer(self.table.name, column_name, lo, hi)

    def select_conjunction(
        self,
        predicates: dict[str, tuple[int, int]],
        full_scan: bool = False,
    ) -> np.ndarray:
        """Rows satisfying range predicates on several columns (AND).

        Each predicate is answered through its own column's adaptive
        layer; the row-id sets are then intersected.  Predicates are
        evaluated most-selective-first so the intersection shrinks early.
        """
        if not predicates:
            raise ValueError("need at least one predicate")
        selections = []
        for column_name, (lo, hi) in predicates.items():
            result = self.select(column_name, lo, hi, full_scan=full_scan)
            selections.append(result.rowids)
        selections.sort(key=lambda rowids: rowids.size)
        intersection = selections[0]
        for rowids in selections[1:]:
            intersection = np.intersect1d(
                intersection, rowids, assume_unique=True
            )
        return intersection

    # -- projection ------------------------------------------------------------

    def fetch(
        self,
        rowids: np.ndarray,
        column_names: list[str],
        lane: str = MAIN_LANE,
    ) -> dict[str, np.ndarray]:
        """Fetch the given rows from the named columns.

        The rows are scattered, so each projected column pays one random
        page access per distinct touched page plus the value reads.
        """
        rowids = np.asarray(rowids, dtype=np.int64)
        out: dict[str, np.ndarray] = {}
        for name in column_names:
            column = self.table.column(name)
            if rowids.size:
                if rowids.min() < 0 or rowids.max() >= column.num_rows:
                    raise IndexError("rowid out of range for projection")
            per_page = column.values_per_page
            pages = rowids // per_page
            slots = rowids % per_page
            cost = column.cost
            distinct_pages = int(np.unique(pages).size)
            cost.page_access("random", distinct_pages, lane)
            cost.stream_values(
                int(rowids.size) * column.value_cost_factor, "random", lane
            )
            out[name] = column.file.data[pages, slots]
        return out

    def select_records(
        self,
        filter_column: str,
        lo: int,
        hi: int,
        project: list[str] | None = None,
    ) -> RecordSet:
        """Filter one column, project others: the full classical pipeline."""
        result = self.select(filter_column, lo, hi)
        record_set = RecordSet(rowids=result.rowids)
        record_set.columns[filter_column] = result.values
        projected = [
            name
            for name in (project or [])
            if name != filter_column
        ]
        record_set.columns.update(self.fetch(result.rowids, projected))
        return record_set

    # -- joins ------------------------------------------------------------------

    def hash_join(
        self,
        other: "QueryEngine",
        left_column: str,
        right_column: str,
        left_predicates: dict[str, tuple[int, int]] | None = None,
        right_predicates: dict[str, tuple[int, int]] | None = None,
    ) -> np.ndarray:
        """Equi-join two tables on value equality (hash join).

        Each side is filtered through its own adaptive views first; the
        smaller filtered side builds the hash table.  Returns an array of
        ``(left_rowid, right_rowid)`` pairs, shape ``(n, 2)``.
        """
        left_rows = self._side_rows(self, left_predicates)
        right_rows = self._side_rows(other, right_predicates)
        left_values = self.fetch(left_rows, [left_column])[left_column]
        right_values = other.fetch(right_rows, [right_column])[right_column]

        build_rows, build_values = left_rows, left_values
        probe_rows, probe_values = right_rows, right_values
        swapped = False
        if right_rows.size < left_rows.size:
            build_rows, build_values = right_rows, right_values
            probe_rows, probe_values = left_rows, left_values
            swapped = True

        table: dict[int, list[int]] = {}
        for row, value in zip(build_rows.tolist(), build_values.tolist()):
            table.setdefault(value, []).append(row)

        pairs: list[tuple[int, int]] = []
        for row, value in zip(probe_rows.tolist(), probe_values.tolist()):
            for match in table.get(value, ()):
                pairs.append((match, row) if not swapped else (row, match))
        # build + probe passes over the filtered values
        cost = self.table.columns[left_column].cost
        cost.update_check(int(build_rows.size) + int(probe_rows.size))
        if not pairs:
            return np.empty((0, 2), dtype=np.int64)
        return np.array(pairs, dtype=np.int64)

    @staticmethod
    def _side_rows(
        engine: "QueryEngine", predicates: dict[str, tuple[int, int]] | None
    ) -> np.ndarray:
        if predicates:
            return engine.select_conjunction(predicates)
        return np.arange(engine.table.num_rows, dtype=np.int64)

    # -- aggregation --------------------------------------------------------------

    def aggregate(self, column_name: str, lo: int, hi: int) -> AggregateResult:
        """COUNT / SUM / MIN / MAX / AVG over a range predicate."""
        result = self.select(column_name, lo, hi)
        values = result.values
        if values.size == 0:
            return AggregateResult(count=0, total=0, minimum=None, maximum=None)
        return AggregateResult(
            count=int(values.size),
            total=exact_sum(values),
            minimum=int(values.min()),
            maximum=int(values.max()),
        )
