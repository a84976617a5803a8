"""A small query layer on top of the adaptive storage views.

The paper's introduction frames the classical interface as
``getRecordsWithValue(keyRange)`` → record ids → ``getRecord(recordID)``.
This module implements that pipeline against the fused design: range
selection runs through a column's adaptive view layer, and the returned
row ids drive projections into sibling columns and aggregate
computation.

Projections pay realistic costs: fetching scattered rows from a
non-indexed column touches its pages randomly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..obs.observer import NullObserver
from ..storage.table import Table
from ..vm.cost import MAIN_LANE
from .adaptive import AdaptiveStorageLayer, QueryResult
from .config import AdaptiveConfig

if TYPE_CHECKING:
    from .facade import AdaptiveDatabase


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
    """Range selection, projection and aggregation over one table.

    A standalone engine maintains one adaptive storage layer per
    filtered column (created on demand, all sharing the table's cost
    model).  An engine built over a database (``db=``) owns none: it
    borrows ``db.layer(table, column)``, so a column has one layer — and
    its pending-update log one consumer — however it is reached.
    """

    def __init__(
        self,
        table: Table,
        config: AdaptiveConfig | None = None,
        observer: "NullObserver | None" = None,
        db: "AdaptiveDatabase | None" = None,
    ) -> None:
        """``db`` is the database holding ``table``; with it, ``config``
        and ``observer`` are the database's and must not be passed."""
        if db is not None:
            if config is not None or observer is not None:
                raise ValueError(
                    "an engine over a database uses the database's config "
                    "and observer"
                )
            config, observer = db.config, db.observer
        self.table = table
        self.config = config or AdaptiveConfig()
        self.observer = observer
        self._db = db
        self._layers: dict[str, AdaptiveStorageLayer] = {}

    def layer(self, column_name: str) -> AdaptiveStorageLayer:
        """The adaptive layer of one column: the database's when the
        engine was built over one, else the engine's own (created
        lazily)."""
        if self._db is not None:
            return self._db.layer(self.table.name, column_name)
        if column_name not in self._layers:
            column = self.table.column(column_name)
            self._layers[column_name] = AdaptiveStorageLayer(
                column, self.config, observer=self.observer
            )
        return self._layers[column_name]

    # -- selection -----------------------------------------------------------

    def select(
        self, column_name: str, lo: int, hi: int, full_scan: bool = False
    ) -> QueryResult:
        """getRecordsWithValue(keyRange) on one column, view-routed.

        Pending (unflushed) updates are aligned first — partial views
        must never serve stale page sets — and tombstoned rows are
        filtered from the result.

        ``full_scan=True`` selects the degraded planner tier: the
        predicate is answered through the full view only, with no view
        adaptation and no update alignment (the full view reads the
        physical pages directly, so it is never stale).  Admission
        control uses this tier to keep serving under memory pressure.
        """
        layer = self.layer(column_name)
        if full_scan:
            result = layer.scan_full(lo, hi)
            keep = self.table.tombstones.live_row_mask(result.rowids)
            if keep is not None:
                result.rowids = result.rowids[keep]
                result.values = result.values[keep]
                result.stats.result_rows = int(result.rowids.size)
            return result
        pending = self.table.pending_updates(column_name)
        if len(pending):
            layer.apply_updates(self.table.drain_updates(column_name))
        result = layer.answer_query(lo, hi)
        keep = self.table.tombstones.live_row_mask(result.rowids)
        if keep is not None:
            result.rowids = result.rowids[keep]
            result.values = result.values[keep]
            result.stats.result_rows = int(result.rowids.size)
        return result

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
            total=int(values.sum()),
            minimum=int(values.min()),
            maximum=int(values.max()),
        )

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Shut down the engine's own layers (stops background mapping
        threads); borrowed layers stay with their database."""
        for layer in self._layers.values():
            layer.shutdown()
        self._layers.clear()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
