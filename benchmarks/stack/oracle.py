"""The numpy oracle: what every read must have returned.

The benchmark keeps its own copy of each column and applies writes to
it in acknowledgement order; nothing here asks the program under test
what the right answer is.  Every check runs outside the timed region.
"""

from __future__ import annotations

import hashlib
from itertools import product

import numpy as np


def expect(values: np.ndarray, lo: int, hi: int) -> tuple[int, int]:
    """(row count, value sum) of ``lo <= value <= hi`` over ``values``."""
    hits = values[(values >= lo) & (values <= hi)]
    return int(hits.size), int(hits.sum())


class StaticColumn:
    """Range answers over a column that never changes, in O(log n) each."""

    def __init__(self, values: np.ndarray) -> None:
        self._sorted = np.sort(values)
        self._prefix = np.concatenate([[0], np.cumsum(self._sorted)])

    def expect(self, lo: int, hi: int) -> tuple[int, int]:
        first = int(np.searchsorted(self._sorted, lo, side="left"))
        last = int(np.searchsorted(self._sorted, hi, side="right"))
        return last - first, int(self._prefix[last] - self._prefix[first])


def digest(rowids: np.ndarray, values: np.ndarray) -> str:
    """Order-invariant digest of a result set.

    The wire protocol's ``checksum`` definition, restated here so the
    expected side never runs the program's code: rows sorted by rowid,
    blake2b-128 over the raw int64 rowids then values.
    """
    rowids = np.ascontiguousarray(rowids, dtype=np.int64)
    values = np.ascontiguousarray(values, dtype=np.int64)
    if rowids.size > 1 and not np.all(rowids[1:] > rowids[:-1]):
        order = np.argsort(rowids, kind="stable")
        rowids, values = rowids[order], values[order]
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(memoryview(rowids).cast("B"))
    hasher.update(memoryview(values).cast("B"))
    return hasher.hexdigest()


def full_digest(values: np.ndarray) -> str:
    """Digest of a full-domain read of a column holding ``values``."""
    return digest(np.arange(values.size, dtype=np.int64), values)


def count_wrong(answers: list[tuple[int, int]], expected: list[tuple[int, int]]) -> int:
    """Reads whose (rows, sum) differ from the oracle's.

    A read that raised answered None and is already a failed op.
    """
    return sum(
        1 for got, want in zip(answers, expected) if got is not None and got != want
    )


def check_concurrent_reads(
    initial: np.ndarray,
    reads: list[tuple[int, int, int, int, int, tuple[int, int]]],
    writes: list[list[tuple[int, int, int, int]]],
) -> int:
    """Wrong reads among concurrent sessions; returns how many.

    ``reads`` are ``(session, sent_ns, acked_ns, lo, hi, (rows, sum))``;
    ``writes[j]`` are session ``j``'s acknowledged updates in order,
    ``(sent_ns, acked_ns, row, value)``.  The server applies requests
    one at a time, so a read must reflect every write acknowledged
    before the read was sent, no write sent after the read was
    acknowledged, and — for the writes of another session in flight
    meanwhile — some *prefix* of them.  A read is right when its answer
    matches one such prefix choice.
    """
    mirror = initial.copy()
    applied = [0] * len(writes)
    wrong = 0
    for session, sent, acked, lo, hi, answer in sorted(reads, key=lambda r: r[1]):
        in_flight: list[list[tuple[int, int]]] = []
        for j, stream in enumerate(writes):
            k = applied[j]
            while k < len(stream) and stream[k][1] <= sent:
                mirror[stream[k][2]] = stream[k][3]
                k += 1
            applied[j] = k
            window = []
            while k < len(stream) and stream[k][0] < acked:
                window.append((stream[k][2], stream[k][3]))
                k += 1
            in_flight.append(window)
        base_rows, base_sum = expect(mirror, lo, hi)
        # Per session, the (rows, sum) change after each prefix length.
        prefix_deltas = []
        for window in in_flight:
            deltas = [(0, 0)]
            overlay: dict[int, int] = {}
            rows = total = 0
            for row, value in window:
                old = overlay.get(row, int(mirror[row]))
                if lo <= old <= hi:
                    rows -= 1
                    total -= old
                if lo <= value <= hi:
                    rows += 1
                    total += value
                overlay[row] = value
                deltas.append((rows, total))
            prefix_deltas.append(deltas)
        possible = {
            (
                base_rows + sum(d[0] for d in choice),
                base_sum + sum(d[1] for d in choice),
            )
            for choice in product(*prefix_deltas)
        }
        if answer not in possible:
            wrong += 1
    return wrong
