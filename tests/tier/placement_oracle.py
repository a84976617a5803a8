"""The tier's placement rule as a plain per-page loop: the parity oracle.

``TieredPageStore.record_batch_access`` accounts a scan with array
operations and decides the batch's placement with one sort of the
candidates, one sort of the victims, one comparison and one ``argmin``
(``TieredPageStore._place``).  This file states the same rule one page
and one (candidate, victim) pair at a time, on top of the store's own
per-page primitives (``_spill_read``, ``demote``, ``_install_hot``,
``governor.deny``, ``maintenance``), so fault-plane consultation, spill
writes and charges happen through the very same code in both.
``tests/tier/test_placement.py`` runs two stores side by side — one as
shipped, one with :func:`install` applied — and requires equal
placement, counters, cold contents and ledgers after every access.
"""

from __future__ import annotations

from functools import partial

from repro.vm.cost import MAIN_LANE


def oracle_place(store, cold_pages: list[int], cost, lane: str) -> None:
    """One (candidate, victim) pair at a time."""
    hits, last = store.hits, store.last_access
    candidates = sorted(
        (p for p in cold_pages if hits[p] >= store.config.promote_after),
        key=lambda p: (-hits[p], p),
    )
    if not candidates:
        return
    # Coldest first, fixed before any page of this batch turns hot, so
    # a same-batch promotion can never be chosen as a victim.
    victims = sorted(
        (p for p in range(store.hot.size) if store.hot[p]),
        key=lambda p: (hits[p], last[p], p),
    )
    budget = store.governor.budget
    hot = sum(bool(flag) for flag in store.hot)
    for candidate in candidates:
        if budget is None or hot < budget:
            store._install_hot(candidate, cost, lane)
            hot += 1
            continue
        if not victims or not hits[candidate] > hits[victims[0]]:
            break  # both sides are sorted: no later pair can win
        victim = victims.pop(0)
        if store.demote(victim, cost, lane=lane):
            store._install_hot(candidate, cost, lane)
        else:
            store.governor.deny(1)
    store.governor._sync_debt()


def oracle_record_batch_access(
    store, fpages, cost, lane: str = MAIN_LANE, kind: str = "seq"
) -> None:
    """``record_batch_access``, one page at a time."""
    fpages = [int(p) for p in fpages]
    if not fpages:
        return
    store._clock += 1
    cold_pages = []
    for fpage in fpages:
        store.last_access[fpage] = store._clock
        store.hits[fpage] += 1.0
        if store.hot[fpage]:
            store.hot_hits += 1
        else:
            store.cold_hits += 1
            cold_pages.append(fpage)
    if cold_pages:
        if getattr(store._substrate, "_check", None) is None:
            # No fault plane: the shipped code books the batch's cold
            # reads as one charge, and float lanes are order-sensitive.
            if cost is not None:
                cost.cold_read(len(cold_pages), lane)
        else:
            for fpage in cold_pages:
                store._spill_read(fpage, cost, lane)
        oracle_place(store, cold_pages, cost, lane)
    store._since_maintenance += len(fpages)
    if store._since_maintenance >= store.hot.size:
        store.maintenance(cost, lane)


def oracle_record_access(
    store, fpage, cost, lane: str = MAIN_LANE, kind: str = "seq"
) -> None:
    oracle_record_batch_access(store, [fpage], cost, lane=lane, kind=kind)


def install(store) -> None:
    """Route ``store``'s read accounting through the oracle."""
    store.record_batch_access = partial(oracle_record_batch_access, store)
    store.record_access = partial(oracle_record_access, store)
