"""Interchangeable memory substrates under the adaptive stack.

The substrate protocol (:class:`~repro.substrate.interface.Substrate`)
is the minimal memory-management surface the storage/core/bench layers
consume; two backends implement it:

* :class:`~repro.substrate.simulated.SimulatedSubstrate` — the
  deterministic, cost-modelled simulator.  The default, and the source
  of every headline number.
* :class:`~repro.substrate.native.NativeSubstrate` — the real Linux
  kernel (memfd files, ``mmap(MAP_FIXED)`` rewiring, ``/proc/self/maps``),
  for end-to-end mechanism validation and wall-clock measurements.
  Linux only; constructing it elsewhere raises
  :class:`~repro.native.rewiring.RewiringUnsupportedError`.

:func:`make_substrate` is the front door:
``AdaptiveDatabase(backend="native")`` and the CLI route through it.
"""

from __future__ import annotations

from ..vm.cost import CostModel
from .interface import PageStore, Substrate, WallClockLedger
from .simulated import SHM_PREFIX, SimulatedSubstrate

#: Backend names :func:`make_substrate` accepts.
BACKENDS = ("simulated", "native")


def make_substrate(
    backend: str | Substrate = "simulated",
    *,
    capacity_bytes: int | None = None,
    cost: CostModel | None = None,
) -> Substrate:
    """Build the substrate for ``backend``.

    Accepts a backend name (``"simulated"`` / ``"native"``) or an
    already-constructed :class:`Substrate` (returned as-is, so callers
    can inject a pre-configured backend).
    """
    if isinstance(backend, Substrate):
        return backend
    if backend == "simulated":
        return SimulatedSubstrate(capacity_bytes=capacity_bytes, cost=cost)
    if backend == "native":
        from .native import NativeSubstrate

        return NativeSubstrate(capacity_bytes=capacity_bytes, cost=cost)
    raise ValueError(
        f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
    )


__all__ = [
    "BACKENDS",
    "PageStore",
    "SHM_PREFIX",
    "SimulatedSubstrate",
    "Substrate",
    "WallClockLedger",
    "make_substrate",
]
