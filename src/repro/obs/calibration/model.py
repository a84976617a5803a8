"""Online per-span-kind pairing of simulated and measured cost.

Every finished span that carries a wall-clock reading contributes one
``(simulated ns, measured ns)`` observation to its kind's
:class:`KindStats`.  The accumulator keeps the sufficient statistics of
a through-origin least-squares regression, so the model maintains both
the plain ratio ``Σwall / Σsim`` and the regression slope
``Σ(sim·wall) / Σ(sim²)`` without storing individual spans.

When the two clocks diverge beyond a threshold, :meth:`
CalibrationModel.findings` emits :class:`DriftFinding` records with a
confidence score and suggested corrections for the cost constants that
dominate the drifting span kind (:data:`KIND_CONSTANTS`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...vm.cost import CostParameters
from ..span import Tracer

#: Cost constants that dominate each span kind's simulated charge — the
#: knobs a drift finding suggests corrections for.  Composite kinds
#: (``query``, ``statement``) aggregate their children and map to no
#: single constant.
KIND_CONSTANTS: dict[str, tuple[str, ...]] = {
    "scan": ("seq_value_read_ns", "seq_page_access_ns", "page_header_read_ns"),
    "scan-view": (
        "seq_value_read_ns",
        "seq_page_access_ns",
        "page_header_read_ns",
    ),
    "scan-stale": ("seq_value_read_ns", "seq_page_access_ns"),
    "map-pages": ("mmap_syscall_ns", "mmap_per_page_ns", "soft_fault_ns"),
    "candidate": ("mmap_syscall_ns", "mmap_per_page_ns"),
    "maps-parse": ("maps_line_parse_ns", "maps_file_open_ns"),
    "align-views": ("update_check_ns", "bimap_op_ns", "mmap_syscall_ns"),
    "maintenance": ("maps_line_parse_ns", "update_check_ns", "bimap_op_ns"),
}

#: Spans needed before a kind can raise a finding at all.
MIN_SPANS = 3

#: Default relative divergence tolerated before a finding fires:
#: measured/predicted outside ``[1/(1+t), 1+t]`` counts as drift.
DEFAULT_THRESHOLD = 0.5


@dataclass
class KindStats:
    """Sufficient statistics of one span kind's sim-vs-wall pairing."""

    kind: str
    #: Paired spans ingested.
    spans: int = 0
    #: Total simulated nanoseconds across the paired spans.
    sim_ns: float = 0.0
    #: Total measured wall nanoseconds across the paired spans.
    wall_ns: float = 0.0
    #: Share of :attr:`wall_ns` spent inside substrate syscalls.
    substrate_ns: float = 0.0
    #: ``Σ sim²`` — regression denominator.
    sum_sim_sq: float = 0.0
    #: ``Σ sim · wall`` — regression numerator.
    sum_sim_wall: float = 0.0
    #: Smallest per-span wall/sim ratio seen.
    min_ratio: float = float("inf")
    #: Largest per-span wall/sim ratio seen.
    max_ratio: float = 0.0

    def record(self, sim_ns: float, wall_ns: float, substrate_ns: float = 0.0) -> None:
        """Fold one paired span into the accumulator."""
        self.spans += 1
        self.sim_ns += sim_ns
        self.wall_ns += wall_ns
        self.substrate_ns += substrate_ns
        self.sum_sim_sq += sim_ns * sim_ns
        self.sum_sim_wall += sim_ns * wall_ns
        ratio = wall_ns / sim_ns
        self.min_ratio = min(self.min_ratio, ratio)
        self.max_ratio = max(self.max_ratio, ratio)

    @property
    def ratio(self) -> float:
        """Aggregate measured/predicted ratio (``Σwall / Σsim``)."""
        return self.wall_ns / self.sim_ns if self.sim_ns else 0.0

    @property
    def slope(self) -> float:
        """Through-origin regression slope ``Σ(sim·wall) / Σ(sim²)``.

        Weighs long spans more than the plain ratio does; agreement
        between the two estimators is evidence the relation really is
        linear (and feeds :attr:`confidence`).
        """
        return self.sum_sim_wall / self.sum_sim_sq if self.sum_sim_sq else 0.0

    @property
    def confidence(self) -> float:
        """How much to trust :attr:`ratio`, in ``[0, 1]``.

        The product of a sample-size term (``n / (n + 8)``: half
        confidence at eight spans) and an estimator-agreement term (the
        smaller of ratio and slope over the larger): scattered per-span
        ratios drag the two estimators apart and the confidence down.
        """
        if self.spans == 0 or self.ratio <= 0.0 or self.slope <= 0.0:
            return 0.0
        size = self.spans / (self.spans + 8)
        pair = sorted((self.ratio, self.slope))
        return size * (pair[0] / pair[1])

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly record, wall-derived values under ``"wall"``.

        The split is the determinism contract of
        ``BENCH_calibration.json``: everything outside ``"wall"`` (and
        the report's ``"findings"``) is a pure function of the seeded
        simulated session, so two identically-seeded runs agree on it
        byte for byte.
        """
        return {
            "kind": self.kind,
            "spans": self.spans,
            "sim_ns": self.sim_ns,
            "constants": list(KIND_CONSTANTS.get(self.kind, ())),
            "wall": {
                "wall_ns": self.wall_ns,
                "substrate_ns": self.substrate_ns,
                "ratio": self.ratio,
                "slope": self.slope,
                "confidence": self.confidence,
                "min_ratio": self.min_ratio if self.spans else 0.0,
                "max_ratio": self.max_ratio,
            },
        }


@dataclass(frozen=True)
class DriftFinding:
    """One structured drift diagnosis for a span kind."""

    #: The drifting span kind.
    kind: str
    #: Aggregate measured/predicted ratio (> 1: model too optimistic).
    ratio: float
    #: Regression-slope estimate of the same quantity.
    slope: float
    #: Trust in the diagnosis, ``[0, 1]``.
    confidence: float
    #: Paired spans behind the diagnosis.
    spans: int
    #: Total simulated nanoseconds of the kind.
    sim_ns: float
    #: Total measured nanoseconds of the kind.
    wall_ns: float
    #: ``"slow"`` (measured > predicted) or ``"fast"``.
    direction: str
    #: Suggested corrections: constant name -> rescaled value.
    suggestions: dict[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        """One-line human summary."""
        parts = [
            f"{self.kind}: measured {self.ratio:.2f}x of predicted "
            f"({self.direction}, confidence {self.confidence:.2f}, "
            f"{self.spans} spans)"
        ]
        for name, value in self.suggestions.items():
            parts.append(f"suggest {name} -> {value:g}")
        return "; ".join(parts)


class CalibrationModel:
    """Accumulates sim-vs-wall pairs per span kind and diagnoses drift."""

    def __init__(self, params: CostParameters | None = None) -> None:
        self.params = params or CostParameters()
        self._kinds: dict[str, KindStats] = {}

    def record(
        self, kind: str, sim_ns: float, wall_ns: float, substrate_ns: float = 0.0
    ) -> None:
        """Fold one paired observation into the kind's accumulator.

        Observations with no simulated charge carry no calibration
        signal (there is no prediction to compare against) and are
        dropped.
        """
        if sim_ns <= 0.0:
            return
        stats = self._kinds.get(kind)
        if stats is None:
            stats = self._kinds[kind] = KindStats(kind=kind)
        stats.record(sim_ns, wall_ns, substrate_ns)

    def ingest(self, tracer: Tracer) -> int:
        """Pair every wall-timed finished span still buffered in ``tracer``.

        Returns the number of spans ingested.  Spans without wall
        readings (simulated-backend sessions) are skipped — calibration
        needs both clocks.
        """
        ingested = 0
        for span in tracer.finished_spans():
            if not span.wall_ns:
                continue
            self.record(
                span.name,
                span.duration_ns,
                span.wall_ns,
                span.wall_substrate_ns,
            )
            ingested += 1
        return ingested

    def kinds(self) -> dict[str, KindStats]:
        """The per-kind accumulators, keyed by span kind."""
        return dict(self._kinds)

    def findings(
        self,
        threshold: float = DEFAULT_THRESHOLD,
        min_spans: int = MIN_SPANS,
        min_confidence: float = 0.2,
    ) -> list[DriftFinding]:
        """Diagnose every kind whose clocks diverge beyond ``threshold``.

        Divergence is symmetric in log space: a kind drifts when its
        ratio leaves ``[1/(1+threshold), 1+threshold]``.  Kinds with too
        few spans or too little confidence stay silent — a handful of
        noisy syscalls must not re-tune the cost model.
        """
        if threshold <= 0.0:
            raise ValueError("drift threshold must be positive")
        upper = 1.0 + threshold
        lower = 1.0 / upper
        found = []
        for kind in sorted(self._kinds):
            stats = self._kinds[kind]
            if stats.spans < min_spans or not stats.sim_ns:
                continue
            ratio = stats.ratio
            if lower <= ratio <= upper:
                continue
            confidence = stats.confidence
            if confidence < min_confidence:
                continue
            suggestions = {
                name: round(getattr(self.params, name) * ratio, 4)
                for name in KIND_CONSTANTS.get(kind, ())
            }
            found.append(
                DriftFinding(
                    kind=kind,
                    ratio=ratio,
                    slope=stats.slope,
                    confidence=confidence,
                    spans=stats.spans,
                    sim_ns=stats.sim_ns,
                    wall_ns=stats.wall_ns,
                    direction="slow" if ratio > 1.0 else "fast",
                    suggestions=suggestions,
                )
            )
        return found

    def publish(self, observer, threshold: float = DEFAULT_THRESHOLD) -> list[DriftFinding]:
        """Surface the model through an observer's metrics.

        Sets the ``cost_drift_ratio{span=...}`` gauge for every kind
        with data (drifting or not — the resilience health machine
        watches the gauge, not just the findings), then raises each
        finding through :meth:`~repro.obs.observer.Observer.on_drift`.
        Safe to call with the null observer (no-op).
        """
        findings = self.findings(threshold)
        if getattr(observer, "enabled", False) and observer.metrics is not None:
            gauge = observer.metrics.gauge(
                "cost_drift_ratio",
                "Measured / predicted cost ratio per span kind (1.0 = calibrated)",
            )
            for kind, stats in sorted(self._kinds.items()):
                gauge.set(stats.ratio, span=kind)
        for finding in findings:
            observer.on_drift(finding)
        return findings
