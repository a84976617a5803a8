"""Calibration reports: the ``BENCH_calibration.json`` payload.

The payload keeps a strict split between deterministic and measured
content: wall-clock readings live only under ``"wall"`` keys and in the
``"findings"`` list, so two identically-seeded sessions agree byte for
byte on everything else (:func:`strip_wall_fields` is the contract, and
the determinism test enforces it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .model import DEFAULT_THRESHOLD, CalibrationModel, DriftFinding

#: Default output path of ``python -m repro calibrate``.
DEFAULT_JSON_PATH = "BENCH_calibration.json"


@dataclass
class CalibrationReport:
    """One calibration pass: per-kind pairings plus drift findings."""

    #: Substrate backend the session ran on.
    backend: str
    #: Drift threshold the findings were diagnosed at.
    threshold: float
    #: Per-kind records (see :meth:`KindStats.to_dict`), kind-sorted.
    kinds: list[dict] = field(default_factory=list)
    #: Drift findings, kind-sorted.
    findings: list[DriftFinding] = field(default_factory=list)
    #: Wall-ledger per-op snapshot (empty off the native backend).
    wall_ops: dict = field(default_factory=dict)
    #: Session metadata (pages, queries, seed, experiment).
    meta: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether the cost model held within the drift threshold."""
        return not self.findings

    def to_payload(self) -> dict:
        """The ``BENCH_calibration.json`` document."""
        return {
            "benchmark": "cost-model calibration (simulated vs wall-clock)",
            "backend": self.backend,
            "threshold": self.threshold,
            **self.meta,
            "kinds": self.kinds,
            "findings": [
                {
                    "kind": f.kind,
                    "ratio": f.ratio,
                    "slope": f.slope,
                    "confidence": f.confidence,
                    "spans": f.spans,
                    "sim_ns": f.sim_ns,
                    "wall_ns": f.wall_ns,
                    "direction": f.direction,
                    "suggestions": dict(f.suggestions),
                }
                for f in self.findings
            ],
            "wall": {"ops": self.wall_ops},
        }

    def render(self) -> str:
        """Human-readable calibration table plus findings."""
        meta = " ".join(
            f"{k}={v}" for k, v in self.meta.items() if k != "experiment"
        )
        lines = [
            f"Cost-model calibration — {self.backend} backend"
            + (f" ({meta})" if meta else ""),
            "",
            f"{'span kind':<14} {'spans':>6} {'sim ms':>10} {'wall ms':>10} "
            f"{'ratio':>7} {'slope':>7} {'conf':>5}",
            "-" * 66,
        ]
        for entry in self.kinds:
            wall = entry["wall"]
            lines.append(
                f"{entry['kind']:<14} {entry['spans']:>6} "
                f"{entry['sim_ns'] / 1e6:>10.3f} {wall['wall_ns'] / 1e6:>10.3f} "
                f"{wall['ratio']:>7.2f} {wall['slope']:>7.2f} "
                f"{wall['confidence']:>5.2f}"
            )
        if not self.kinds:
            lines.append("(no wall-timed spans — run on the native backend)")
        lines.append("")
        if self.findings:
            lines.append(f"drift findings ({len(self.findings)}):")
            lines.extend(f"  {f.describe()}" for f in self.findings)
        else:
            lines.append(
                f"no drift: every span kind within "
                f"[{1 / (1 + self.threshold):.2f}, {1 + self.threshold:.2f}]x"
            )
        return "\n".join(lines)


def build_report(
    model: CalibrationModel,
    backend: str,
    threshold: float = DEFAULT_THRESHOLD,
    wall_ops: dict | None = None,
    meta: dict | None = None,
) -> CalibrationReport:
    """Assemble a :class:`CalibrationReport` from a populated model."""
    kinds = [
        model.kinds()[kind].to_dict() for kind in sorted(model.kinds())
    ]
    return CalibrationReport(
        backend=backend,
        threshold=threshold,
        kinds=kinds,
        findings=model.findings(threshold),
        wall_ops=dict(wall_ops or {}),
        meta=dict(meta or {}),
    )


def strip_wall_fields(payload: dict) -> dict:
    """The deterministic core of a calibration payload.

    Drops every ``"wall"``/``"wall_*"`` subtree and the (wall-derived)
    ``"findings"`` list, recursively.  What remains is a pure function
    of the seeded simulated session — the quantity the byte-determinism
    test compares across runs.
    """

    def strip(node):
        if isinstance(node, dict):
            return {
                key: strip(value)
                for key, value in node.items()
                if key != "findings" and not key.startswith("wall")
            }
        if isinstance(node, list):
            return [strip(item) for item in node]
        return node

    return strip(payload)


def write_calibration_json(payload: dict, path: str = DEFAULT_JSON_PATH) -> None:
    """Write the payload as pretty-printed, key-sorted JSON."""
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
