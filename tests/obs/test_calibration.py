"""Calibration model math, reports, determinism and drift findings."""

import json

import pytest

from repro.native import is_supported
from repro.obs.calibration import (
    CalibrationModel,
    build_report,
    run_calibration_session,
    strip_wall_fields,
)
from repro.obs.calibration.model import KIND_CONSTANTS
from repro.obs.observer import Observer
from repro.vm.cost import CostLedger, CostParameters

native_only = pytest.mark.skipif(
    not is_supported(), reason="native rewiring unsupported on this platform"
)


# -- KindStats / CalibrationModel math ----------------------------------------


def test_ratio_and_slope_agree_on_perfectly_linear_data():
    model = CalibrationModel()
    for sim in (100.0, 200.0, 400.0):
        model.record("scan", sim, sim * 3.0)
    stats = model.kinds()["scan"]
    assert stats.ratio == pytest.approx(3.0)
    assert stats.slope == pytest.approx(3.0)
    # perfect estimator agreement: confidence is the pure size term
    assert stats.confidence == pytest.approx(3 / 11)


def test_scattered_ratios_drag_confidence_down():
    linear = CalibrationModel()
    noisy = CalibrationModel()
    for sim in (100.0, 200.0, 400.0):
        linear.record("scan", sim, sim * 3.0)
    noisy.record("scan", 100.0, 900.0)
    noisy.record("scan", 200.0, 200.0)
    noisy.record("scan", 400.0, 400.0)
    assert (
        noisy.kinds()["scan"].confidence < linear.kinds()["scan"].confidence
    )


def test_zero_sim_observations_are_dropped():
    model = CalibrationModel()
    model.record("route", 0.0, 5000.0)
    assert "route" not in model.kinds()


def test_findings_fire_only_outside_threshold_band():
    model = CalibrationModel()
    for sim in (100.0, 200.0, 400.0):
        model.record("scan", sim, sim * 1.4)  # inside [1/1.5, 1.5]
        model.record("map-pages", sim, sim * 2.0)  # outside
    findings = model.findings(threshold=0.5)
    assert [f.kind for f in findings] == ["map-pages"]
    finding = findings[0]
    assert finding.direction == "slow"
    assert finding.ratio == pytest.approx(2.0)


def test_findings_symmetric_for_too_fast_kinds():
    model = CalibrationModel()
    for sim in (100.0, 200.0, 400.0):
        model.record("scan", sim, sim * 0.4)  # below 1/1.5
    (finding,) = model.findings(threshold=0.5)
    assert finding.direction == "fast"


def test_findings_need_min_spans():
    model = CalibrationModel()
    model.record("scan", 100.0, 1000.0)
    model.record("scan", 100.0, 1000.0)
    assert model.findings(threshold=0.5) == []


def test_suggestions_rescale_the_kind_constants():
    params = CostParameters()
    model = CalibrationModel(params)
    for sim in (100.0, 200.0, 400.0):
        model.record("scan", sim, sim * 2.0)
    (finding,) = model.findings(threshold=0.5)
    assert set(finding.suggestions) == set(KIND_CONSTANTS["scan"])
    assert finding.suggestions["seq_value_read_ns"] == pytest.approx(
        params.seq_value_read_ns * 2.0, abs=1e-4
    )


def test_invalid_threshold_rejected():
    with pytest.raises(ValueError):
        CalibrationModel().findings(threshold=0.0)


# -- publishing through an observer -------------------------------------------


def test_publish_sets_gauge_and_raises_drift_events():
    model = CalibrationModel()
    for sim in (100.0, 200.0, 400.0):
        model.record("scan", sim, sim * 2.0)
        model.record("route", sim, sim * 1.0)
    observer = Observer(CostLedger())
    drift_events = []
    observer.events.subscribe("obs.cost_drift", drift_events.append)
    findings = model.publish(observer, threshold=0.5)
    assert [f.kind for f in findings] == ["scan"]
    assert len(drift_events) == 1
    assert drift_events[0].payload["kind"] == "scan"
    # the gauge carries every kind with data, not only drifting ones
    gauge = observer.metrics.get("cost_drift_ratio")
    samples = {
        frozenset(labels): value for labels, value in gauge.samples()
    }
    assert samples[frozenset({("span", "scan")})] == pytest.approx(2.0)
    assert samples[frozenset({("span", "route")})] == pytest.approx(1.0)


# -- report payload and determinism -------------------------------------------


def test_report_payload_isolates_wall_content():
    model = CalibrationModel()
    for sim in (100.0, 200.0, 400.0):
        model.record("scan", sim, sim * 2.0)
    report = build_report(
        model, backend="native", threshold=0.5,
        wall_ops={"mmap": {"ns": 1.0, "calls": 2}}, meta={"seed": 7},
    )
    payload = report.to_payload()
    assert payload["findings"]
    assert payload["wall"]["ops"]
    core = strip_wall_fields(payload)
    assert "findings" not in core
    assert "wall" not in core
    assert core["kinds"][0]["kind"] == "scan"
    assert "wall" not in core["kinds"][0]


def test_simulated_backend_report_is_empty_but_renders():
    run = run_calibration_session(
        num_pages=64, num_queries=4, backend="simulated", seed=11
    )
    assert run.paired_spans == 0
    assert run.report.kinds == []
    assert "native backend" in run.report.render()


@native_only
def test_native_session_pairs_every_span_kind():
    run = run_calibration_session(
        num_pages=128, num_queries=8, backend="native", seed=11
    )
    assert run.paired_spans > 0
    kinds = {entry["kind"] for entry in run.report.kinds}
    assert {"query", "scan", "map-pages"} <= kinds
    assert run.report.to_payload()["wall"]["ops"]


@native_only
def test_calibration_json_is_deterministic_modulo_wall_fields(tmp_path):
    # The contract covers *sessions*, i.e. fresh processes: the native
    # maps-parse charge counts the kernel's VMAs for the substrate's own
    # files, and the kernel's VMA merging depends on process address-
    # space history — identical only across identically-fresh processes.
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    payloads = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        subprocess.run(
            [
                sys.executable, "-m", "repro", "calibrate",
                "--pages", "128", "--queries", "8", "--seed", "11",
                "--json", str(out),
            ],
            check=True, env=env, cwd=tmp_path, capture_output=True,
        )
        payloads.append(
            json.dumps(
                strip_wall_fields(json.loads(out.read_text())),
                sort_keys=True,
            )
        )
    assert payloads[0] == payloads[1]
