"""Smoke tests for the wall-clock perf microbenchmarks."""

import json

from repro.bench.perf import render_perf, run_perf, write_perf_json

REQUIRED_BENCHES = {"scan", "maintenance_batch", "maps_snapshot"}


def test_run_perf_small_scale(tmp_path):
    payload = run_perf(num_pages=64, iterations=1)
    assert payload["pages"] == 64
    names = {r["name"] for r in payload["results"]}
    assert names == REQUIRED_BENCHES
    for result in payload["results"]:
        assert result["reference_s"] > 0
        assert result["fast_s"] > 0
        assert result["speedup"] > 0
        assert result["throughput"] > 0

    path = tmp_path / "BENCH_perf.json"
    write_perf_json(payload, str(path))
    assert json.loads(path.read_text()) == payload

    report = render_perf(payload)
    for name in REQUIRED_BENCHES:
        assert name in report


def test_perf_cli_writes_json(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "perf.json"
    assert (
        main(["perf", "--pages", "64", "--iterations", "1", "--json", str(out)])
        == 0
    )
    payload = json.loads(out.read_text())
    assert {r["name"] for r in payload["results"]} == REQUIRED_BENCHES
    assert "speedup" in capsys.readouterr().out


def test_render_perf_warns_on_regressions():
    payload = {
        "pages": 64,
        "iterations": 1,
        "results": [
            {"name": "scan", "reference_s": 1.0, "fast_s": 2.0,
             "speedup": 0.5, "throughput": 32, "unit": "pages/s"},
            {"name": "maps_snapshot", "reference_s": 1.0, "fast_s": 0.5,
             "speedup": 2.0, "throughput": 128, "unit": "snapshots/s"},
        ],
    }
    report = render_perf(payload)
    assert (
        "WARNING: scan fast path slower than reference (0.50x)" in report
    )
    assert report.count("WARNING") == 1


def test_render_perf_silent_without_regressions():
    payload = {
        "pages": 64,
        "iterations": 1,
        "results": [
            {"name": "scan", "reference_s": 1.0, "fast_s": 0.5,
             "speedup": 2.0, "throughput": 128, "unit": "pages/s"},
        ],
    }
    assert "WARNING" not in render_perf(payload)


def test_sharded_scan_payload_shape():
    from repro.bench.perf import bench_sharded_scan

    section = bench_sharded_scan(
        num_pages=64, iterations=1, shard_counts=(1, 2, 4), queries=4
    )
    assert section["pages"] == 64
    assert [e["shards"] for e in section["entries"]] == [1, 2, 4]
    for entry in section["entries"]:
        assert entry["seconds"] > 0
        assert entry["speedup_vs_1"] > 0
        assert entry["efficiency"] == entry["speedup_vs_1"] / entry["shards"]
        assert entry["pages_scanned_per_pass"] >= 0
    # All shard counts returned the same rows (checked internally too).
    assert len({e["rows"] for e in section["entries"]}) == 1


def test_sharded_scan_skips_counts_beyond_pages():
    from repro.bench.perf import bench_sharded_scan

    section = bench_sharded_scan(
        num_pages=2, iterations=1, shard_counts=(1, 2, 4), queries=2
    )
    assert [e["shards"] for e in section["entries"]] == [1, 2]


def test_run_perf_includes_sharded_section(tmp_path):
    payload = run_perf(num_pages=64, iterations=1, shard_counts=(1, 2))
    assert "sharded_scan" in payload
    assert [e["shards"] for e in payload["sharded_scan"]["entries"]] == [1, 2]
    report = render_perf(payload)
    assert "Sharded scan" in report
    path = tmp_path / "BENCH_perf.json"
    write_perf_json(payload, str(path))
    assert json.loads(path.read_text()) == payload


def test_run_perf_can_disable_sharded_section():
    payload = run_perf(num_pages=64, iterations=1, shard_counts=())
    assert "sharded_scan" not in payload


def test_render_perf_warns_on_sharded_slowdown():
    payload = {
        "pages": 64,
        "iterations": 1,
        "results": [],
        "sharded_scan": {
            "pages": 64,
            "backend": "simulated",
            "iterations": 1,
            "queries": 4,
            "selectivity": 0.02,
            "parallel": False,
            "entries": [
                {"shards": 1, "seconds": 1.0, "speedup_vs_1": 1.0,
                 "efficiency": 1.0, "queries": 4, "rows": 10,
                 "pages_scanned_per_pass": 64},
                {"shards": 2, "seconds": 2.0, "speedup_vs_1": 0.5,
                 "efficiency": 0.25, "queries": 4, "rows": 10,
                 "pages_scanned_per_pass": 64},
            ],
        },
    }
    report = render_perf(payload)
    assert (
        "WARNING: sharded scan at 2 shards slower than 1 shard (0.50x)"
        in report
    )


def test_render_perf_shows_paper_scale_line():
    payload = {
        "pages": 64,
        "iterations": 1,
        "results": [],
        "paper_scale": {
            "pages": 1_048_576,
            "shards": 8,
            "backend": "native",
            "build_seconds": 12.5,
            "scan_seconds": 0.75,
            "queries": 8,
            "rows": 123,
            "pages_scanned_per_pass": 1_000_000,
            "pages_per_second": 1_333_333.0,
        },
    }
    report = render_perf(payload)
    assert "Paper scale" in report
    assert "1,048,576 pages" in report


def test_perf_cli_shard_flags(tmp_path):
    from repro.cli import main

    out = tmp_path / "perf.json"
    assert (
        main(
            ["perf", "--pages", "64", "--iterations", "1",
             "--shards", "2", "--json", str(out)]
        )
        == 0
    )
    payload = json.loads(out.read_text())
    assert [e["shards"] for e in payload["sharded_scan"]["entries"]] == [1, 2]

    out2 = tmp_path / "perf2.json"
    assert (
        main(
            ["perf", "--pages", "64", "--iterations", "1",
             "--shards", "0", "--json", str(out2)]
        )
        == 0
    )
    assert "sharded_scan" not in json.loads(out2.read_text())


def test_perf_cli_shards_default_from_env(tmp_path, monkeypatch):
    from repro.cli import main

    monkeypatch.setenv("REPRO_SHARDS", "2")
    out = tmp_path / "perf.json"
    assert (
        main(["perf", "--pages", "64", "--iterations", "1",
              "--json", str(out)])
        == 0
    )
    payload = json.loads(out.read_text())
    assert [e["shards"] for e in payload["sharded_scan"]["entries"]] == [1, 2]
