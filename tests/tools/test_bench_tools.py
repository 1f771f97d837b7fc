"""Unit tests for the benchmark CLI tools (argument validation and the
trajectory-report merge), no simulation involved."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).parent.parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


bench_scale = _load("bench_scale")
bench_report = _load("bench_report")


# ----------------------------------------------------------------------
# bench_scale --cpus validation
# ----------------------------------------------------------------------
def test_parse_cpus_accepts_powers_of_two():
    assert bench_scale.parse_cpus(["32", "64"]) == [32, 64]
    assert bench_scale.parse_cpus(["32,64,128"]) == [32, 64, 128]
    assert bench_scale.parse_cpus(["32", "64,128", " 256 "]) == \
        [32, 64, 128, 256]
    assert bench_scale.parse_cpus(["2"]) == [2]
    assert bench_scale.parse_cpus(["1024"]) == [1024]


@pytest.mark.parametrize("bad", ["48", "100", "3", "1", "0", "-32"])
def test_parse_cpus_rejects_non_powers_of_two(bad):
    with pytest.raises(SystemExit, match="power of two"):
        bench_scale.parse_cpus([bad])


def test_parse_cpus_rejects_garbage():
    with pytest.raises(SystemExit, match="expected an integer"):
        bench_scale.parse_cpus(["many"])


def test_main_rejects_non_power_of_two_cpus(capsys):
    with pytest.raises(SystemExit, match="power of two"):
        bench_scale.main(["--cpus", "48", "--out", "-"])


# ----------------------------------------------------------------------
# bench_report merge
# ----------------------------------------------------------------------
def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc))


def test_build_report_merges_all_sources(tmp_path):
    _write(tmp_path / "BENCH_runner.json", {
        "serial": {"events_per_second": 200000},
        "parallel": {"events_per_second": 100000},
        "cache_cold": {"events_per_second": 150000},
        "cache_warm": {"events_per_second": None},
    })
    _write(tmp_path / "BENCH_obs.json", {
        "off": {"events_per_second": 250000},
        "metrics": {"events_per_second": 240000},
    })
    _write(tmp_path / "BENCH_scale.json", {
        "cells": [
            {"workload": "barrier", "mechanism": "amo", "n_processors": 32,
             "events_per_second": 400000},
            {"workload": "lock", "mechanism": "amo", "n_processors": 32,
             "events_per_second": 100000},
        ],
        "aggregate_events_per_second": {"32": {"events_per_second": 160000}},
        "vs_baseline": {"geomean_speedup": 2.0},
    })
    report = bench_report.build_report(tmp_path, {})
    sources = report["sources"]
    assert all(sources[n]["present"] for n in ("runner", "obs", "scale"))
    # warm cache-mode carries no events/s and must not produce a sample
    assert set(sources["runner"]["samples"]) == \
        {"serial", "parallel", "cache_cold"}
    # geomean of 400k and 100k is 200k
    assert sources["scale"]["geomean_events_per_second"] == 200000
    assert sources["scale"]["vs_baseline"]["geomean_speedup"] == 2.0
    assert report["geomean_events_per_second"] > 0
    assert set(sources["scale"]["samples"]) == \
        {"barrier/amo@32", "lock/amo@32"}


def test_build_report_tolerates_missing_sources(tmp_path):
    _write(tmp_path / "BENCH_obs.json", {
        "off": {"events_per_second": 250000},
    })
    report = bench_report.build_report(tmp_path, {})
    assert report["sources"]["runner"] == {
        "file": str(tmp_path / "BENCH_runner.json"), "present": False}
    assert report["sources"]["obs"]["present"]
    assert report["geomean_events_per_second"] == 250000


def test_build_report_all_missing(tmp_path):
    report = bench_report.build_report(tmp_path, {})
    assert report["geomean_events_per_second"] is None
    assert not any(s["present"] for s in report["sources"].values())


def test_shard_source_excluded_from_overall_geomean(tmp_path):
    _write(tmp_path / "BENCH_obs.json", {
        "off": {"events_per_second": 250000},
    })
    _write(tmp_path / "BENCH_shard.json", {
        "shards": 4,
        "host": {"cores": 1},
        "cells": [
            {"workload": "barrier", "mechanism": "amo", "n_processors": 512,
             "events_per_second": 70000},
        ],
        "aggregate_events_per_second": {"512": {"events_per_second": 70000}},
        "vs_baseline": {"wall_speedup": 0.25},
    })
    report = bench_report.build_report(tmp_path, {})
    shard = report["sources"]["shard"]
    assert shard["present"] and shard["excluded_from_overall"]
    assert shard["shards"] == 4 and shard["host_cores"] == 1
    assert shard["vs_baseline"]["wall_speedup"] == 0.25
    # the host-dependent sharded sample must not drag the headline number
    assert report["geomean_events_per_second"] == 250000


def test_obs_shard_source_extracted_and_excluded(tmp_path):
    _write(tmp_path / "BENCH_obs.json", {
        "off": {"events_per_second": 250000},
        "shards": 2,
        "off_sharded": {"events_per_second": 90000},
        "metrics_sharded": {
            "events_per_second": 85000,
            "shard_telemetry": {"sync_rounds": 14, "windows": 12},
        },
        "metrics_sharded_overhead_pct": 5.6,
    })
    report = bench_report.build_report(tmp_path, {})
    obs_shard = report["sources"]["obs_shard"]
    assert obs_shard["present"] and obs_shard["excluded_from_overall"]
    assert set(obs_shard["samples"]) == {"off_sharded", "metrics_sharded"}
    assert obs_shard["shards"] == 2
    assert obs_shard["metrics_sharded_overhead_pct"] == 5.6
    assert obs_shard["shard_telemetry"]["sync_rounds"] == 14
    # host-dependent sharded throughput stays out of the headline number
    assert report["geomean_events_per_second"] == 250000


def test_obs_shard_source_absent_from_unsharded_capture(tmp_path):
    _write(tmp_path / "BENCH_obs.json", {
        "off": {"events_per_second": 250000},
    })
    report = bench_report.build_report(tmp_path, {})
    obs_shard = report["sources"]["obs_shard"]
    assert obs_shard["present"] and obs_shard["samples"] == {}
    assert obs_shard["geomean_events_per_second"] is None


# ----------------------------------------------------------------------
# bench_scale trajectory regression gate
# ----------------------------------------------------------------------
def _gate_cells(evps):
    return [{"workload": "barrier", "mechanism": "amo", "n_processors": 32,
             "events_per_second": evps[0]},
            {"workload": "lock", "mechanism": "amo", "n_processors": 32,
             "events_per_second": evps[1]}]


def _gate_trajectory(evps):
    return {"sources": {"scale": {"present": True, "samples": {
        "barrier/amo@32": evps[0], "lock/amo@32": evps[1]}}}}


def test_gate_trajectory_passes_within_threshold():
    ok, msg = bench_scale.gate_trajectory(
        _gate_cells([90000, 110000]), _gate_trajectory([100000, 100000]),
        max_regression_pct=25.0)
    assert ok and "geomean" in msg


def test_gate_trajectory_fails_on_regression():
    ok, msg = bench_scale.gate_trajectory(
        _gate_cells([50000, 60000]), _gate_trajectory([100000, 100000]),
        max_regression_pct=25.0)
    assert not ok
    assert "0.75x" in msg and "geomean 0.5" in msg


def test_gate_trajectory_improvement_always_passes():
    ok, _ = bench_scale.gate_trajectory(
        _gate_cells([300000, 300000]), _gate_trajectory([100000, 100000]),
        max_regression_pct=25.0)
    assert ok


def test_gate_trajectory_skips_without_overlap():
    ok, msg = bench_scale.gate_trajectory(
        _gate_cells([50000, 50000]),
        {"sources": {"scale": {"present": True,
                               "samples": {"barrier/amo@512": 1}}}},
        max_regression_pct=25.0)
    assert ok and "skip" in msg.lower()


def test_report_cli_writes_document(tmp_path):
    _write(tmp_path / "BENCH_obs.json", {
        "off": {"events_per_second": 123456},
    })
    out = tmp_path / "BENCH_trajectory.json"
    assert bench_report.main(["--repo", str(tmp_path),
                              "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["benchmark"] == "trajectory"
    assert doc["geomean_events_per_second"] == 123456


# ----------------------------------------------------------------------
# bench_scale provenance: which accel ran
# ----------------------------------------------------------------------
def test_accel_implementation_is_stamped(tmp_path, capsys):
    """A host without the compiled core runs accel on the reference
    kernel; the capture must say so next to the speedup it reports."""
    from repro.sim.backends import accel_implementation

    out = tmp_path / "scale.json"
    assert bench_scale.main(["--cpus", "4", "--repeat", "1", "--no-warm",
                             "--barrier-only", "--mechanisms", "amo",
                             "--backend", "reference", "accel",
                             "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    impl = accel_implementation()
    assert doc["accel_implementation"] == impl
    assert f"(accel: {impl})" in capsys.readouterr().out

    assert bench_scale.main(["--cpus", "4", "--repeat", "1", "--no-warm",
                             "--barrier-only", "--mechanisms", "amo",
                             "--backend", "reference",
                             "--out", str(out)]) == 0
    assert "accel_implementation" not in json.loads(out.read_text())
