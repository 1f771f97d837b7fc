"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench/tests``."""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import bench  # noqa: E402

BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_lists_the_metrics_the_code_emits():
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(bench.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        {name: unit for name, (unit, _) in bench.PER_LAYER.items()}
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_metric_names_are_well_formed():
    names = list(bench.END_TO_END) + list(bench.PER_LAYER) + \
        list(bench.WORKLOAD_NAMES)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    record = bench.run(workload, seed=5, seconds=0, trace=False, tiny=True)
    assert record["correct"] and record["failed"] == 0
    assert list(record["metrics"]) == list(bench.END_TO_END)
    for metric in record["metrics"].values():
        assert metric["value"] > 0
    assert record["paper_err_pct"] > 0
    assert record["provenance"]["backend"] == "reference"


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_traced_run_reproduces_the_untraced_outputs(workload):
    record = bench.run(workload, seed=5, seconds=0, trace=True, tiny=True)
    # every cell ran once untraced and once traced; the gate compares them
    assert record["correct"] and record["failed"] == 0, record["failures"]
    assert list(record["metrics"]) == list(bench.PER_LAYER)
    values = {k: v["value"] for k, v in record["metrics"].items()}
    assert values["sim.spawns"] > 0 and values["coherence.handle_calls"] > 0
    if workload == "sweep_small":
        assert values["runner.cache_hits"] == values["runner.cache_misses"]


def test_a_traced_cell_that_differs_fails_the_gate():
    gate = bench.Gate()
    assert gate.check("lock8.amo", (100, 10))
    assert not gate.check("lock8.amo", (101, 10))
    assert gate.failed == 1 and gate.attempted == 2


def test_injected_cycle_mismatch_raises_the_fail_ratio():
    expected = bench.record_expected("lock256", tiny=True)
    record = bench.run("lock256", seed=0, seconds=0, trace=False, tiny=True,
                       expected=expected)
    assert record["correct"] and record["failed"] == 0
    cell = sorted(expected)[0]
    cycles, messages = expected[cell]
    record = bench.run("lock256", seed=0, seconds=0, trace=False, tiny=True,
                       expected={**expected, cell: [cycles + 1, messages]})
    assert not record["correct"] and record["failed"] == 1
    assert record["failed"] / record["attempted"] > 0
    assert record["failures"][0].startswith(cell)


def test_compare_verdicts():
    import compare
    base = {s: 10.0 + 0.1 * s for s in range(10)}
    assert compare.verdict(base, dict(base), 0.1, True) == "unchanged"
    slower = {s: v * 1.5 for s, v in base.items()}
    assert compare.verdict(base, slower, 0.1, True) == "worse"
    faster = {s: v * 0.5 for s, v in base.items()}
    assert compare.verdict(base, faster, 0.1, True) == "better"
    noisy = {s: 10.0 * (1 + s % 2) for s in range(10)}
    assert compare.verdict(base, noisy, 0.1, True) == "unresolved"


def test_a_change_with_failed_checks_is_invalid_however_fast(tmp_path):
    import compare

    def records(path, scale, failed):
        with path.open("w") as fh:
            for seed in range(5):
                value = scale * (10.0 + 0.1 * seed)
                fh.write(json.dumps({
                    "workload": "lock256", "seed": seed, "trace": 0,
                    "failed": failed,
                    "metrics": {name: {"value": value, "unit": unit}
                                for name, unit in bench.END_TO_END.items()}})
                    + "\n")

    records(tmp_path / "base.jsonl", 1.0, 0)
    records(tmp_path / "change.jsonl", 0.5, 1)
    records(tmp_path / "fixed.jsonl", 0.5, 0)
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower",
                "bound": 0.1}]
    base = compare.load(tmp_path / "base.jsonl")
    rows = compare.compare(base, compare.load(tmp_path / "change.jsonl"),
                           metrics)
    assert [row["verdict"] for row in rows] == ["invalid"]
    assert rows[0]["failed"] == [0, 5]
    rows = compare.compare(base, compare.load(tmp_path / "fixed.jsonl"),
                           metrics)
    assert [row["verdict"] for row in rows] == ["better"]
    assert compare.main([str(tmp_path / "base.jsonl"),
                         str(tmp_path / "change.jsonl")]) == 1


def test_host_speed_factor_is_the_mean_of_nominal_over_probe_time():
    import hostspeed
    speed = hostspeed.HostSpeed()
    speed.probe = lambda: 2 * hostspeed.NOMINAL_S
    assert speed.factor() == pytest.approx(0.5)     # no sample: probes once
    speed._samples = [hostspeed.NOMINAL_S, 4 * hostspeed.NOMINAL_S]
    assert speed.factor() == pytest.approx((1 + 0.25) / 2)


def test_host_speed_samples_while_active_and_restores_the_signal():
    import signal
    import time

    import hostspeed
    with hostspeed.HostSpeed() as speed:
        deadline = time.perf_counter() + 10 * hostspeed.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
        assert len(speed._samples) >= 2
        assert speed.factor() > 0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
