#!/usr/bin/env python3
"""The repository's benchmark of record: host wall time, end to end and
by layer, of the CC-NUMA simulator on three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload lock256 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with tracing off and prints the end-to-end
metrics; ``--trace 1`` runs a separate traced pass and prints the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` (``failed / attempted`` is the
fail ratio) and ``metrics``; the lines before it are a readable report
with the provenance stamp and the simulated-vs-paper error.  ``--out
FILE`` also appends the full record (provenance, paper error, failures)
as one JSON line, which ``perfbench/compare.py`` reads.

``--tiny`` shrinks every workload to a few CPUs (self-tests only).
``--record-expected`` rewrites ``perfbench/expected.json``, the cycles
and message totals the gate requires at the default seed; run it only
after a change that is meant to move simulated results.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("lock256", "barrier_fanout", "sweep_small"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)

    src = REPO / "src"
    if not (src / "repro").is_dir():
        print(f"error: no simulator sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench

    if args.record_expected:
        path = bench.EXPECTED_PATH
        expected = json.loads(path.read_text()) if path.exists() else {}
        expected[args.workload] = bench.record_expected(args.workload)
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(expected[args.workload])} cells in {path}")
        return 0

    record = bench.run(args.workload, args.seed, args.seconds,
                       bool(args.trace), tiny=args.tiny)
    print_report(record)
    if args.out is not None:
        with args.out.open("a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def print_report(record: dict) -> None:
    from bench import PER_LAYER
    prov = record["provenance"]
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} backend={prov['backend']} "
          f"accel_core_importable={prov['accel_core_importable']}")
    print(f"# git {prov['git_sha']} dirty={prov['git_dirty']}; "
          f"{prov['nproc']} cpus, {prov['platform']}, python "
          f"{prov['python']}, numpy {prov['numpy']}")
    for name, metric in record["metrics"].items():
        moves = f"  -> {PER_LAYER[name][1]}" if name in PER_LAYER else ""
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']:6s}{moves}")
    fail_ratio = record["failed"] / max(record["attempted"], 1)
    print(f"{'fail_ratio':32s} {fail_ratio:>16.6g} "
          f"({record['failed']} of {record['attempted']} checks)")
    print(f"{'point_p90_s':32s} {record['point_p90_s']:>16.6g} s      "
          f"({record['point_samples']} points)")
    rounds = ", ".join(f"{s:.3f} s x {f:.3f}" for s, f in
                       zip(record["round_seconds"], record["round_speed"]))
    print(f"{'rounds':32s} {len(record['round_seconds']):>16d} ({rounds})")
    print(f"{'raw_wall_s':32s} {record['raw_wall_s']:>16.6g} s      "
          f"(uncorrected host time)")
    print(f"{'raw_setup_s':32s} {record['raw_setup_s']:>16.6g} s      "
          f"(x {record['setup_speed']:.3f})")
    print(f"{'paper_err_pct':32s} {record['paper_err_pct']:>16.6g} % "
          "(a simulated output, not a host metric)")
    for family, n in list(record.get("spawns_by_name", {}).items())[:12]:
        print(f"  sim.spawns.{family:21s} {n:>16d}")
    for note in record["failures"]:
        print(f"FAILED {note}")


if __name__ == "__main__":
    sys.exit(main())
