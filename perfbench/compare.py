#!/usr/bin/env python3
"""Compare two sets of benchmark records, e.g. a parent commit and a change.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the JSON lines ``perfbench/run.py --out FILE`` appended,
any number of runs of any workloads (untraced runs only are compared).
For every workload and end-to-end metric it prints each side's median
and quartiles and a verdict, using the metric's bound from
``BENCHMARK.json``:

* ``unresolved`` -- either side's quartile spread (IQR over median) is
  wider than the bound, unless every change run beats (or loses to)
  every parent run;
* ``worse`` -- the change's median is worse by more than the bound;
* ``better`` -- the change's median is better by more than the parent's
  own spread and the change wins at least nine tenths of the runs
  paired by seed;
* ``unchanged`` -- otherwise;
* ``invalid`` -- any change run of the workload failed a correctness
  check.  Its times do not count: a cell that fails drops out of the
  run or ends it early, which makes a broken change look fast.

Exits 1 when any verdict is ``worse`` or ``invalid``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> dict:
    """workload -> seed -> record (the last untraced record per seed)."""
    runs: dict = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if not record["trace"]:
                runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: dict, change: dict, bound: float, lower_better: bool
            ) -> str:
    """``base``/``change`` map seed -> value."""
    sign = -1.0 if lower_better else 1.0
    b_q1, b_med, b_q3 = summary(list(base.values()))
    c_q1, c_med, c_q3 = summary(list(change.values()))
    b_spread = (b_q3 - b_q1) / b_med
    c_spread = (c_q3 - c_q1) / c_med
    gain = sign * (c_med - b_med) / b_med
    if b_spread > bound or c_spread > bound:
        if min(sign * v for v in change.values()) > \
                max(sign * v for v in base.values()):
            return "better"
        if max(sign * v for v in change.values()) < \
                min(sign * v for v in base.values()):
            return "worse"
        return "unresolved"
    if gain < -bound:
        return "worse"
    paired = [seed for seed in base if seed in change]
    wins = sum(sign * change[s] > sign * base[s] for s in paired)
    if gain > b_spread and paired and wins >= 0.9 * len(paired):
        return "better"
    return "unchanged"


def compare(base: dict, change: dict, metrics: list[dict]) -> list[dict]:
    """One row per workload in both sets and end-to-end metric;
    ``base``/``change`` are :func:`load` results."""
    rows = []
    for workload in sorted(set(base) & set(change)):
        failed = [sum(r["failed"] for r in side[workload].values())
                  for side in (base, change)]
        for metric in metrics:
            name = metric["name"]
            b = {s: r["metrics"][name]["value"]
                 for s, r in base[workload].items()}
            c = {s: r["metrics"][name]["value"]
                 for s, r in change[workload].items()}
            result = ("invalid" if failed[1] else
                      verdict(b, c, metric["bound"],
                              metric["better"] == "lower"))
            rows.append({"workload": workload, "metric": name,
                         "base": summary(list(b.values())),
                         "change": summary(list(c.values())),
                         "n": (len(b), len(c)), "failed": failed,
                         "verdict": result})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    rows = compare(load(args.base), load(args.change), metrics)
    print(f"{'workload':15s} {'metric':13s} {'base q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s}  verdict")
    for row in rows:
        quartiles = ["/".join(f"{v:.4g}" for v in row[side])
                     for side in ("base", "change")]
        print(f"{row['workload']:15s} {row['metric']:13s} "
              f"{quartiles[0]:>32s} {quartiles[1]:>32s}  {row['verdict']} "
              f"(n={row['n'][0]}/{row['n'][1]}, "
              f"failed {row['failed'][0]}/{row['failed'][1]})")
    return 1 if any(row["verdict"] in ("worse", "invalid")
                    for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
