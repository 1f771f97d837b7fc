#!/usr/bin/env python
"""Kernel hot-path throughput at and past paper scale — ``BENCH_scale.json``.

Measures simulator events/second over the two paper workloads (one
barrier run and one ticket-lock run) for every mechanism at a ladder of
machine sizes, from 32 CPUs up to 1024 — four times the paper's largest
machine.  This is the proof artifact for the kernel/protocol performance
work: barrier episodes are dominated by the N-way fan-out waves
(invalidations, word-update pushes), lock runs by long same-cycle resume
chains, and the sweep as a whole by per-point machine construction and
re-simulated warm-up — which the snapshot/warm-start path amortizes.

Each cell is run ``--repeat`` times and the *fastest* wall time is kept
(wall-clock noise on a shared host only ever adds time).  The first run
of a cell builds and warms the machine; subsequent runs restore the
warm snapshot and replay only the measured episodes, exactly how the
sweep runner replays points.  Event counts *and* steady-state cycle
counts are asserted identical across repeats — every benchmark run is
also a determinism check, and in particular proves snapshot-restored
runs are cycle-for-cycle equivalent to the fresh-built first run.

Comparing against a baseline capture (e.g. one taken from the pre-PR
kernel on the same host)::

    PYTHONPATH=src python tools/bench_scale.py --out baseline.json
    # ... switch kernels ...
    PYTHONPATH=src python tools/bench_scale.py --baseline baseline.json

With ``--baseline`` the output carries per-cell speedups plus two
aggregates: the *geometric mean* of the per-cell speedups (the standard
cross-workload summary) and the *events-weighted* speedup (total events
divided by total wall time, dominated by the event-heaviest cells).
Simulated *cycles* must match the baseline cell for cell — a speedup
over different simulated behaviour is meaningless.  (Kernel event
counts may legitimately differ between kernel generations — batched
fan-out delivery dispatches fewer events for the same cycles — so they
are reported but not compared.)

``--quick`` shrinks the ladder for CI smoke runs; ``--floor`` fails the
run when the events-weighted throughput of the largest machine size
drops below a (generous) events/second floor.  ``--gate-trajectory``
instead gates *relatively*: the geometric mean of per-cell throughput
against the committed ``BENCH_trajectory.json`` scale samples must not
regress by more than ``--gate-pct`` percent — host-speed differences
wash out of a ratio far better than any static floor.

``--shards N`` runs every cell through sharded execution
(:mod:`repro.shard`): the run is partitioned across N worker processes
in conservative time windows, cycle-identical to single-process (cycles
are asserted against the baseline when ``--baseline`` is given, and the
speedup summary then also reports ``wall_speedup`` — same simulated
work, wall-clock ratio — the honest multi-core scaling number).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import time
from pathlib import Path

from repro.config.mechanism import Mechanism
from repro.workloads.barrier import run_barrier_workload
from repro.workloads.locks import run_lock_workload
from repro.workloads.qlocks import qlock_supported, run_qlock_workload

try:  # the warm-start cache arrived with the snapshot/restore work
    from repro.workloads.warm import WarmCache
except ImportError:  # pragma: no cover - pre-snapshot kernels (baselines)
    WarmCache = None

DEFAULT_CPUS = [32, 64, 128, 256, 512, 1024]
QUICK_CPUS = [32, 64]

#: workload shapes — small but past warmup, so steady-state code paths
#: (filled caches, armed spin gates) dominate the measurement
BARRIER_EPISODES = 2
BARRIER_WARMUP = 1
LOCK_ACQUISITIONS = 1
LOCK_WARMUP = 1
QLOCK_ACQUISITIONS = 1
QLOCK_WARMUP = 1

#: queue-lock cells stop at the paper's largest machine: every extra
#: acquisition serializes P critical sections, so the 512/1024 rungs
#: would dominate the ladder's wall clock for no extra signal
QLOCK_MAX_CPUS = 256
QLOCK_WORKLOADS = ("qlock_mcs", "qlock_cna", "qlock_rw")


def parse_cpus(values: list[str]) -> list[int]:
    """Flatten ``--cpus`` operands (space- and/or comma-separated) and
    validate each is a power of two — the fat-tree/tree-barrier
    topologies require it, and a non-power-of-two silently produces a
    lopsided tree instead of the machine the cell claims to measure."""
    cpus: list[int] = []
    for value in values:
        for part in str(value).split(","):
            part = part.strip()
            if not part:
                continue
            try:
                p = int(part)
            except ValueError:
                raise SystemExit(
                    f"error: --cpus got {part!r}; expected an integer")
            if p < 2 or p & (p - 1):
                raise SystemExit(
                    f"error: --cpus {p} is not a power of two >= 2; the "
                    "fat-tree topology and tree-barrier shapes require "
                    "power-of-two machine sizes (try 32 64 128 256 512 1024)")
            cpus.append(p)
    return cpus


def run_cell(workload: str, mechanism: Mechanism, n_processors: int,
             repeat: int, warm_cache=None, shards: int = 1,
             backend: str | None = None, profile: bool = False) -> dict:
    """Best-of-``repeat`` measurement of one (workload, mechanism, P).

    With a ``warm_cache``, the first repeat builds + warms the machine
    and snapshots it; later repeats restore and replay the measured
    phase only.  Events and cycles must match across all repeats.
    ``shards > 1`` partitions each run across worker processes instead
    (mutually exclusive with warm-start; every repeat spawns a fresh
    process group, so the wall time includes that overhead — exactly
    what a user of ``--shards`` pays).  Sharded cells record the
    fastest repeat's ``shard.*`` telemetry digest (sync rounds, window
    sizes, blocked wall time, wire volumes) — the numbers that explain
    where sharded wall clock goes.  ``backend`` selects the event-kernel
    backend (:mod:`repro.sim.backends`) and stamps the cell with it;
    every backend is parity-gated to identical cycles and events, so
    cross-backend cells are directly comparable.  ``profile`` wraps one
    extra (untimed) run in :mod:`cProfile` and attaches the top
    cumulative-time hotspots to the cell — the flame-tip evidence for
    deciding what the next kernel optimization should chase.
    """
    best = math.inf
    events = None
    cycles = None
    best_telemetry = None
    for _ in range(repeat):
        telemetry: dict = {}
        t0 = time.perf_counter()
        if shards > 1:
            from repro.shard.session import run_sharded
            if workload == "barrier":
                res = run_sharded("barrier", dict(
                    n_processors=n_processors, mechanism=mechanism,
                    episodes=BARRIER_EPISODES,
                    warmup_episodes=BARRIER_WARMUP, backend=backend),
                    shards, telemetry=telemetry)
            elif workload.startswith("qlock_"):
                res = run_sharded("qlock", dict(
                    n_processors=n_processors, mechanism=mechanism,
                    lock_type=workload[len("qlock_"):],
                    acquisitions_per_cpu=QLOCK_ACQUISITIONS,
                    warmup_per_cpu=QLOCK_WARMUP, backend=backend),
                    shards, telemetry=telemetry)
            else:
                res = run_sharded("lock", dict(
                    n_processors=n_processors, mechanism=mechanism,
                    acquisitions_per_cpu=LOCK_ACQUISITIONS,
                    warmup_per_cpu=LOCK_WARMUP, backend=backend),
                    shards, telemetry=telemetry)
        elif workload == "barrier":
            res = run_barrier_workload(n_processors, mechanism,
                                       episodes=BARRIER_EPISODES,
                                       warmup_episodes=BARRIER_WARMUP,
                                       warm_cache=warm_cache,
                                       backend=backend)
        elif workload.startswith("qlock_"):
            res = run_qlock_workload(n_processors, mechanism,
                                     lock_type=workload[len("qlock_"):],
                                     acquisitions_per_cpu=QLOCK_ACQUISITIONS,
                                     warmup_per_cpu=QLOCK_WARMUP,
                                     warm_cache=warm_cache,
                                     backend=backend)
        else:
            res = run_lock_workload(n_processors, mechanism,
                                    acquisitions_per_cpu=LOCK_ACQUISITIONS,
                                    warmup_per_cpu=LOCK_WARMUP,
                                    warm_cache=warm_cache,
                                    backend=backend)
        elapsed = time.perf_counter() - t0
        if events is None:
            events = res.events_dispatched
            cycles = res.total_cycles
        elif events != res.events_dispatched:
            raise AssertionError(
                f"nondeterministic event count for {workload}/"
                f"{mechanism.value}@{n_processors}: "
                f"{events} vs {res.events_dispatched}")
        elif cycles != res.total_cycles:
            raise AssertionError(
                f"nondeterministic cycle count for {workload}/"
                f"{mechanism.value}@{n_processors}: "
                f"{cycles} vs {res.total_cycles}")
        if elapsed < best:
            best = elapsed
            if shards > 1:
                from repro.shard.session import telemetry_summary
                best_telemetry = telemetry_summary(telemetry["snapshot"])
    cell = {
        "workload": workload,
        "mechanism": mechanism.value,
        "n_processors": n_processors,
        "events": events,
        "cycles": cycles,
        "wall_seconds": round(best, 4),
        "events_per_second": round(events / best),
    }
    if backend is not None:
        cell["backend"] = backend
    if best_telemetry is not None:
        cell["shard_telemetry"] = best_telemetry
    if profile:
        cell["profile"] = profile_cell(workload, mechanism, n_processors,
                                       warm_cache=warm_cache,
                                       backend=backend)
    return cell


#: hotspot rows attached per profiled cell — enough to see the flame
#: tip without bloating the JSON artifact
PROFILE_TOP = 20

#: subsystem attribution map: the first path fragment that matches wins.
#: "kernel" is the event loop + primitives (what the accel backend's C
#: core replaces), "coherence" the protocol engines, "fabric" the
#: interconnect, "model" everything else inside repro (CPUs, sync
#: algorithms, workload drivers, caches); frames outside repro (stdlib,
#: profiler) land in "other".
SUBSYSTEMS = (
    ("kernel", ("repro/sim/",)),
    ("coherence", ("repro/coherence/", "repro/cache/")),
    ("fabric", ("repro/network/",)),
    ("model", ("repro/",)),
)


def _subsystem_of(filename: str) -> str:
    path = filename.replace("\\", "/")
    for name, fragments in SUBSYSTEMS:
        if any(frag in path for frag in fragments):
            return name
    return "other"


def profile_cell(workload: str, mechanism: Mechanism, n_processors: int,
                 warm_cache=None, backend: str | None = None) -> dict:
    """One extra cProfile'd run of a cell, reduced to its hotspot table
    and a per-subsystem wall-time attribution.

    Returns ``{"hotspots": [...], "subsystems": {...}}``.  ``hotspots``
    is the ``PROFILE_TOP`` functions by *cumulative* time, each as
    ``{function, ncalls, tottime, cumtime}`` with tottime/cumtime in
    seconds.  ``subsystems`` sums every frame's *own* time (tottime,
    so the buckets are disjoint and add up to the run) into kernel /
    coherence / fabric / model / other buckets plus each bucket's
    fraction — the number that says where the next port should go.
    Note the compiled accel core's C frames are invisible to cProfile,
    so under the accel backend "kernel" reads near zero by construction:
    the residual Python time *is* the model-port opportunity.  The run
    is separate from (and never counted toward) the timed repeats:
    profiling overhead would poison the throughput numbers.  Sharded
    cells are not profiled — the work happens in worker processes the
    profiler cannot see.
    """
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    if workload == "barrier":
        run_barrier_workload(n_processors, mechanism,
                             episodes=BARRIER_EPISODES,
                             warmup_episodes=BARRIER_WARMUP,
                             warm_cache=warm_cache, backend=backend)
    elif workload.startswith("qlock_"):
        run_qlock_workload(n_processors, mechanism,
                           lock_type=workload[len("qlock_"):],
                           acquisitions_per_cpu=QLOCK_ACQUISITIONS,
                           warmup_per_cpu=QLOCK_WARMUP,
                           warm_cache=warm_cache, backend=backend)
    else:
        run_lock_workload(n_processors, mechanism,
                          acquisitions_per_cpu=LOCK_ACQUISITIONS,
                          warmup_per_cpu=LOCK_WARMUP,
                          warm_cache=warm_cache, backend=backend)
    prof.disable()
    stats = pstats.Stats(prof)
    stats.sort_stats("cumulative")
    rows = []
    for func in stats.fcn_list[:PROFILE_TOP]:  # (file, line, name)
        cc, nc, tt, ct, _callers = stats.stats[func]
        filename, lineno, name = func
        if filename.startswith("~"):
            label = name  # C builtins print as ~:0(<name>)
        else:
            label = f"{Path(filename).name}:{lineno}({name})"
        rows.append({
            "function": label,
            "ncalls": nc,
            "tottime": round(tt, 4),
            "cumtime": round(ct, 4),
        })
    buckets: dict[str, float] = {}
    for (filename, _lineno, _name), (_cc, _nc, tt, _ct, _callers) \
            in stats.stats.items():
        sub = "other" if filename.startswith("~") \
            else _subsystem_of(filename)
        buckets[sub] = buckets.get(sub, 0.0) + tt
    total = sum(buckets.values()) or 1.0
    subsystems = {
        name: {"tottime": round(secs, 4),
               "fraction": round(secs / total, 4)}
        for name, secs in sorted(buckets.items(),
                                 key=lambda kv: -kv[1])
    }
    return {"hotspots": rows, "subsystems": subsystems}


def cell_key(cell: dict) -> str:
    return (f"{cell['workload']}/{cell['mechanism']}"
            f"@{cell['n_processors']}")


def reference_cells(cells: list[dict]) -> list[dict]:
    """The cells measured on the reference backend (or with no backend
    selected at all — the same kernel).  Baseline comparisons, the
    trajectory gate, and the headline aggregates all draw from these:
    accel cells are evidence for the backend speedup summary, never a
    way to move the headline numbers."""
    return [c for c in cells if c.get("backend") in (None, "reference")]


def aggregate(cells: list[dict]) -> dict:
    """Events-weighted throughput per machine size and overall."""
    by_p: dict[int, list[dict]] = {}
    for cell in cells:
        by_p.setdefault(cell["n_processors"], []).append(cell)
    out = {}
    for p, group in sorted(by_p.items()):
        events = sum(c["events"] for c in group)
        wall = sum(c["wall_seconds"] for c in group)
        out[str(p)] = {"events": events, "wall_seconds": round(wall, 3),
                       "events_per_second": round(events / wall)}
    return out


def backend_speedup(cells: list[dict]) -> dict:
    """Per-cell and geomean accel-vs-reference throughput ratios.

    Pairs cells by (workload, mechanism, P) across the two backends —
    cycle and event counts are parity-pinned identical, so the ratio is
    a pure wall-clock comparison of the kernels on the same simulated
    work (asserted here as a belt-and-braces check).
    """
    ref = {cell_key(c): c for c in reference_cells(cells)}
    per_cell = {}
    ratios = []
    for cell in cells:
        if cell.get("backend") in (None, "reference"):
            continue
        mate = ref.get(cell_key(cell))
        if mate is None:
            continue
        if (cell["cycles"], cell["events"]) != \
                (mate["cycles"], mate["events"]):
            raise AssertionError(
                f"{cell_key(cell)}: backend {cell['backend']!r} simulated "
                f"({cell['cycles']} cycles, {cell['events']} events) but "
                f"reference simulated ({mate['cycles']}, {mate['events']})"
                " — backend parity is broken, ratio meaningless")
        ratio = cell["events_per_second"] / mate["events_per_second"]
        per_cell[f"{cell_key(cell)}[{cell['backend']}]"] = round(ratio, 2)
        ratios.append(ratio)
    if not ratios:
        return {}
    geomean = math.exp(sum(map(math.log, ratios)) / len(ratios))
    return {"per_cell": per_cell,
            "geomean_speedup": round(geomean, 2),
            "cells_compared": len(ratios)}


def compare(cells: list[dict], baseline_doc: dict) -> dict:
    """Per-cell and aggregate speedups against a baseline capture.

    Simulated cycle counts must match cell for cell when both captures
    carry them — the determinism contract a speedup claim rests on.
    Kernel event counts may differ across kernel generations (batched
    delivery dispatches fewer events for identical cycles), so they are
    not compared.
    """
    base = {cell_key(c): c for c in reference_cells(baseline_doc["cells"])}
    per_cell = {}
    ratios = []
    ev_cur = wall_cur = ev_base = wall_base = 0.0
    for cell in reference_cells(cells):
        key = cell_key(cell)
        ref = base.get(key)
        if ref is None:
            continue
        if (ref.get("cycles") is not None and cell.get("cycles") is not None
                and ref["cycles"] != cell["cycles"]):
            raise AssertionError(
                f"{key}: baseline simulated {ref['cycles']} cycles but "
                f"this kernel simulated {cell['cycles']} — the runs are "
                "not comparable (simulated behaviour changed)")
        ratio = cell["events_per_second"] / ref["events_per_second"]
        per_cell[key] = round(ratio, 2)
        ratios.append(ratio)
        ev_cur += cell["events"]
        wall_cur += cell["wall_seconds"]
        ev_base += ref["events"]
        wall_base += ref["wall_seconds"]
    if not ratios:
        return {}
    geomean = math.exp(sum(map(math.log, ratios)) / len(ratios))
    weighted = (ev_cur / wall_cur) / (ev_base / wall_base)
    return {
        "baseline_host": baseline_doc.get("host"),
        "per_cell": per_cell,
        "geomean_speedup": round(geomean, 2),
        "events_weighted_speedup": round(weighted, 2),
        # same simulated work (cycles asserted equal above), wall-clock
        # ratio — the scaling number sharded runs are judged by
        "wall_speedup": round(wall_base / wall_cur, 2),
    }


def gate_trajectory(cells: list[dict], trajectory_doc: dict,
                    max_regression_pct: float) -> tuple[bool, str]:
    """Relative perf gate against the committed trajectory capture.

    Compares the geometric mean of per-cell throughput ratios (this run
    / the trajectory's committed sample) and fails when any trend
    regresses by more than ``max_regression_pct`` percent.  Reference
    cells gate against ``sources.scale.samples``; cells measured on
    another backend gate against that backend's own trend under
    ``sources.scale.backends.<name>.samples`` — so a model-port
    regression that only slows the accel backend still fails, instead
    of hiding behind an unchanged reference trend.  Cells with no
    trajectory sample are skipped — the gate follows whatever ladder
    the trajectory last recorded.
    """
    scale = trajectory_doc.get("sources", {}).get("scale", {})
    trends = {"reference": scale.get("samples", {})}
    for b, entry in (scale.get("backends") or {}).items():
        trends[b] = entry.get("samples", {})
    ratios: dict[str, list[float]] = {}
    for cell in cells:
        b = cell.get("backend") or "reference"
        ref = trends.get(b, {}).get(cell_key(cell))
        if ref:
            ratios.setdefault(b, []).append(
                cell["events_per_second"] / ref)
    if not ratios:
        return True, ("trajectory gate skipped: no overlapping cells "
                      "in the trajectory's scale samples")
    threshold = 1.0 - max_regression_pct / 100.0
    ok = True
    parts = []
    for b, rs in sorted(ratios.items()):
        geomean = math.exp(sum(map(math.log, rs)) / len(rs))
        parts.append(f"{b}: geomean {geomean:.2f}x over {len(rs)} "
                     f"cell(s)")
        if geomean < threshold:
            ok = False
    detail = ("; ".join(parts)
              + f"; threshold {threshold:.2f}x (-{max_regression_pct:.0f}%)")
    return ok, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cpus", nargs="+", default=None,
                        help=f"machine sizes, space- or comma-separated "
                             f"powers of two (default {DEFAULT_CPUS})")
    parser.add_argument("--mechanisms", nargs="+", default=None,
                        help="mechanism names (default: all five)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs per cell; fastest wall time kept")
    parser.add_argument("--quick", action="store_true",
                        help=f"CI smoke: cpus {QUICK_CPUS}, single repeat")
    parser.add_argument("--no-warm", action="store_true",
                        help="disable snapshot warm-start between repeats "
                             "(every repeat builds and warms from scratch)")
    parser.add_argument("--baseline", default=None,
                        help="earlier BENCH_scale.json to compute speedups "
                             "against (same-host captures only)")
    parser.add_argument("--floor", type=float, default=None,
                        help="fail if events/s at the largest size falls "
                             "below this floor")
    parser.add_argument("--gate-trajectory", default=None,
                        help="BENCH_trajectory.json to gate against: fail "
                             "when the geomean per-cell throughput "
                             "regresses more than --gate-pct percent")
    parser.add_argument("--gate-pct", type=float, default=25.0,
                        help="max tolerated geomean regression for "
                             "--gate-trajectory (default 25%%)")
    parser.add_argument("--shards", type=int, default=1,
                        help="partition every run across N shard worker "
                             "processes (repro.shard); implies --no-warm")
    parser.add_argument("--barrier-only", action="store_true",
                        help="skip the lock cells (huge machines: lock "
                             "runs serialize P acquisitions)")
    parser.add_argument("--no-qlocks", action="store_true",
                        help="skip the queue-lock (MCS/CNA/rw) cells; "
                             f"they run at sizes <= {QLOCK_MAX_CPUS} "
                             "(the paper's largest machine) and skip "
                             "unsupported mechanism/lock combinations")
    parser.add_argument("--backend", nargs="+", default=None,
                        help="event-kernel backend(s) to measure "
                             "(repro.sim.backends); with several, every "
                             "cell runs once per backend and the output "
                             "gains an accel-vs-reference speedup summary."
                             " Headline aggregates always come from the "
                             "reference cells")
    parser.add_argument("--profile", action="store_true",
                        help="attach a cProfile top-20 cumulative-time "
                             "hotspot table to every cell (one extra "
                             "untimed run each; single-process only)")
    parser.add_argument("--out", default="BENCH_scale.json",
                        help="output path, or - for stdout")
    args = parser.parse_args(argv)

    cpus = (parse_cpus(args.cpus) if args.cpus
            else (QUICK_CPUS if args.quick else DEFAULT_CPUS))
    repeat = 1 if args.quick and args.repeat == 3 else args.repeat
    mechs = ([Mechanism(m) for m in args.mechanisms]
             if args.mechanisms else list(Mechanism))
    warm = (WarmCache is not None) and not args.no_warm \
        and args.shards <= 1
    workloads = ("barrier",) if args.barrier_only else ("barrier", "lock")
    if not args.barrier_only and not args.no_qlocks:
        workloads += QLOCK_WORKLOADS
    backends: list = args.backend if args.backend else [None]
    if args.backend:
        from repro.sim.backends import resolve_backend_name
        for b in backends:
            resolve_backend_name(b)  # fail loudly on a typo
    if args.profile and args.shards > 1:
        raise SystemExit("error: --profile is single-process only (the "
                         "profiler cannot see shard worker processes)")

    cells = []
    for p in cpus:
        for backend in backends:
            # one warm pool per (size, backend): warm snapshots embed the
            # kernel, so cross-backend reuse would defeat the comparison
            warm_cache = WarmCache() if warm else None
            for mech in mechs:
                for workload in workloads:
                    if workload.startswith("qlock_") and (
                            p > QLOCK_MAX_CPUS or not qlock_supported(
                                workload[len("qlock_"):], mech)):
                        continue
                    cell = run_cell(workload, mech, p, repeat,
                                    warm_cache=warm_cache,
                                    shards=args.shards, backend=backend,
                                    profile=args.profile)
                    cells.append(cell)
                    tag = f" [{backend}]" if backend else ""
                    print(f"{cell_key(cell):>24s}{tag:>12s}  "
                          f"{cell['events']:>9d} ev  "
                          f"{cell['wall_seconds']:7.3f}s  "
                          f"{cell['events_per_second']:>8d} ev/s",
                          flush=True)

    payload = {
        "benchmark": "scale",
        "cpus": cpus,
        "repeat": repeat,
        "warm_start": warm,
        "shards": args.shards,
        "barrier_episodes": BARRIER_EPISODES,
        "lock_acquisitions_per_cpu": LOCK_ACQUISITIONS,
        "host": {
            "cores": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "cells": cells,
        # headline throughput comes from the reference cells; an
        # accel-only capture (no reference ran) falls back to its own
        "aggregate_events_per_second": aggregate(
            reference_cells(cells) or cells),
    }
    if args.backend:
        payload["backends"] = backends
    if "accel" in backends:
        # a host without the compiled core runs accel on the reference
        # kernel: its "speedup" is then reference against itself
        from repro.sim.backends import accel_implementation
        payload["accel_implementation"] = accel_implementation()
    speedup = backend_speedup(cells)
    if speedup:
        payload["backend_speedup"] = speedup
    if args.baseline:
        baseline_doc = json.loads(Path(args.baseline).read_text())
        payload["vs_baseline"] = compare(cells, baseline_doc)

    text = json.dumps(payload, indent=2) + "\n"
    if args.out == "-":
        print(text, end="")
    else:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    if "vs_baseline" in payload and payload["vs_baseline"]:
        vs = payload["vs_baseline"]
        print(f"speedup vs baseline: geomean {vs['geomean_speedup']}x, "
              f"events-weighted {vs['events_weighted_speedup']}x")
    if speedup:
        impl = payload.get("accel_implementation")
        print(f"backend speedup vs reference: geomean "
              f"{speedup['geomean_speedup']}x over "
              f"{speedup['cells_compared']} cell(s)"
              + (f" (accel: {impl})" if impl else ""))

    if args.floor is not None:
        largest = str(max(cpus))
        got = payload["aggregate_events_per_second"][largest]
        if got["events_per_second"] < args.floor:
            print(f"FAIL: {got['events_per_second']} ev/s at {largest} "
                  f"CPUs is below the floor of {args.floor:.0f}")
            return 1
        print(f"floor check OK: {got['events_per_second']} ev/s at "
              f"{largest} CPUs (floor {args.floor:.0f})")

    if args.gate_trajectory:
        trajectory_doc = json.loads(Path(args.gate_trajectory).read_text())
        ok, detail = gate_trajectory(cells, trajectory_doc, args.gate_pct)
        if not ok:
            print(f"FAIL: trajectory regression gate: {detail}")
            return 1
        print(f"trajectory gate OK: {detail}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
