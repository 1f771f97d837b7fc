"""Workloads, correctness gate and metrics of the benchmark of record.

Every timing here is *host* time; the end-to-end metrics use it
corrected for the shared host's changing speed (``hostspeed.py``).
Simulated cycles and message totals are outputs the gate checks, never
metrics.  The program is driven only
through its public entry points: ``run_lock_workload``,
``run_barrier_workload``, ``WarmCache``, ``ParallelRunner`` with a
``ResultCache``, and the ``RunSpec`` constructors.  Every cell runs the
``reference`` kernel backend, the one tier-1 and users without a C
compiler run.

Workloads
---------
``lock256``
    Ticket lock at 256 CPUs (Table 4's largest machine) for all five
    mechanisms, replayed from warm snapshots: long same-cycle resume
    chains, per-delivery handler spawns, unicast sends, spin wake-ups.
``barrier_fanout``
    Centralized barrier at 256 CPUs (Table 2's column) and 1024 CPUs for
    all five mechanisms at three home nodes each: P-way invalidation and
    word-update waves.  A lock-path change should leave it flat, and a
    fan-out change should leave ``lock256`` mostly flat.
``sweep_small``
    A cold sweep of the quick paper grid through ``ParallelRunner(jobs=2)``
    into a fresh ``ResultCache``, then a second pass that must be all
    cache hits: machine construction, runner dispatch, pickling, caching
    and the checkers, with the 256+-CPU hot paths bypassed.

Not measured yet: sharded execution (on a 2-core host a sharded run
measures the scheduler) and the compiled accel core (a plain checkout
has no ``.so``, and building it writes into ``src/``); every result
records whether ``_accel_core`` was importable.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy

from repro.config.mechanism import Mechanism
from repro.harness.paper_data import PAPER_TABLE2, PAPER_TABLE4
from repro.runner import (ParallelRunner, ResultCache, RunFailure, RunSpec,
                          code_fingerprint)
from repro.runner.spec import _process_warm_cache
from repro.workloads.barrier import run_barrier_workload
from repro.workloads.locks import run_lock_workload
from repro.workloads.qlocks import QLOCK_TYPES, qlock_supported
from repro.workloads.warm import WarmCache

from hostspeed import HostSpeed
from layers import LayerTracer, spawn_family

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
EXPECTED_PATH = HERE / "expected.json"
#: scratch space for result caches, relative to the working directory
WORK_DIR = Path(".perfbench-work")

BACKEND = "reference"
DEFAULT_SEED = 0
LLSC = Mechanism.LLSC
MECHANISMS = tuple(Mechanism)

#: (full, tiny) sizes; tiny exists for the self-tests
LOCK_CPUS = (256, 8)
#: the lock suite runs 3 acquisitions per CPU; at 256 CPUs that is ~90 s
#: a round against ~17 s for one on a 2-vCPU x86-64 VM (the contended
#: cells grow superlinearly), which would push a traced run past the
#: 180 s a run may take
LOCK_ACQUISITIONS = 1
BARRIER_CPUS = ((256, 1024), (8, 16))
#: the per-point sizes below are the paper suites' own defaults
#: (``run_barrier_suite``/``run_lock_suite``/``run_qlock_suite``)
BARRIER_EPISODES = 3
BARRIER_HOMES = 3
SWEEP_CPUS = ((4, 8, 16, 32, 64), (4, 8))
SWEEP_EPISODES = 3
SWEEP_ACQUISITIONS = 3
FUZZ_CPUS = (8, 4)
FUZZ_WORKLOADS = ("counter", "barrier", "lock")
SWEEP_JOBS = 2
#: the sweep's set-up takes ~35 ms, so its median needs more repeats
SETUP_REPEATS = 9

WORKLOAD_NAMES = ("lock256", "barrier_fanout", "sweep_small")

#: end-to-end metrics: name -> unit
END_TO_END = {
    "wall_s": "s", "setup_s": "s", "cycles_per_s": "1/s",
    "points_per_s": "1/s", "peak_rss_mb": "MB",
}

#: per-layer metrics: name -> (unit, what it should move on which workload)
PER_LAYER = {
    "sim.events": ("count", "wall_s on lock256; flat on sweep_small"),
    "sim.spawns": ("count", "wall_s on lock256; flat on sweep_small"),
    "sim.schedules": ("count", "wall_s on lock256; flat on sweep_small"),
    "sim.self_s": ("s", "wall_s on lock256; flat on sweep_small"),
    "network.messages": ("count", "wall_s on barrier_fanout"),
    "network.sends": ("count", "wall_s on barrier_fanout"),
    "network.multicasts": ("count", "wall_s on barrier_fanout, once a "
                           "config enables hardware multicast"),
    "network.waves": ("count", "wall_s on barrier_fanout"),
    "network.retransmits": ("count", "wall_s on barrier_fanout"),
    "network.self_s": ("s", "wall_s on barrier_fanout"),
    "coherence.transactions": ("count", "wall_s on lock256"),
    "coherence.handle_calls": ("count", "wall_s on lock256"),
    "coherence.invalidations_sent": ("count", "wall_s on lock256"),
    "coherence.word_updates_pushed": (
        "count", "wall_s on lock256 and barrier_fanout"),
    "coherence.self_s": ("s", "wall_s on lock256"),
    "cache.l1.hits": ("count", "wall_s on barrier_fanout"),
    "cache.l1.misses": ("count", "wall_s on barrier_fanout"),
    "cache.l2.word_updates": ("count", "wall_s on barrier_fanout"),
    "cache.self_s": ("s", "wall_s on barrier_fanout"),
    "cpu.spin_wakeups": ("count", "wall_s on lock256 (llsc/atomic cells)"),
    "cpu.sc_success_ratio": ("ratio", "wall_s on lock256 (llsc cell)"),
    "cpu.self_s": ("s", "wall_s on lock256 (llsc/atomic cells)"),
    "amu.ops_executed": ("count", "wall_s on lock256 and barrier_fanout"),
    "amu.puts_deferred": ("count", "wall_s on lock256 and barrier_fanout"),
    "amu.self_s": ("s", "wall_s on lock256 and barrier_fanout"),
    "mao.ops_issued": ("count", "wall_s on lock256 (mao cell)"),
    "mao.self_s": ("s", "wall_s on lock256 (mao cell)"),
    "activemsg.handle_calls": ("count", "wall_s on lock256 (actmsg cell)"),
    "activemsg.self_s": ("s", "wall_s on lock256 (actmsg cell)"),
    "sync.self_s": ("s", "wall_s on lock256 and barrier_fanout"),
    "workloads.self_s": ("s", "wall_s on lock256 and barrier_fanout"),
    "mem.self_s": ("s", "wall_s on lock256 and barrier_fanout"),
    "core.build_s": ("s", "setup_s everywhere; wall_s on sweep_small"),
    "core.restore_s": ("s", "setup_s everywhere; wall_s on sweep_small"),
    "core.check_s": ("s", "setup_s everywhere; wall_s on sweep_small"),
    "core.self_s": ("s", "setup_s everywhere; wall_s on sweep_small"),
    "runner.points": ("count", "points_per_s on sweep_small"),
    "runner.cache_hits": ("count", "points_per_s on sweep_small"),
    "runner.cache_misses": ("count", "points_per_s on sweep_small"),
    "runner.load_s": ("s", "points_per_s on sweep_small"),
    "runner.store_s": ("s", "points_per_s on sweep_small"),
    "runner.retries": ("count", "points_per_s on sweep_small"),
    "runner.failures": ("count", "points_per_s on sweep_small"),
    "runner.self_s": ("s", "points_per_s on sweep_small"),
    "check.fuzz_s": ("s", "wall_s on sweep_small"),
    "check.self_s": ("s", "wall_s on sweep_small"),
    "check.violations": ("count", "wall_s on sweep_small"),
    "obs.self_s": ("s", "diagnostic only"),
    "obs.trace_overhead_pct": ("%", "diagnostic only"),
    "host.other_s": ("s", "diagnostic only"),
}


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------
class Gate:
    """Counts every checked cell execution and every failed check.

    An outcome is a tuple of simulated totals or the exception/verdict
    that replaced it.  Each cell's first outcome in the process is the
    reference every later one (repeat rounds, the traced pass) must
    equal; with ``expected`` it must also equal the recorded value.
    """

    def __init__(self, expected: Optional[dict] = None) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        #: failures raised by the program's own checks
        self.violations = 0
        self.notes: list[str] = []
        self._first: dict[str, tuple] = {}

    def check(self, cell: str, outcome) -> bool:
        self.attempted += 1
        problem = None
        if isinstance(outcome, (BaseException, str)):
            self.violations += 1
            problem = (outcome if isinstance(outcome, str)
                       else f"{type(outcome).__name__}: {outcome}")
        else:
            first = self._first.setdefault(cell, outcome)
            if outcome != first:
                problem = f"differs from an earlier run: {outcome} != {first}"
            elif self.expected is not None:
                want = self.expected.get(cell)
                if want is None or tuple(want) != outcome:
                    problem = f"recorded {want}, measured {outcome}"
        if problem is not None:
            self.failed += 1
            self.notes.append(f"{cell}: {problem}")
        return problem is None

    def fail(self, cell: str, problem: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.notes.append(f"{cell}: {problem}")


@dataclass
class Round:
    """One measured round: host time and the simulated outputs."""

    seconds: float = 0.0
    #: host-speed factor of the round's samples (see hostspeed.py)
    speed: float = 1.0
    #: host seconds of the part that simulated (the cold pass of a sweep)
    busy_seconds: float = 0.0
    point_seconds: list = field(default_factory=list)
    cycles: int = 0
    #: cell -> result object, for the paper comparison
    results: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# lock256 and barrier_fanout: warm-started cells
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Cell:
    kind: str                   # "lock" or "barrier"
    n_processors: int
    mechanism: Mechanism
    home_node: int

    @property
    def name(self) -> str:
        return (f"{self.kind}{self.n_processors}.{self.mechanism.value}"
                f"@{self.home_node}")

    def run(self, warm: WarmCache, prime: bool = False):
        """Measure the cell; ``prime`` only builds, warms and checkpoints."""
        if self.kind == "lock":
            return run_lock_workload(
                self.n_processors, self.mechanism,
                acquisitions_per_cpu=0 if prime else LOCK_ACQUISITIONS,
                home_node=self.home_node, warm_cache=warm, backend=BACKEND)
        return run_barrier_workload(
            self.n_processors, self.mechanism,
            episodes=0 if prime else BARRIER_EPISODES,
            home_node=self.home_node, warm_cache=warm, backend=BACKEND)


class CellWorkload:
    """Build and warm every cell once, then replay them from snapshots."""

    runners = ()

    def __init__(self, cells: list[Cell]) -> None:
        self.cells = cells
        self.warm = WarmCache()

    def setup(self, gate: Gate) -> float:
        t0 = time.perf_counter()
        for cell in list(self.cells):
            try:
                cell.run(self.warm, prime=True)
            except Exception as err:    # a cell that cannot warm is a failure
                gate.check(cell.name, err)
                self.cells.remove(cell)
        return time.perf_counter() - t0

    def run_round(self, gate: Gate) -> Round:
        rnd = Round()
        gc.collect()
        for cell in self.cells:
            t0 = time.perf_counter()
            try:
                result = cell.run(self.warm)
            except Exception as err:    # invariant or mutual-exclusion assert
                result = err
            elapsed = time.perf_counter() - t0
            rnd.point_seconds.append(elapsed)
            rnd.seconds += elapsed
            if isinstance(result, Exception):
                gate.check(cell.name, result)
                continue
            gate.check(cell.name, (result.total_cycles,
                                   result.traffic.total_messages))
            rnd.cycles += result.total_cycles
            rnd.results[cell] = result
        rnd.busy_seconds = rnd.seconds
        return rnd

    def close(self) -> None:
        self.warm.clear()


def lock256_cells(seed: int, tiny: bool) -> list[Cell]:
    n = LOCK_CPUS[tiny]
    home = random.Random(seed).randrange(n // 2)
    return [Cell("lock", n, mech, home) for mech in MECHANISMS]


def barrier_cells(seed: int, tiny: bool) -> list[Cell]:
    """``BARRIER_HOMES`` home nodes per machine size: the LL/SC cells'
    cycles swing widely with the home node, so every round covers
    several."""
    rng = random.Random(seed)
    return [Cell("barrier", n, mech, home)
            for n in BARRIER_CPUS[tiny]
            for home in rng.sample(range(n // 2), BARRIER_HOMES)
            for mech in MECHANISMS]


# ----------------------------------------------------------------------
# sweep_small: cold sweep plus an all-hits pass through the runner
# ----------------------------------------------------------------------
def sweep_specs(seed: int, tiny: bool) -> list[RunSpec]:
    """The grid in paper order; the seed picks the fuzz points' seeds."""
    rng = random.Random(seed)
    specs = []
    for n in SWEEP_CPUS[tiny]:
        for mech in MECHANISMS:
            specs.append(RunSpec.barrier(n, mech, episodes=SWEEP_EPISODES,
                                         backend=BACKEND))
            specs.append(RunSpec.lock(
                n, mech, acquisitions_per_cpu=SWEEP_ACQUISITIONS,
                backend=BACKEND))
            specs += [RunSpec.qlock(n, mech, lock_type=lt,
                                    acquisitions_per_cpu=SWEEP_ACQUISITIONS,
                                    backend=BACKEND)
                      for lt in QLOCK_TYPES if qlock_supported(lt, mech)]
    for workload in FUZZ_WORKLOADS:
        for mech in MECHANISMS:
            specs.append(RunSpec.fuzz(FUZZ_CPUS[tiny], mech, workload,
                                      seed=rng.randrange(1 << 16),
                                      max_extra=200, backend=BACKEND))
    return specs


def point_outcome(outcome):
    """Simulated totals of a sweep point, or the reason it failed."""
    if isinstance(outcome, RunFailure):
        return outcome.error
    result = outcome.result
    if isinstance(result, dict):                    # a fuzz verdict
        if not result["ok"]:
            return f"fuzz violations {result['violations'][:3]} " \
                   f"error {result['error']}"
        return (result["cycles"],)
    return (result.total_cycles, result.traffic.total_messages)


class SweepWorkload:
    """Cold sweep then all-hits pass, each round in a seeded point order
    (the order decides how well the two workers balance)."""

    def __init__(self, specs: list[RunSpec], jobs: int, seed: int) -> None:
        self.specs = specs
        self.jobs = jobs
        self.runners: list[ParallelRunner] = []
        self._order = random.Random(f"order-{seed}")
        WORK_DIR.mkdir(exist_ok=True)
        self._work = Path(tempfile.mkdtemp(prefix="sweep-", dir=WORK_DIR))
        self._caches = 0

    def _fresh_root(self) -> Path:
        self._caches += 1
        return self._work / f"cache{self._caches}"

    def setup(self, gate: Gate) -> float:
        """Runner and pool start: fingerprint the code, build the runner,
        dispatch the two smallest points; the median of a few repeats."""
        first = sorted(self.specs, key=lambda s: (s.kwargs["n_processors"],
                                                  s.canonical()))[:2]
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            code_fingerprint(refresh=True)
            runner = ParallelRunner(jobs=self.jobs,
                                    cache=ResultCache(root=self._fresh_root()))
            runner.run_outcomes(first)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def run_round(self, gate: Gate) -> Round:
        specs = list(self.specs)
        self._order.shuffle(specs)
        runner = ParallelRunner(jobs=self.jobs,
                                cache=ResultCache(root=self._fresh_root()))
        self.runners.append(runner)
        gc.collect()
        t0 = time.perf_counter()
        cold = runner.run_outcomes(specs)
        t1 = time.perf_counter()
        cached = runner.run_outcomes(specs)
        t2 = time.perf_counter()
        rnd = Round(seconds=t2 - t0, busy_seconds=t1 - t0)
        hit_labels = {p.label for p in runner.stats.points[len(specs):]
                      if p.cached}
        for spec, first, second in zip(specs, cold, cached):
            label = spec.label()
            outcome = point_outcome(first)
            if gate.check(label, outcome):
                rnd.point_seconds.append(first.wall_seconds)
                rnd.cycles += outcome[0]
                rnd.results[spec] = first.result
            if label in hit_labels:
                gate.check(label, point_outcome(second))
            else:
                gate.fail(label, "not a cache hit in the second pass")
        return rnd

    def close(self) -> None:
        shutil.rmtree(self._work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:             # another run still uses it
            pass


def make_workload(name: str, seed: int, tiny: bool = False,
                  jobs: int = SWEEP_JOBS):
    if name == "lock256":
        return CellWorkload(lock256_cells(seed, tiny))
    if name == "barrier_fanout":
        return CellWorkload(barrier_cells(seed, tiny))
    if name == "sweep_small":
        return SweepWorkload(sweep_specs(seed, tiny), jobs, seed)
    raise ValueError(f"unknown workload {name!r}; have {WORKLOAD_NAMES}")


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def paper_err_pct(results: dict) -> float:
    """Mean |relative error| of each mechanism's speedup over LL/SC against
    the paper, at the largest processor count the paper tabulates among
    this round's results (Table 4 ticket locks, Table 2 barriers); cycles
    are summed over home nodes."""
    errors = []
    for kind, table in (("lock", _table4), ("barrier", _table2)):
        cycles: dict[int, Counter] = {}
        for key, result in results.items():
            if key.kind == kind and result.n_processors in table:
                cycles.setdefault(result.n_processors, Counter())[
                    result.mechanism] += result.total_cycles
        if not cycles:
            continue
        n = max(cycles)
        paper = table[n]
        row = cycles[n]
        errors += [abs(row[LLSC] / row[m] / paper[m] - 1.0)
                   for m in paper if m is not LLSC and m in row]
    return 100.0 * statistics.fmean(errors)


_table2 = PAPER_TABLE2
_table4: dict[int, dict[Mechanism, float]] = {}
for (_n, _mech, _lock_type), _speedup in PAPER_TABLE4.items():
    if _lock_type == "ticket":
        _table4.setdefault(_n, {})[_mech] = _speedup


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def end_to_end(setup_s: float, rounds: list[Round]) -> dict:
    """The metrics from host-speed corrected times (``seconds * speed``)."""
    busy = sum(r.busy_seconds * r.speed for r in rounds)
    return {
        "wall_s": statistics.median(r.seconds * r.speed for r in rounds),
        "setup_s": setup_s,
        "cycles_per_s": sum(r.cycles for r in rounds) / busy,
        "points_per_s": sum(len(r.point_seconds) for r in rounds) / busy,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tracer: LayerTracer, gate: Gate, workload,
              overhead_pct: float) -> dict:
    counts, seconds = tracer.counts, tracer.seconds
    out = {name: counts.get(name, 0) for name, (unit, _) in PER_LAYER.items()
           if unit == "count"}
    out.update({name: seconds.get(name, 0.0)
                for name, (unit, _) in PER_LAYER.items() if unit == "s"})
    out["sim.spawns"] = sum(tracer.spawn_names.values())
    sc = counts["cpu.sc_successes"] + counts["cpu.sc_failures"]
    out["cpu.sc_success_ratio"] = counts["cpu.sc_successes"] / sc if sc else 0.0
    runners = workload.runners
    out["runner.points"] = sum(r.stats.total_points for r in runners)
    out["runner.cache_hits"] = sum(r.stats.cache_hits for r in runners)
    out["runner.cache_misses"] = sum(r.cache.stats.misses for r in runners)
    out["runner.retries"] = sum(r.stats.retries for r in runners)
    out["runner.failures"] = sum(r.stats.failures for r in runners)
    out["check.violations"] = gate.violations
    out["obs.trace_overhead_pct"] = overhead_pct
    return {name: out[name] for name in PER_LAYER}


# ----------------------------------------------------------------------
# one benchmark run
# ----------------------------------------------------------------------
def provenance() -> dict:
    sha = dirty = None
    if (REPO / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or None
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=REPO, capture_output=True, text=True,
                timeout=30).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            sha = dirty = None
    try:
        importlib.import_module("repro.sim.backends._accel_core")
        accel = True
    except ImportError:
        accel = False
    return {"git_sha": sha, "git_dirty": dirty, "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "backend": BACKEND, "accel_core_importable": accel}


def load_expected(name: str) -> dict:
    return json.loads(EXPECTED_PATH.read_text()).get(name, {})


def measure(name: str, seed: int, seconds: float, tiny: bool, gate: Gate,
            jobs: int = SWEEP_JOBS) -> tuple[dict, dict, object]:
    """Set up, then run rounds until ``seconds`` of measuring (at least
    one round).  Returns the end-to-end metrics (host-speed corrected),
    the figures reported beside them (raw host times among them) and the
    workload."""
    workload = make_workload(name, seed, tiny, jobs)
    try:
        with HostSpeed() as speed:
            setup_raw = workload.setup(gate)
            setup_speed = speed.factor()
            rounds = []
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < seconds:
                rnd = workload.run_round(gate)
                rnd.speed = speed.factor()
                rounds.append(rnd)
        points = [t for r in rounds for t in r.point_seconds]
        extras = {"round_seconds": [r.seconds for r in rounds],
                  "round_speed": [r.speed for r in rounds],
                  "setup_speed": setup_speed,
                  "raw_wall_s": statistics.median(r.seconds for r in rounds),
                  "raw_setup_s": setup_raw,
                  "point_p90_s": statistics.quantiles(
                      points, n=10, method="inclusive")[-1],
                  "point_samples": len(points),
                  "paper_err_pct": paper_err_pct(rounds[0].results)}
        return end_to_end(setup_raw * setup_speed, rounds), extras, workload
    finally:
        workload.close()


def _measure_in_process(name, seed, tiny, gate):
    # in-process sweep points reuse the runner's per-process warm cache;
    # empty it so each pass builds and warms exactly as a fresh worker does
    warm = _process_warm_cache()
    if warm is not None:
        warm.clear()
    return measure(name, seed, 0, tiny, gate, jobs=1)


def run(name: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, expected: Optional[dict] = None) -> dict:
    """One benchmark run; returns the full result record.

    ``expected`` overrides the recorded cells (used by the self-tests);
    by default recorded values are checked for the default seed only.
    """
    if expected is None and seed == DEFAULT_SEED and not tiny:
        expected = load_expected(name)
    gate = Gate(expected)
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "tiny": tiny}
    if not trace:
        metrics, extras, _ = measure(name, seed, seconds, tiny, gate)
        units = END_TO_END
    else:
        # both passes in-process (jobs=1) so the tracer sees every layer;
        # one round each, and the gate requires the traced pass to
        # reproduce the untraced pass's cycles and messages
        untraced, extras, _ = _measure_in_process(name, seed, tiny, gate)
        with LayerTracer() as tracer:
            traced, _, workload = _measure_in_process(name, seed, tiny, gate)
        base = untraced["setup_s"] + untraced["wall_s"]
        overhead = 100.0 * ((traced["setup_s"] + traced["wall_s"]) / base - 1)
        metrics = per_layer(tracer, gate, workload, overhead)
        families = Counter()
        for spawn_name, n in tracer.spawn_names.items():
            families[spawn_family(spawn_name)] += n
        record["spawns_by_name"] = dict(families.most_common())
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    # stamped after measuring: provenance runs git, whose memory must not
    # land in peak_rss_mb's largest-child figure
    record["provenance"] = provenance()
    record.update(correct=gate.failed == 0, attempted=gate.attempted,
                  failed=gate.failed, failures=gate.notes[:20],
                  **extras,
                  metrics={k: {"value": v, "unit": units[k]}
                           for k, v in metrics.items()})
    return record


def record_expected(name: str, tiny: bool = False) -> dict:
    """Simulated totals of every cell at the default seed, for
    ``expected.json`` (run after a change that legitimately moves them)."""
    gate = Gate()
    workload = make_workload(name, DEFAULT_SEED, tiny)
    try:
        workload.setup(gate)
        workload.run_round(gate)
    finally:
        workload.close()
    if gate.failed:
        raise RuntimeError(f"cannot record {name}: {gate.notes}")
    return {cell: list(outcome) for cell, outcome in sorted(gate._first.items())}


