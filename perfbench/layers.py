"""Per-layer attribution for the traced benchmark run, measured from outside.

Nothing here edits the simulator.  :class:`LayerTracer` wraps public
methods *at class level* (before any machine is built, so bound methods
captured at construction time see the wrapper too), counts and times the
calls, harvests each finished machine's component counters through an
unattached :class:`repro.obs.MachineMetrics` registry (pull collectors
only, so no hot path changes), and runs a low-rate ``SIGPROF`` sampler
that charges host time to the innermost ``repro.<pkg>`` frame.
:meth:`LayerTracer.close` restores every wrapped attribute.
"""

from __future__ import annotations

import re
import signal
import time
from collections import Counter
from pathlib import Path

#: sampler period; low enough that the handler costs well under 1% of a run
SAMPLE_INTERVAL_S = 0.01

#: repro packages reported as ``<pkg>.self_s``; any other frame, inside
#: or outside repro, is charged to ``host.other_s``
SAMPLED_PACKAGES = ("sim", "network", "coherence", "cache", "cpu", "amu",
                    "mao", "activemsg", "sync", "workloads", "core", "mem",
                    "runner", "check", "obs")

#: metrics-snapshot counters summed over every cell run while tracing
HARVESTED_COUNTERS = {
    "kernel.events_dispatched": "sim.events",
    "network.messages": "network.messages",
    "network.retransmits": "network.retransmits",
    "coherence.transactions": "coherence.transactions",
    "coherence.invalidations_sent": "coherence.invalidations_sent",
    "coherence.word_updates_pushed": "coherence.word_updates_pushed",
    "cache.l1.hits": "cache.l1.hits",
    "cache.l1.misses": "cache.l1.misses",
    "cache.l2.word_updates": "cache.l2.word_updates",
    "cpu.spin_wakeups": "cpu.spin_wakeups",
    "cpu.sc_successes": "cpu.sc_successes",
    "cpu.sc_failures": "cpu.sc_failures",
    "amu.ops_executed": "amu.ops_executed",
    "amu.puts_deferred": "amu.puts_deferred",
    "mao.ops_issued": "mao.ops_issued",
}

_SPAWN_NAME = re.compile(r"\[.*?\]|@\d+|\d+")


def spawn_family(name: str) -> str:
    """``thread-cpu17`` -> ``thread-cpu``; ``am-exec[3]`` -> ``am-exec``."""
    return _SPAWN_NAME.sub("", name) or "anonymous"


class LayerTracer:
    """Class-level call counters, timers and a package sampler."""

    def __init__(self) -> None:
        import repro
        self.counts: Counter = Counter()
        self.spawn_names: Counter = Counter()
        self.seconds: Counter = Counter()
        #: callables that undo each wrap, applied in reverse by close()
        self._undo: list = []
        self._timer_depth: Counter = Counter()
        self._root = str(Path(repro.__file__).resolve().parent) + "/"
        self._pkg_of: dict[str, str] = {}
        self._last_sample = 0.0
        self._prev_handler = None

    # -- wrapping ------------------------------------------------------
    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr]
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, make(original))

    def count(self, owner, attr: str, metric: str) -> None:
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[metric] += 1
                return fn(*args, **kwargs)
            return counted
        self._patch(owner, attr, make)

    def timed_function(self, fn, metric: str, group: str = ""):
        """``fn`` wrapped to accumulate its seconds in ``metric``.  Within
        one ``group`` only the outermost timed call is charged (a pool
        rewind inside ``acquire`` is build time, not restore time)."""
        tracer = self
        group = group or metric

        def timed(*args, **kwargs):
            if tracer._timer_depth[group]:
                return fn(*args, **kwargs)
            tracer._timer_depth[group] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.seconds[metric] += time.perf_counter() - t0
                tracer._timer_depth[group] -= 1
        return timed

    def time(self, owner, attr: str, metric: str, group: str = "") -> None:
        self._patch(owner, attr,
                    lambda fn: self.timed_function(fn, metric, group))

    def install(self) -> None:
        from repro.activemsg.endpoint import ActiveMessageEndpoint
        from repro.check.fuzz import run_fuzz_schedule
        from repro.coherence.protocol import HomeEngine
        from repro.core.machine import Hub, Machine
        from repro.core.snapshot import MachinePool
        from repro.network.fabric import Network
        from repro.runner import ResultCache, register_kind
        from repro.sim.kernel import Simulator

        spawn_names = self.spawn_names

        def make_spawn(fn):
            def spawn(sim, gen, name=""):
                spawn_names[name] += 1
                return fn(sim, gen, name)
            return spawn
        self._patch(Simulator, "spawn", make_spawn)
        self.count(Simulator, "schedule", "sim.schedules")
        self.count(Simulator, "schedule_at", "sim.schedules")
        self.count(Network, "send", "network.sends")
        self.count(Network, "send_multicast", "network.multicasts")
        self.count(Hub, "egress_wave", "network.waves")
        self.count(HomeEngine, "handle", "coherence.handle_calls")
        self.count(ActiveMessageEndpoint, "handle", "activemsg.handle_calls")
        self.time(Machine, "__init__", "core.build_s", "core")
        self.time(MachinePool, "acquire", "core.build_s", "core")
        self.time(Machine, "restore", "core.restore_s", "core")
        self.time(ResultCache, "load", "runner.load_s")
        self.time(ResultCache, "store", "runner.store_s")
        self._wrap_check(Machine)
        # the runner resolves kinds through its registry at call time
        register_kind("fuzz", self.timed_function(run_fuzz_schedule,
                                                  "check.fuzz_s"))
        self._undo.append(lambda: register_kind("fuzz", run_fuzz_schedule))

    def _wrap_check(self, machine_cls) -> None:
        """Time ``check_coherence_invariants`` and add the machine's
        counter deltas since its last restore (or since it was built):
        every driver checks invariants once, at the end of its run, so the
        deltas cover the simulated work exactly."""
        from repro.obs import MachineMetrics
        tracer = self
        baselines: dict[int, dict] = {}

        def counters(machine) -> dict:
            return MachineMetrics(machine).registry.snapshot()["counters"]

        def make_restore(fn):
            def restore(machine, snap):
                fn(machine, snap)
                baselines[id(machine)] = counters(machine)
            return restore

        def make_check(fn):
            def check(machine):
                t0 = time.perf_counter()
                fn(machine)
                tracer.seconds["core.check_s"] += time.perf_counter() - t0
                now = counters(machine)
                base = baselines.pop(id(machine), {})
                for src, dst in HARVESTED_COUNTERS.items():
                    tracer.counts[dst] += now[src] - base.get(src, 0)
            return check
        self._patch(machine_cls, "restore", make_restore)
        self._patch(machine_cls, "check_coherence_invariants", make_check)

    # -- sampler -------------------------------------------------------
    def _package(self, filename: str) -> str:
        pkg = self._pkg_of.get(filename)
        if pkg is None:
            pkg = ""
            if filename.startswith(self._root):
                pkg = filename[len(self._root):].split("/", 1)[0]
            self._pkg_of[filename] = pkg
        return pkg

    def _on_sample(self, _signum, frame) -> None:
        now = time.perf_counter()
        elapsed, self._last_sample = now - self._last_sample, now
        pkg = ""
        while frame is not None:
            pkg = self._package(frame.f_code.co_filename)
            if pkg:
                break
            frame = frame.f_back
        key = f"{pkg}.self_s" if pkg in SAMPLED_PACKAGES else "host.other_s"
        self.seconds[key] += elapsed

    def start_sampler(self) -> None:
        self._last_sample = time.perf_counter()
        self._prev_handler = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop_sampler(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        if self._prev_handler is not None:
            signal.signal(signal.SIGPROF, self._prev_handler)
            self._prev_handler = None

    # -- lifetime ------------------------------------------------------
    def close(self) -> None:
        self.stop_sampler()
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "LayerTracer":
        self.install()
        self.start_sampler()
        return self

    def __exit__(self, *exc) -> None:
        self.close()
