"""Correct measured host times for the shared host's changing speed.

On a few vCPUs of a shared machine the same pure-Python work runs at two
or more speeds that change every few seconds and stay skewed for
minutes (on a 2-vCPU x86-64 VM a fixed loop took 0.32 ms or 0.52 ms, and
one 256-CPU lock round 13 s in one process and 19 s in the next).  Ten
runs spread by more than any useful bound, whatever their length.

:class:`HostSpeed` samples the speed on the measuring thread itself: a
``SIGALRM`` every :data:`INTERVAL_S` of wall time runs a fixed probe
loop in the signal handler and records its CPU time.  The work the
simulator gets done in ``dt`` is proportional to ``dt / probe``, so a
phase of ``T`` seconds with samples ``p_i`` is corrected to
``T * mean(NOMINAL_S / p_i)``: the seconds it would take on a host where
the probe takes :data:`NOMINAL_S`.  With the probe as the yardstick a
change to the simulator still moves the corrected time in full; only the
host's share of the time is taken out.

The probe allocates no container, so it never starts a garbage
collection of the simulator's heap inside a sample.  Its cost is about
1.5-2.5 % of the measured phases, the same on every commit.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

#: wall seconds between samples
INTERVAL_S = 0.02
#: heap operations per probe
PROBE_STEPS = 800
#: the probe's CPU time on an uncontended 2-vCPU x86-64 VM; corrected
#: times are host seconds at that speed
NOMINAL_S = 0.3e-3


class HostSpeed:
    """Samples host speed while active; :meth:`factor` turns one phase's
    samples into the factor its measured seconds are multiplied by."""

    def __init__(self) -> None:
        self._heap = list(range(0, 8 * 256, 8))
        self._table = {i: (i * 7919) % 4099 for i in range(512)}
        self._samples: list[float] = []
        self._prev_handler = None

    def probe(self) -> float:
        """Run the probe once; returns its CPU seconds."""
        heap, table = self._heap, self._table
        pop, push = heapq.heappop, heapq.heappush
        acc = 0
        t0 = time.thread_time()
        for _ in range(PROBE_STEPS):
            t = pop(heap)
            acc ^= table[t & 511]
            push(heap, t + (acc & 15) + 1)
        return time.thread_time() - t0

    def _on_alarm(self, _signum, _frame) -> None:
        self._samples.append(self.probe())

    def factor(self) -> float:
        """``mean(NOMINAL_S / p)`` over the samples since the last call
        (a phase shorter than one interval probes once now)."""
        samples, self._samples = self._samples or [self.probe()], []
        return statistics.fmean(NOMINAL_S / max(p, 1e-9) for p in samples)

    def __enter__(self) -> "HostSpeed":
        if signal.getsignal(signal.SIGALRM) not in (signal.SIG_DFL, None):
            raise RuntimeError("SIGALRM already has a handler")
        self._prev_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._samples = []
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._prev_handler)
