"""Process-free handlers: step objects driven straight by the kernel.

A protocol handler that only waits fixed latencies and holds FIFO
resources does not need a :class:`~repro.sim.process.Process` and a
generator.  A :class:`Step` subclass codes it as a chain of bound
methods instead.  The object stands in the kernel's event queue and in
:class:`~repro.sim.primitives.Resource` FIFOs the way a process does:
it exposes ``_rn``, the ``(fn, args)`` event that resumes it.  Each
step sets ``_rn`` to the next step and arms an ordinary primitive with
the object itself as the waiter::

    def _begin(self):
        self._rn = (self._after_latency, ())
        self.latency._arm(self.sim, self)       # a Timeout

``Acquire._arm`` queues the object like a process, and
``Resource.release`` grants whatever it pops via ``._rn``, so a step
waits in line with real processes.

Every step method runs in the very event the coroutine's resume would
have run in, so the event stream — order, counts, timestamps — is the
coroutine's exactly; only the ``Process``, the generator frame and the
``send`` round trip per resume disappear.  A handler qualifies when its
waits are fixed: a latency, a resource grant.  Handlers that wait on
signals or branch into further coroutines stay coroutines (a step can
still hand such a tail to a process, see ``HomeEngine``'s GET_S).

A step is also yieldable.  ``yield step`` from a coroutine runs the
first step inline in that process's event (:meth:`Step._arm`) and the
step resumes the process inline when its work for that process is done
(:meth:`Step._resume_proc`), so a generator wrapper around a step
dispatches the same events as the step alone.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, TYPE_CHECKING

from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Step:
    """Base class of process-free handlers (see the module docstring)."""

    __slots__ = ("sim", "proc", "_rn")

    def __init__(self, sim: "Simulator", first: Callable[[], None]) -> None:
        self.sim = sim
        #: the process a ``yield step`` suspended, resumed by
        #: :meth:`_resume_proc`; None when the step runs on its own
        self.proc: Optional["Process"] = None
        self._rn = (first, ())

    def start(self) -> None:
        """Queue the first step on this cycle's dispatch ring — where
        ``sim.spawn`` would have queued the process's first resume."""
        self.sim._ring.append(self._rn)

    def _arm(self, sim: "Simulator", proc: "Process") -> None:
        """Yieldable form: run the first step inline, inside ``proc``'s
        current event."""
        self.proc = proc
        self._rn[0]()

    def _resume_proc(self) -> None:
        """Resume, inline, the process that yielded this step (callers
        check ``self.proc`` first)."""
        proc, self.proc = self.proc, None
        self.sim._resume(proc, None)

    def _continue_in(self, gen: Generator) -> None:
        """Hand the rest of the handler to the coroutine ``gen``, resumed
        inline in this event: as a subcall of the process that yielded
        this step (what the kernel does for a bare ``yield gen``), or
        else in a new process."""
        sim = self.sim
        proc = self.proc
        if proc is None:
            proc = Process(gen, "", sim)
            sim.active_processes.add(proc)
        else:
            self.proc = None
            proc.stack.append(proc.gen)
            proc.gen = gen
        sim._resume(proc, None)
