"""Structured JSONL event log.

An :class:`EventLog` appends one JSON object per line to a file or
file-like stream — the machine-readable companion to the human-oriented
progress output.  Records carry the simulated timestamp when a simulator
is bound, so logs from a run line up with trace spans and sampler
series::

    log = EventLog("run.jsonl", sim=machine.sim)
    log.emit("barrier.episode", index=3, cycles=5120)
    log.attach_network(machine)        # one record per injected message
    ...
    log.close()

Network capture is a ``subscribe_send`` hook, so it composes with the
tracer, the metrics layer and any other send subscriber.  Every record has the shape
``{"t": <cycles or null>, "event": <name>, ...fields}``; consumers can
stream-filter with one ``json.loads`` per line.
"""

from __future__ import annotations

import json
from typing import Any, IO, Optional, TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import Machine
    from repro.sim.kernel import Simulator


class EventLog:
    """Append-only JSONL writer with optional simulated timestamps."""

    def __init__(self, sink: Union[str, IO[str]],
                 sim: Optional["Simulator"] = None) -> None:
        if isinstance(sink, str):
            self._fh: IO[str] = open(sink, "w")
            self._owns_fh = True
        else:
            self._fh = sink
            self._owns_fh = False
        self.sim = sim
        self.records_written = 0

    # ------------------------------------------------------------------
    def emit(self, event: str, **fields: Any) -> None:
        """Write one record: ``{"t": ..., "event": event, **fields}``."""
        record = {"t": None if self.sim is None else self.sim.now,
                  "event": event}
        record.update(fields)
        self._fh.write(json.dumps(record, default=str) + "\n")
        self.records_written += 1

    def attach_network(self, machine: "Machine") -> None:
        """Log every injected network message (``net.send`` events)."""
        if self.sim is None:
            self.sim = machine.sim

        def on_send(msg, hops: int) -> None:
            self.emit("net.send", kind=msg.kind.value, src=msg.src_node,
                      dst=msg.dst_node, hops=hops, bytes=msg.size_bytes,
                      addr=None if msg.addr is None else hex(msg.addr))

        machine.net.subscribe_send(on_send)

    # ------------------------------------------------------------------
    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self._fh.flush()
        if self._owns_fh:
            self._fh.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
