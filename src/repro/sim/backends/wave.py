"""Batched wave expansion: vectorized sharer-bitmask fan-out.

The home engine's INVALIDATE / WORD_UPDATE waves expand a directory
presence bitmask into ``(cpu, node)`` destination pairs before building
the per-target messages.  At 32 CPUs that expansion is noise; on the
512/1024-CPU broadcast-heavy cells a P-way wave peels a thousand bits
and calls ``node_of_cpu`` a thousand times per barrier episode, all in
the interpreter.

This module provides the expansion in two interchangeable forms:

``expand_wave_py``
    The reference coding — lowest-set-bit peeling plus a floor divide
    per sharer, identical to ``directory.iter_sharers`` order.

``expand_wave_np``
    A numpy batch: the mask's little-endian bytes are unpacked to a bit
    array, ``flatnonzero`` yields the ascending CPU ids, and the node
    ids fall out of one vectorized floor divide.  Small fan-outs (below
    ``VECTOR_MIN_FANOUT``) skip the array overhead and use the peel
    loop.

Both return the **same list in the same ascending-CPU order**, so the
message stream — and therefore the golden parity fingerprints — is
byte-identical regardless of which one runs.

The home engine uses the pure-Python forms; the accel model port
(:mod:`repro.sim.backends.model`) installs the compiled builder and, at
``n_processors >= VECTOR_MIN_CPUS``, the numpy expander — keeping
``reference`` an honest pure-Python baseline.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as _np

__all__ = [
    "VECTOR_MIN_CPUS",
    "VECTOR_MIN_FANOUT",
    "build_wave_py",
    "expand_wave_np",
    "expand_wave_py",
]

#: machine size at which the accel backend switches to the numpy path
VECTOR_MIN_CPUS = 512

#: below this popcount the peel loop beats numpy's fixed overhead
VECTOR_MIN_FANOUT = 16

def expand_wave_py(mask: int, cpus_per_node: int) -> List[Tuple[int, int]]:
    """``(cpu, node)`` pairs for every set bit, ascending CPU order."""
    out = []
    while mask:
        low = mask & -mask
        cpu = low.bit_length() - 1
        out.append((cpu, cpu // cpus_per_node))
        mask ^= low
    return out


def expand_wave_np(mask: int, cpus_per_node: int) -> List[Tuple[int, int]]:
    """Vectorized :func:`expand_wave_py`; identical output and order."""
    if mask.bit_count() < VECTOR_MIN_FANOUT:
        return expand_wave_py(mask, cpus_per_node)
    nbytes = (mask.bit_length() + 7) >> 3
    bits = _np.unpackbits(
        _np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=_np.uint8),
        bitorder="little")
    cpus = _np.flatnonzero(bits)
    nodes = cpus // cpus_per_node
    return list(zip(cpus.tolist(), nodes.tolist()))


def build_wave_py(kind, src_node, addr, value, payload, pairs):
    """The reference wave construction: one :class:`Message` per
    ``(cpu, node)`` pair, sharing the kind/addr/value/payload of the
    whole wave.  Message ids are drawn from the global counter in pair
    order, exactly like the inline list comprehensions this replaces."""
    from repro.network.message import Message

    return [Message(kind=kind, src_node=src_node, dst_node=node, addr=addr,
                    value=value, payload=payload, dst_cpu=cpu)
            for cpu, node in pairs]
