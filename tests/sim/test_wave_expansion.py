"""The numpy wave expander against the reference bit-peel loop.

Only an armed compiled core installs :func:`expand_wave_np` (on machines
of at least ``VECTOR_MIN_CPUS`` CPUs), so without the core no run reaches
it; this pins it to the reference output directly.
"""

import random

import pytest

from repro.sim.backends.wave import (VECTOR_MIN_FANOUT, expand_wave_np,
                                     expand_wave_py)


@pytest.mark.parametrize("cpus_per_node", [1, 2, 4])
def test_numpy_expansion_matches_bit_peel(cpus_per_node):
    rng = random.Random(7)
    masks = [0, 1, 1 << 1023, (1 << 1024) - 1,
             (1 << VECTOR_MIN_FANOUT) - 1, (1 << (VECTOR_MIN_FANOUT - 1)) - 1]
    masks += [rng.getrandbits(n) for n in (16, 64, 512, 1024, 4096)
              for _ in range(5)]
    for mask in masks:
        got = expand_wave_np(mask, cpus_per_node)
        assert got == expand_wave_py(mask, cpus_per_node), hex(mask)
        assert all(type(c) is int and type(n) is int for c, n in got)
