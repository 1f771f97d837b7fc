"""Kernel-backend registry: pluggable event-core implementations.

The simulator's inner loop — the two-tier event queue, same-cycle
dispatch ring, delivery-phase ordering, and resume trampoline — is a
stable contract (see :mod:`repro.sim.kernel`) with golden parity
coverage at 32/512 CPUs.  This package lets that contract be served by
interchangeable *backends*:

``reference``
    Today's pure-Python :class:`repro.sim.kernel.Simulator`, unchanged.
    The goldens are captured against it and it remains the headline
    implementation for BENCH trajectory history.

``accel``
    The compiled C event core (``repro.sim.backends._accel_core``, built
    by ``pip install -e .[accel]`` or ``python setup.py build_ext
    --inplace``) plus the compiled model paths it arms (see
    :mod:`repro.sim.backends.model`).  When the extension is not
    importable the registry falls back — with a logged warning — to the
    reference :class:`~repro.sim.kernel.Simulator` itself, so an
    ``accel`` run without the core *is* a ``reference`` run.  Either way
    the results are byte-identical to ``reference``.

Selection order (first match wins):

1. an explicit backend name (``SystemConfig.kernel_backend``,
   ``RunSpec(backend=...)``, CLI ``--backend``);
2. the ``REPRO_KERNEL_BACKEND`` environment variable;
3. the default, ``reference``.

Because every backend must reproduce the reference results
byte-identically, the backend name is **never** part of a result cache
key (see :meth:`repro.runner.spec.RunSpec.canonical`).

Environment knobs
-----------------
``REPRO_KERNEL_BACKEND``
    Default backend name when none is given explicitly.
``REPRO_ACCEL_REQUIRE_COMPILED=1``
    Refuse to fall back: raise if the compiled core cannot be imported.
    Used by the ``kernel-backend`` CI job so a broken build fails loudly
    instead of silently benchmarking the fallback.
"""

from __future__ import annotations

import functools
import logging
import os
from typing import Callable, Dict, Optional, Tuple

from repro.sim.kernel import SimulationError, Simulator

__all__ = [
    "DEFAULT_BACKEND",
    "BackendError",
    "accel_implementation",
    "available_backends",
    "create_simulator",
    "register_backend",
    "resolve_backend_name",
]

logger = logging.getLogger(__name__)

DEFAULT_BACKEND = "reference"

#: environment variable consulted when no explicit backend is given
ENV_BACKEND = "REPRO_KERNEL_BACKEND"
ENV_REQUIRE_COMPILED = "REPRO_ACCEL_REQUIRE_COMPILED"


class BackendError(SimulationError):
    """Raised for unknown backend names or unusable backend builds."""


_REGISTRY: Dict[str, Callable[..., Simulator]] = {}


def register_backend(name: str, factory: Callable[..., Simulator]) -> None:
    """Register ``factory(trace=...) -> Simulator`` under ``name``."""
    _REGISTRY[name] = factory


def available_backends() -> tuple:
    """Registered backend names, sorted (``reference`` always present)."""
    return tuple(sorted(_REGISTRY))


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Resolve a backend name: explicit arg > $REPRO_KERNEL_BACKEND > default.

    Raises :class:`BackendError` for names that are not registered, so a
    typo'd ``--backend`` or environment variable fails loudly instead of
    silently simulating on the wrong core.
    """
    if name is None:
        name = os.environ.get(ENV_BACKEND) or DEFAULT_BACKEND
    if name not in _REGISTRY:
        raise BackendError(
            f"unknown kernel backend {name!r}; "
            f"available: {', '.join(available_backends())}")
    return name


def create_simulator(name: Optional[str] = None, trace: bool = False) -> Simulator:
    """Instantiate the selected backend's simulator.

    ``name=None`` applies the selection order documented in the module
    docstring.  Every backend returns an object satisfying the full
    kernel contract of :class:`repro.sim.kernel.Simulator`.
    """
    return _REGISTRY[resolve_backend_name(name)](trace=trace)


# ----------------------------------------------------------------------
# accel: compiled core with a logged fallback to the reference kernel
# ----------------------------------------------------------------------

@functools.cache
def _load_accel() -> Tuple[str, Callable[..., Simulator]]:
    """``(implementation, simulator class)`` of the ``accel`` backend:
    the compiled core, or the reference kernel when it cannot be
    imported (resolved once, the fallback logged)."""
    try:
        from repro.sim.backends import _accel_core
    except ImportError as err:
        if os.environ.get(ENV_REQUIRE_COMPILED) not in (None, "", "0"):
            raise BackendError(
                "compiled accel core required by "
                f"${ENV_REQUIRE_COMPILED} but unavailable: {err}") from err
        logger.warning(
            "accel backend: compiled core unavailable (%s); running on "
            "the reference kernel (build the core with: pip install -e "
            ".[accel] or python setup.py build_ext --inplace)", err)
        return "reference", Simulator
    return "compiled", _accel_core.AccelSimulator


def _accel_factory(trace: bool = False) -> Simulator:
    return _load_accel()[1](trace=trace)


def accel_implementation() -> str:
    """Which kernel the ``accel`` backend runs on: "compiled" or
    "reference" (the logged no-compiler fallback).

    Forces resolution (importing the compiled core if present).
    """
    return _load_accel()[0]


register_backend("reference", Simulator)
register_backend("accel", _accel_factory)
