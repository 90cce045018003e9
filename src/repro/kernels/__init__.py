"""Pluggable kernel backends for the functional NTT/RNS hot paths.

The functional layer (``repro.poly`` / ``repro.rns`` and everything built on
them) executes all of its heavy math through one small contract,
:class:`~repro.kernels.contract.KernelBackend`: forward/inverse NTT,
pointwise modular arithmetic, the multiply-accumulate ``mac``, Galois
automorphisms, Bconv, Modup/Moddown and rescale over limb-batched
``(C, n)`` residue matrices.

Shipped backends:

``numpy`` (default)
    Every op is a single vectorized 2-D numpy call batched across all RNS
    limbs, with per-basis cached twiddle/CRT precompute.
``reference``
    The original limb-at-a-time loops — the differential oracle every other
    backend must be bit-identical to, and the baseline ``BENCH_kernels.json``
    speedups are measured against.

Selection: ``set_backend("name")`` programmatically, the
``REPRO_KERNEL_BACKEND`` environment variable, or the ``--kernel-backend``
flag of the ``repro`` CLI.  :func:`backend_scope` switches temporarily
(used by the differential tests and the kernel benchmark).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Tuple, Union

from repro.kernels.contract import KernelBackend

#: Environment variable consulted when no backend was set programmatically.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: The default backend when neither ``set_backend`` nor the env var chose.
DEFAULT_BACKEND = "numpy"


def _make_numpy() -> KernelBackend:
    from repro.kernels.numpy_backend import NumpyBackend

    return NumpyBackend()


def _make_reference() -> KernelBackend:
    from repro.kernels.reference import ReferenceBackend

    return ReferenceBackend()


#: Lazy factories so importing :mod:`repro.kernels` stays dependency-light
#: (the rns/poly layers import this module at module scope).
_FACTORIES: Dict[str, Callable[[], KernelBackend]] = {
    "numpy": _make_numpy,
    "reference": _make_reference,
}

_instances: Dict[str, KernelBackend] = {}
_active: Optional[KernelBackend] = None


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, default first."""
    names = sorted(_FACTORIES, key=lambda n: (n != DEFAULT_BACKEND, n))
    return tuple(names)


def _instance(name: str) -> KernelBackend:
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown kernel backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        )
    if name not in _instances:
        _instances[name] = _FACTORIES[name]()
    return _instances[name]


def get_backend() -> KernelBackend:
    """The process-wide active backend (resolving ``REPRO_KERNEL_BACKEND``
    on first use; defaults to ``numpy``)."""
    global _active
    if _active is None:
        _active = _instance(os.environ.get(ENV_VAR, DEFAULT_BACKEND))
    return _active


def set_backend(
    backend: Union[str, KernelBackend, None]
) -> Optional[KernelBackend]:
    """Select the active backend by name or instance.

    ``None`` clears the selection so the next :func:`get_backend` re-reads
    the environment variable.  Returns the newly active backend (or ``None``
    when cleared).
    """
    global _active
    if backend is None:
        _active = None
        return None
    if isinstance(backend, str):
        _active = _instance(backend)
    else:
        _active = backend
    return _active


@contextmanager
def backend_scope(
    backend: Union[str, KernelBackend]
) -> Iterator[KernelBackend]:
    """Temporarily switch the active backend (restores the prior one).

    ``backend`` is a name or an instance; ``None`` raises
    :class:`TypeError` before anything is switched (use
    ``set_backend(None)`` to clear the selection).
    """
    global _active
    if backend is None:
        raise TypeError("backend_scope needs a backend name or instance")
    prior = _active
    active = _instance(backend) if isinstance(backend, str) else backend
    _active = active
    try:
        yield active
    finally:
        _active = prior


__all__ = [
    "KernelBackend",
    "ENV_VAR",
    "DEFAULT_BACKEND",
    "available_backends",
    "get_backend",
    "set_backend",
    "backend_scope",
]
