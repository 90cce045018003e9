"""The host-speed probe that every reported timing is scaled by.

The benchmark shares its host with other tenants, and they change the
speed of its CPU by up to a factor of two over minutes.  On a 2-vCPU
Xeon VM, the 15-second medians of one ``tfhe-int`` loop ranged from 557 to
1,090 ms within nine minutes, and no window length averaged that out.
A request slows in step with any other work on the same CPU, so the
benchmark times a fixed piece of work, :func:`probe`, before and after
every request and reports each timing at the reference speed: multiplied
by ``REFERENCE_S`` over the probe's time.  The README's baseline gives
the spread with and without this scaling.

The probe runs numpy and plain Python and no code of the library, so a
change to the library cannot move it.  It mixes the two kinds of work
the workloads do: small-array modular arithmetic and a dict-and-list
graph walk.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: The probe's median time on the reference host (the 2-vCPU Xeon VM of
#: the README's baseline, at a quiet time).  At this probe time the
#: scaled timings equal wall-clock timings.
REFERENCE_S = 2.6e-3

_Q = np.uint64((1 << 31) - 1)
_A = (np.arange(8 * 256, dtype=np.uint64).reshape(8, 256)
      * np.uint64(2654435761)) % _Q
_B = (_A[::-1] + np.uint64(12345)) % _Q
_NODES = 1500


def probe() -> float:
    """Seconds one fixed piece of work takes on this host now.

    The work runs twice and only the second run is timed, so the caches
    the request before it left behind do not count, and the garbage
    collector is off, so the library's live objects are not traversed
    inside it: a change to the library's memory footprint must not move
    the yardstick.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        _work()
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def _work() -> None:
    a = _A.copy()
    for _ in range(60):
        a = (a * _B) % _Q
        a = (a + _B[:, ::-1]) % _Q
    # a Kahn topological sort of a fixed DAG
    succ = {i: [j for j in (2 * i + 1, 2 * i + 2, i + 7) if j < _NODES]
            for i in range(_NODES)}
    indeg = dict.fromkeys(succ, 0)
    for targets in succ.values():
        for j in targets:
            indeg[j] += 1
    ready = [i for i, d in indeg.items() if d == 0]
    while ready:
        for j in succ[ready.pop()]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)


def probe_median() -> float:
    """The median of seven probe times."""
    return statistics.median(probe() for _ in range(7))


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at the
    reference speed."""
    return seconds * REFERENCE_S / probe_s
