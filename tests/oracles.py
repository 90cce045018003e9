"""Exact O(n²) and per-prime reference computations the tests compare with.

Nothing in ``src/`` calls these: they are slow, independent ways to get
the numbers the library's transforms must reproduce.
"""

import numpy as np

from repro.ntmath.modular import mulmod
from repro.tfhe.torus import from_int64, to_centered_int64


def negacyclic_convolve_reference(a, b, q: int) -> np.ndarray:
    """Schoolbook negacyclic convolution of two polynomials mod ``q``."""
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    n = a.shape[-1]
    out = [0] * n
    for i in range(n):
        ai = int(a[i])
        if ai == 0:
            continue
        for j in range(n):
            k = i + j
            term = ai * int(b[j])
            if k < n:
                out[k] = (out[k] + term) % q
            else:
                out[k - n] = (out[k - n] - term) % q
    return np.array(out, dtype=np.uint64)


def ntt_multiply(ctx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Negacyclic product through one prime's :class:`NTTContext`: forward
    transforms, pointwise product, inverse transform."""
    return ctx.inverse(mulmod(ctx.forward(a), ctx.forward(b), ctx.q))


def negacyclic_eval_points(ctx) -> np.ndarray:
    """Evaluation points ``psi^(2k+1)`` of an :class:`NTTContext`'s
    natural-order spectrum, in index order ``k``."""
    return np.array([pow(ctx.psi, 2 * k + 1, ctx.q) for k in range(ctx.n)],
                    dtype=np.uint64)


def negacyclic_mul_reference(u: np.ndarray, v_torus: np.ndarray) -> np.ndarray:
    """Negacyclic product of a small-integer polynomial and a Torus32
    polynomial, exact in int64."""
    u = np.asarray(u, dtype=np.int64)
    v = to_centered_int64(v_torus)
    n = u.shape[0]
    full = np.convolve(u, v)
    out = full[:n].copy()
    out[: n - 1] -= full[n:]
    return from_int64(out)
