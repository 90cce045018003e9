"""Vectorized modular arithmetic for moduli of at most 42 bits.

Every vectorized routine here requires ``q < 2**42``
(:data:`MAX_FAST_MODULUS_BITS`, enforced by :func:`_check_modulus` and
:func:`channel_moduli`).  The RNS chains stay inside that bound: CKKS base
primes have 35–41 bits and its special primes up to 42, BFV uses 36-bit
primes with a 42-bit auxiliary basis, and the TFHE torus NTT uses two
36-bit primes.

The multiplication trick (float-assisted Barrett): the quotient
``floor(a * b / q)`` is estimated in double precision and the remainder is
recovered with wrapping ``uint64`` arithmetic, which is exact because the
true remainder is small and its low 64 bits identify it.

* :func:`mulmod` (scalar modulus, used by the per-prime reference path)
  truncates an unbiased estimate: below ``2**42`` the quotient's float
  error is under ``2**-9``, so it is off by at most one either way and two
  conditional fix-ups make the result exact.
* The channel-wise functions (the batched kernels' primitives) use a
  *biased* quotient factor: :func:`channel_moduli` returns
  ``(1/q) * (1 - 2**-46)``.  Every estimate is then a product of exact
  integers and that factor with at most four float64 roundings (relative
  error below ``4.01 * 2**-53``), so it sits strictly below the exact
  quotient ``x`` (the bias is ``128 * 2**-53``) and above ``x - 1`` while
  ``x < 2**45``.  The truncated quotient therefore never overestimates and
  underestimates by at most one: the remainder lands in ``[0, 2q)`` with
  no sign fix-up.  :func:`mulmod_lazy` stops there (Harvey's lazy
  product, https://arxiv.org/abs/1205.2926); :func:`mulmod_channels` adds
  the one conditional subtraction into ``[0, q)``.

Lazy ranges: a lazy product accepts any left operand below ``2**45`` (then
``x < 2**45``, as ``b < q``) and returns ``[0, 2q)``; the batched NTT keeps
values in ``[0, 4q)`` between stages, the mixed-radix rounding of
:mod:`repro.rns.basis` multiplies unreduced values below ``2**44``, and the
kernels' multiply-accumulate (``KernelBackend.mac``) sums lazy products
below ``2**64`` before one ``%`` reduces them.  Every
conditional subtraction is ``np.minimum(x, x - c)`` on uint64: when
``x < c`` the difference wraps to a huge value and the minimum keeps
``x``.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

#: Largest modulus bit-width supported by the vectorized fast path.
MAX_FAST_MODULUS_BITS = 42

_SIGN_BIT = np.uint64(1) << np.uint64(63)

ArrayLike = Union[int, np.ndarray]


def _check_modulus(q: int) -> None:
    if q <= 1:
        raise ValueError(f"modulus must be > 1, got {q}")
    if q.bit_length() > MAX_FAST_MODULUS_BITS:
        raise ValueError(
            f"modulus {q} has {q.bit_length()} bits; the fast path supports "
            f"at most {MAX_FAST_MODULUS_BITS} bits"
        )


def to_mod_array(values, q: int) -> np.ndarray:
    """Convert ``values`` (ints, possibly negative or arbitrarily large) to a
    uint64 array reduced into ``[0, q)``.
    """
    _check_modulus(q)
    try:
        arr = np.asarray(values)
        if arr.dtype.kind == "i":
            return np.mod(arr.astype(np.int64), q).astype(np.uint64)
        if arr.dtype.kind == "u":
            return np.mod(arr.astype(np.uint64), np.uint64(q))
    except OverflowError:
        pass
    # Slow exact path: elements that do not fit a 64-bit machine word.
    obj = np.asarray(values, dtype=object)
    reduced = [int(v) % q for v in obj.ravel()]
    return np.array(reduced, dtype=np.uint64).reshape(obj.shape)


def addmod(a: ArrayLike, b: ArrayLike, q: int) -> np.ndarray:
    """Elementwise ``(a + b) mod q`` for inputs already reduced into [0, q)."""
    _check_modulus(q)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    s = a + b
    qq = np.uint64(q)
    return s - qq * (s >= qq)


def submod(a: ArrayLike, b: ArrayLike, q: int) -> np.ndarray:
    """Elementwise ``(a - b) mod q`` for inputs already reduced into [0, q)."""
    _check_modulus(q)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    qq = np.uint64(q)
    s = a + (qq - b)
    return s - qq * (s >= qq)


def negmod(a: ArrayLike, q: int) -> np.ndarray:
    """Elementwise ``(-a) mod q`` for input already reduced into [0, q)."""
    _check_modulus(q)
    a = np.asarray(a, dtype=np.uint64)
    qq = np.uint64(q)
    return np.where(a == 0, np.uint64(0), qq - a)


def mulmod(a: ArrayLike, b: ArrayLike, q: int) -> np.ndarray:
    """Elementwise ``(a * b) mod q``, exact for ``q < 2**42``.

    Inputs must already be reduced into ``[0, q)``.
    """
    _check_modulus(q)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    qq = np.uint64(q)
    # Quotient estimate in float64: |error| < 2**-9 for q < 2**42, so the
    # floored estimate is off by at most 1 in either direction.
    quot = (a.astype(np.float64) * b.astype(np.float64) * (1.0 / q)).astype(
        np.uint64
    )
    # Remainder via wrapping uint64 arithmetic: the true value lies in
    # (-q, 2q), so the low 64 bits identify it exactly.  numpy warns on the
    # intentional wraparound for 0-d inputs; the result is still exact.
    with np.errstate(over="ignore"):
        r = a * b - quot * qq
        r += qq * (r >= _SIGN_BIT)   # quotient overestimated: r wrapped negative
        r -= qq * (r >= qq)          # quotient underestimated
    return r


# --------------------------------------------------------------------- #
# Channel-wise variants: the modulus is an *array* broadcast against the
# operands, so one numpy call reduces every RNS limb at once.  These are the
# primitives the batched kernel backend (:mod:`repro.kernels`) is built on.
# Every result is the exact residue in ``[0, q)``, so results are
# bit-identical to the scalar-modulus functions above per channel.
# --------------------------------------------------------------------- #

#: Relative low bias of the float quotient factor (see the module notes).
QUOTIENT_BIAS = 1.0 - 2.0 ** -46


def channel_moduli(primes, extra_dims: int = 1):
    """``(q, q_quot)`` arrays shaped ``(C, 1, ..., 1)`` for channel broadcast.

    ``q_quot`` is ``1/q`` biased low by :data:`QUOTIENT_BIAS`, the factor
    :func:`mulmod_lazy` and :func:`mulmod_channels` take.  ``extra_dims`` is
    the number of trailing axes of the operands after the channel axis (1
    for ``(C, n)`` data, 2 for ``(C, batch, n)``, ...).
    """
    for p in primes:
        _check_modulus(int(p))
    shape = (len(primes),) + (1,) * extra_dims
    q = np.asarray([int(p) for p in primes], dtype=np.uint64).reshape(shape)
    return q, (1.0 / q.astype(np.float64)) * QUOTIENT_BIAS


def addmod_channels(a: np.ndarray, b: np.ndarray, qq: np.ndarray) -> np.ndarray:
    """Channel-wise ``(a + b) mod q`` with array modulus ``qq``."""
    s = a + b
    return np.minimum(s, s - qq, out=s)


def submod_channels(a: np.ndarray, b: np.ndarray, qq: np.ndarray) -> np.ndarray:
    """Channel-wise ``(a - b) mod q`` with array modulus ``qq``.

    ``a - b`` wraps when ``a < b``; adding ``q`` wraps it back into
    ``(0, q)``, below the wrapped value, so the minimum picks it."""
    d = a - b
    return np.minimum(d, d + qq, out=d)


def negmod_channels(a: np.ndarray, qq: np.ndarray) -> np.ndarray:
    """Channel-wise ``(-a) mod q`` with array modulus ``qq``."""
    return np.where(a == 0, np.uint64(0), qq - a)


def mulmod_lazy(
    a: np.ndarray,
    b: np.ndarray,
    b_quot: np.ndarray,
    qq: np.ndarray,
    out: Optional[np.ndarray] = None,
    quot: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Channel-wise ``(a * b) mod q`` lazily reduced into ``[0, 2q)``.

    ``a`` is uint64 below ``2**45``; ``b`` is uint64 in ``[0, q)`` and
    ``b_quot`` is ``b * q_quot`` in float64 (``q_quot`` from
    :func:`channel_moduli`), so the quotient estimate ``a * b_quot`` never
    overestimates.  ``out`` and ``quot`` are optional uint64 buffers of the
    broadcast shape; ``out`` receives the result.
    """
    if quot is None:
        quot = np.empty(np.broadcast_shapes(a.shape, np.shape(b_quot)),
                        dtype=np.uint64)
    # a < 2**63 as int64 converts exactly; the estimate is >= 0, so the
    # float -> int64 cast truncates it to the floor.
    np.multiply(a.view(np.int64), b_quot, out=quot.view(np.int64),
                dtype=np.float64, casting="unsafe")
    np.multiply(quot, qq, out=quot)
    out = np.multiply(a, b, out=out)
    return np.subtract(out, quot, out=out)


def mulmod_channels(
    a: np.ndarray, b: np.ndarray, qq: np.ndarray, q_quot: np.ndarray
) -> np.ndarray:
    """Channel-wise ``(a * b) mod q`` (float-assisted Barrett, array modulus).

    ``qq``/``q_quot`` come from :func:`channel_moduli`; inputs must already
    be reduced into ``[0, q)`` per channel.  One lazy product, then one
    conditional subtraction.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    r = mulmod_lazy(a, b, np.multiply(b, q_quot, dtype=np.float64), qq)
    return np.minimum(r, r - qq, out=r)


def mulmod_scalar(a: int, b: int, q: int) -> int:
    """Scalar ``(a * b) mod q`` using Python big ints (any modulus size)."""
    return (a * b) % q


def powmod(base: int, exp: int, q: int) -> int:
    """Scalar ``base ** exp mod q`` (supports negative exponents if invertible)."""
    if exp < 0:
        return pow(invmod(base, q), -exp, q)
    return pow(base, exp, q)


def invmod(a: int, q: int) -> int:
    """Modular inverse of ``a`` modulo ``q``; raises if not invertible."""
    a = a % q
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {q}")
    return pow(a, -1, q)


def centered(a: ArrayLike, q: int) -> np.ndarray:
    """Map values in [0, q) to the centered representative in (-q/2, q/2]."""
    _check_modulus(q)
    a = np.asarray(a, dtype=np.uint64)
    half = np.uint64(q // 2)
    out = a.astype(np.int64)
    wrap = a > half
    out[wrap] -= np.int64(q)
    return out
