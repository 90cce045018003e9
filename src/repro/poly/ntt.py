"""Negacyclic number-theoretic transform over ``Z_q[X]/(X^N + 1)``.

Implements the merged-twiddle NTT (Longa–Naehrig style): the forward
transform uses Cooley–Tukey butterflies with the powers of the 2N-th root
``psi`` folded into the twiddle table (so no separate pre-weighting pass is
needed), and produces bit-reversed output; the inverse uses Gentleman–Sande
butterflies, consumes bit-reversed input, and returns natural order.

Two implementations compute the same exact residues:

* :class:`NTTContext` — one prime, in-place stages over ``(m, 2t)`` block
  views with fully reduced butterflies.  The per-limb ``reference`` kernel
  backend runs it, and it is the oracle the batched transform is tested
  against.
* :class:`MultiNTTContext` — every channel of an RNS basis at once, as
  constant-geometry (Pease) stages with Harvey's lazy butterflies: each
  stage reads two contiguous half-rows and writes the even and odd lanes of
  a second buffer (the inverse the reverse), values stay in ``[0, 4q)``
  between stages, and the transform reduces into ``[0, q)`` once at the
  end.  The ``numpy`` kernel backend runs it.

Small signed rows at small ring degrees skip the butterflies:
:class:`DenseForward` transforms them as one exact float64 matrix product
per channel (:func:`dense_forward_fits` says when), which the ``numpy``
backend takes for TFHE's gadget digits.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.ntmath.modular import (
    addmod,
    channel_moduli,
    invmod,
    mulmod,
    mulmod_lazy,
    submod,
)
from repro.ntmath.primes import root_of_unity


def bit_reverse_indices(n: int) -> np.ndarray:
    """Bit-reversal permutation indices for a power-of-two size ``n``."""
    if n < 1 or n & (n - 1):
        raise ValueError("n must be a power of two")
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.uint64)
    rev = np.zeros(n, dtype=np.uint64)
    for _ in range(bits):
        rev = (rev << np.uint64(1)) | (idx & np.uint64(1))
        idx >>= np.uint64(1)
    return rev.astype(np.int64)


def _power_table(base: int, count: int, q: int) -> np.ndarray:
    """Table ``[base**0, base**1, ..., base**(count-1)] mod q`` (vectorized
    doubling construction)."""
    pows = np.ones(count, dtype=np.uint64)
    size = 1
    while size < count:
        step = pow(base, size, q)
        upper = min(2 * size, count)
        pows[size:upper] = mulmod(pows[: upper - size], np.uint64(step), q)
        size *= 2
    return pows


class NTTContext:
    """Precomputed tables and transforms for one ``(n, q)`` pair.

    Parameters
    ----------
    n:
        Ring degree (power of two).
    q:
        NTT-friendly prime with ``q ≡ 1 (mod 2n)``.
    """

    def __init__(self, n: int, q: int):
        if n < 2 or n & (n - 1):
            raise ValueError("ring degree must be a power of two >= 2")
        if (q - 1) % (2 * n) != 0:
            raise ValueError(f"q={q} is not ≡ 1 mod 2n={2 * n}")
        self.n = n
        self.q = q
        self.psi = root_of_unity(2 * n, q)
        self.psi_inv = invmod(self.psi, q)
        self.n_inv = np.uint64(invmod(n, q))
        rev = bit_reverse_indices(n)
        self.psi_br = _power_table(self.psi, n, q)[rev]
        self.ipsi_br = _power_table(self.psi_inv, n, q)[rev]
        self._rev = rev

    # ------------------------------------------------------------------ #

    def forward(self, a: np.ndarray) -> np.ndarray:
        """Forward negacyclic NTT; output is in bit-reversed order.

        ``a`` has shape ``(..., n)`` with values in ``[0, q)``.
        """
        q = self.q
        n = self.n
        a = np.ascontiguousarray(a, dtype=np.uint64)
        shape = a.shape
        if shape[-1] != n:
            raise ValueError(f"last axis must have length {n}")
        a = a.reshape(-1, n).copy()
        batch = a.shape[0]
        t = n
        m = 1
        while m < n:
            t //= 2
            twiddles = self.psi_br[m : 2 * m][None, :, None]
            view = a.reshape(batch, m, 2 * t)
            u = view[:, :, :t]
            v = mulmod(view[:, :, t:], twiddles, q)
            hi = submod(u, v, q)
            view[:, :, :t] = addmod(u, v, q)
            view[:, :, t:] = hi
            m *= 2
        return a.reshape(shape)

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """Inverse negacyclic NTT; input bit-reversed, output natural order."""
        q = self.q
        n = self.n
        a = np.ascontiguousarray(a, dtype=np.uint64)
        shape = a.shape
        if shape[-1] != n:
            raise ValueError(f"last axis must have length {n}")
        a = a.reshape(-1, n).copy()
        batch = a.shape[0]
        t = 1
        m = n
        while m > 1:
            h = m // 2
            twiddles = self.ipsi_br[h : 2 * h][None, :, None]
            view = a.reshape(batch, h, 2 * t)
            u = view[:, :, :t].copy()
            v = view[:, :, t:]
            diff = mulmod(submod(u, v, q), twiddles, q)
            view[:, :, :t] = addmod(u, v, q)
            view[:, :, t:] = diff
            t *= 2
            m = h
        a = mulmod(a, self.n_inv, q)
        return a.reshape(shape)

    def to_natural_order(self, a: np.ndarray) -> np.ndarray:
        """Permute a bit-reversed spectrum to natural (frequency) order."""
        return np.take(a, self._rev, axis=-1)


@lru_cache(maxsize=1024)
def get_context(n: int, q: int) -> NTTContext:
    """Cached :class:`NTTContext` lookup (contexts are expensive to build).

    Bounded: a long-lived serving process walks one ``(n, q)`` key per
    prime per parameter set, and an unbounded cache of twiddle tables is
    a slow memory leak.  1024 covers every chain the repo ships with an
    order of magnitude to spare."""
    return NTTContext(n, q)


def _reduce(x: np.ndarray, c: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``x - c`` where ``x >= c``, else ``x``: one conditional subtraction."""
    np.subtract(x, c, out=out)
    return np.minimum(x, out, out=out)


class MultiNTTContext:
    """Batched NTT across several moduli of the same ring degree.

    Transforms ``(C, ..., n)`` residues, one RNS channel per leading index,
    with the per-prime twiddle tables of :class:`NTTContext` stacked along
    that axis; every numpy call covers all channels and batch rows, so a
    transform costs ``O(log n)`` Python calls.  Outputs equal the per-prime
    transforms exactly.

    Stage layout (constant geometry).  The forward's stage ``s`` pairs the
    two contiguous halves of each row, ``k`` and ``k + n/2``, and writes the
    butterfly's outputs to lanes ``2k`` and ``2k + 1`` of the other buffer.
    That moves every index's bits one place left, so the butterfly bit of
    the next stage is again the top bit; after ``log n`` stages the order is
    the in-place transform's bit-reversed order.  Pair ``k`` of stage ``s``
    takes twiddle ``psi_br[m + k mod m]`` with ``m = 2**s``: a view of
    ``psi_br[:, m:2m]`` repeated with period ``m`` across the lanes.  The
    inverse reads lanes ``2k``/``2k + 1`` and writes halves, with twiddle
    ``ipsi_br[h + k mod h]`` for ``h = n / 2**(s+1)``.  Two buffers
    alternate, and the caller's array is never written.

    Lazy butterflies (Harvey).  Forward: ``x`` in ``[0, 4q)`` is reduced to
    ``[0, 2q)``, ``t = y * w`` is a lazy product in ``[0, 2q)``, and the
    outputs ``x + t`` and ``x - t + 2q`` lie in ``[0, 4q)``.  Inverse: inputs
    in ``[0, 2q)``, ``x + y`` is reduced to ``[0, 2q)`` and
    ``(x - y + 2q) * w`` is a lazy product.  The forward ends with two
    conditional subtractions, the inverse with one lazy product by ``n^-1``
    and one subtraction, so every output is the exact residue in
    ``[0, q)``.

    Tables: the stacked ``psi_br`` and ``ipsi_br`` (``2n`` words per
    channel) plus per-channel scalars; stage twiddles are views, and their
    float quotient factors are computed per stage, so no table grows with
    ``log n``.
    """

    def __init__(self, n: int, primes):
        self.n = n
        self.primes = tuple(int(q) for q in primes)
        ctxs = [get_context(n, q) for q in self.primes]
        #: (C, 1, 1): broadcasts against the (C, batch, n/2) stage operands.
        self._q, self._q_quot = channel_moduli(self.primes, extra_dims=2)
        self._q2 = self._q + self._q
        self.psi_br = np.stack([c.psi_br for c in ctxs])      # (C, n)
        self.ipsi_br = np.stack([c.ipsi_br for c in ctxs])    # (C, n)
        self.n_inv = np.stack([c.n_inv for c in ctxs]).reshape(self._q.shape)

    # ------------------------------------------------------------------ #

    def _rows(self, a: np.ndarray) -> np.ndarray:
        """``a`` as a ``(C, rows, n)`` uint64 array (a view when possible)."""
        a = np.ascontiguousarray(a, dtype=np.uint64)
        if a.ndim < 2 or a.shape[0] != len(self.primes) or a.shape[-1] != self.n:
            raise ValueError(
                f"expected shape ({len(self.primes)}, ..., {self.n}); "
                f"got {a.shape}"
            )
        return a.reshape(a.shape[0], -1, self.n)

    def _twiddle_mul(self, x, table, period, out, quot):
        """Lazy ``x * table[:, period + k % period]`` along ``x``'s last axis."""
        c, rows, half = x.shape
        w = table[:, period:2 * period].reshape(c, 1, 1, period)
        shape = (c, rows, half // period, period)
        mulmod_lazy(x.reshape(shape), w, w * self._q_quot[..., None],
                    self._q[..., None], out=out.reshape(shape),
                    quot=quot.reshape(shape))

    def forward(self, a: np.ndarray) -> np.ndarray:
        """Forward negacyclic NTT of ``a`` shaped ``(C, ..., n)``."""
        shape = np.shape(a)
        x = self._rows(a)
        c, rows, n = x.shape
        h = n // 2
        q, q2 = self._q, self._q2
        bufs = [np.empty_like(x), np.empty_like(x)]
        lo_r, lo_2q, t, quot = (np.empty((c, rows, h), np.uint64)
                                for _ in range(4))
        m = 1
        while m < n:
            y = bufs[0]
            lo, hi = x[..., :h], x[..., h:]
            if m > 1:                     # stage 0 reads the caller's [0, q)
                lo = _reduce(lo, q2, out=lo_r)
            np.add(lo, q2, out=lo_2q)
            self._twiddle_mul(hi, self.psi_br, m, out=t, quot=quot)
            lanes = y.reshape(c, rows, h, 2)
            np.add(lo, t, out=lanes[..., 0])
            np.subtract(lo_2q, t, out=lanes[..., 1])
            bufs.reverse()
            x = y
            m *= 2
        _reduce(x, q2, out=bufs[0])
        return _reduce(bufs[0], q, out=x).reshape(shape)

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """Inverse negacyclic NTT of ``a`` shaped ``(C, ..., n)``."""
        shape = np.shape(a)
        x = self._rows(a)
        c, rows, n = x.shape
        h = n // 2
        q, q2 = self._q, self._q2
        bufs = [np.empty_like(x), np.empty_like(x)]
        diff, quot = (np.empty((c, rows, h), np.uint64) for _ in range(2))
        g = h
        while g:
            y = bufs[0]
            lanes = x.reshape(c, rows, h, 2)
            even, odd = lanes[..., 0], lanes[..., 1]
            top = y[..., :h]
            np.add(even, q2, out=diff)
            np.subtract(diff, odd, out=diff)
            np.add(even, odd, out=top)
            np.subtract(top, q2, out=quot)
            np.minimum(top, quot, out=top)
            self._twiddle_mul(diff, self.ipsi_br, g, out=y[..., h:], quot=quot)
            bufs.reverse()
            x = y
            g //= 2
        out = bufs[0]
        mulmod_lazy(x, self.n_inv, self.n_inv * self._q_quot, q, out=out)
        return _reduce(out, q, out=x).reshape(shape)


@lru_cache(maxsize=256)
def get_multi_context(n: int, primes) -> MultiNTTContext:
    """Cached :class:`MultiNTTContext` for a ``(n, primes-tuple)`` pair.

    Bounded (see :func:`get_context`): keys are whole prime chains, so
    the working set is one entry per (scheme, level) in flight."""
    return MultiNTTContext(n, tuple(primes))


# ---------------------------------------------------------------------- #
# The dense forward transform of small signed rows


#: Most bytes the float64 matrices of one dense transform may take,
#: ``C * n * n * 8``: one prime up to ``n = 512``, two up to ``n = 256``.
#: Dense time over butterfly time (``np.mod`` plus
#: :meth:`MultiNTTContext.forward`), one 36-bit prime, digits ±128,
#: ``OPENBLAS_NUM_THREADS=1``, on a 2-vCPU Xeon VM; each ratio is of two
#: medians of 50 to 200 calls, and a range spans 6 to 96 rows and two runs:
#:
#: =========  ===========
#: n          dense / fly
#: =========  ===========
#: 64 to 256  0.12 - 0.26
#: 512        0.38 - 0.69
#: 1024       0.68 - 2.15
#: =========  ===========
DENSE_MAX_BYTES = 2 << 20

#: Every partial sum of the dense product must stay below this, so that
#: float64 holds it exactly in any summation order.
DENSE_EXACT_BELOW = 1 << 52


def signed_magnitude(x: np.ndarray) -> int:
    """``max|x|`` of a signed integer array as a Python int (``np.abs``
    wraps at ``-2**63``); 0 for an empty array."""
    return max(-int(x.min()), int(x.max())) if x.size else 0


def dense_forward_fits(n: int, top: int, primes) -> bool:
    """Whether signed rows with ``max|x| <= top`` take the dense transform.

    Exactness: a coefficient of ``x @ F`` sums ``n`` products of a value
    at most ``top`` in magnitude and a matrix entry below ``q``, so it is
    an integer below ``n * top * max(q)`` in magnitude, and so is every
    partial sum.  Size: the matrices fit :data:`DENSE_MAX_BYTES`."""
    return (len(primes) * n * n * 8 <= DENSE_MAX_BYTES
            and n * top * max(primes) < DENSE_EXACT_BELOW)


class DenseForward:
    """The forward NTT of one ``(n, primes)`` pair as ``(C, n, n)`` float64
    matrices.

    Row ``j`` of ``F[c]`` is the transform of the unit vector ``e_j`` mod
    ``q_c``, computed by :meth:`MultiNTTContext.forward`, so ``x @ F[c]``
    is ``NTT(x)`` up to a multiple of ``q_c`` for any integer row ``x``.
    While :func:`dense_forward_fits` holds, that product is an exact
    integer ``r`` below ``2**52``.  ``k = floor(r * (1/q))`` is then off by
    at most one, ``r - k * q`` is exact and lies in ``[-q, 2q)``, and one
    addition of ``q`` and two conditional subtractions give the residue.
    """

    def __init__(self, n: int, primes):
        self.n = n
        c = len(primes)
        eye = np.broadcast_to(np.eye(n, dtype=np.uint64), (c, n, n))
        self.matrices = get_multi_context(n, tuple(primes)).forward(
            eye).astype(np.float64)
        self._q = np.array(primes, dtype=np.uint64).reshape(c, 1, 1)
        self._q_float = self._q.astype(np.float64)
        self._q_recip = 1.0 / self._q_float

    def forward(self, x: np.ndarray) -> np.ndarray:
        """``NTT(x mod q_c)`` of signed integers ``x`` shaped ``(C, ..., n)``;
        the caller checks :func:`dense_forward_fits`."""
        shape = x.shape
        r = np.matmul(x.astype(np.float64).reshape(shape[0], -1, self.n),
                      self.matrices)
        k = np.multiply(r, self._q_recip)
        np.floor(k, out=k)
        np.multiply(k, self._q_float, out=k)
        np.subtract(r, k, out=r)                     # exact, in [-q, 2q)
        y = r.astype(np.int64).view(np.uint64)
        y += self._q                                 # [0, 3q)
        t = np.empty_like(y)
        _reduce(y, self._q, out=t)
        return _reduce(t, self._q, out=y).reshape(shape)


@lru_cache(maxsize=8)
def get_dense_forward(n: int, primes) -> DenseForward:
    """Cached :class:`DenseForward` for a ``(n, primes-tuple)`` pair.

    Bounded apart from :func:`get_multi_context`, whose contexts keep their
    tables at ``2n`` words per channel: eight entries of at most
    :data:`DENSE_MAX_BYTES` each hold 16 MiB at most."""
    return DenseForward(n, tuple(primes))
