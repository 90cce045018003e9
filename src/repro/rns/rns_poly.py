"""RNS polynomials: one negacyclic residue channel per prime.

:class:`RNSRing` names a ring ``Z[X]/(X^n+1)`` and the primes of its full
modulus chain (base primes + special primes) and makes polynomials over
any of them; :class:`RNSPoly` is the value type the CKKS and BFV layers
compute with.  A poly tracks which primes its channels live over and
whether it is in coefficient or NTT (evaluation) form; arithmetic enforces
matching forms and bases, which catches most mis-uses at the API boundary
instead of corrupting ciphertexts.

All heavy math dispatches to the active :mod:`repro.kernels` backend as one
limb-batched call per op — the default ``numpy`` backend executes each as a
single 2-D kernel across the whole ``(num_limbs, n)`` residue matrix instead
of walking the modulus chain limb-at-a-time in Python (the old behaviour,
preserved verbatim as the ``reference`` backend for differential testing).
The backends cache their per-basis twiddle tables, so a ring holds no
precompute of its own.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.kernels import get_backend
from repro.kernels.contract import signed_residues
from repro.ntmath.modular import to_mod_array
from repro.rns.basis import crt_centred, crt_reconstruct


def reduce_signed(values: np.ndarray, primes: Sequence[int]) -> np.ndarray:
    """Residues of signed machine integers over each prime, ``(C, ...)``.

    :func:`~repro.kernels.contract.signed_residues` of ``values`` broadcast
    to every channel: one ``np.mod`` against a ``(C, 1, ..., 1)`` prime
    column, the exact residue in ``[0, q)`` for negative values too.
    """
    values = np.asarray(values).astype(np.int64, copy=False)
    return signed_residues(values[None], primes)


def channel_rows(have: Sequence[int], want: Sequence[int]) -> np.ndarray:
    """Row of each prime of ``want`` in basis ``have`` (else ValueError)."""
    index = {q: i for i, q in enumerate(have)}
    try:
        return np.array([index[q] for q in want], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"no channel for prime {exc}") from exc


class RNSRing:
    """Factory/namespace for RNS polynomials over ``Z[X]/(X^n+1)``."""

    def __init__(self, n: int, primes: Sequence[int]):
        self.n = n
        self.primes = tuple(int(q) for q in primes)
        if len(self.primes) != len(set(self.primes)):
            raise ValueError("primes must be distinct")

    # ------------------------------ constructors ----------------------- #

    def zero(self, primes=None, ntt_form: bool = False) -> "RNSPoly":
        primes = self.primes if primes is None else tuple(primes)
        data = np.zeros((len(primes), self.n), dtype=np.uint64)
        return RNSPoly(self, data, primes, ntt_form)

    def from_ints(self, values, primes=None) -> "RNSPoly":
        """Residues of integer coefficients over each prime.

        A numpy signed-integer array is reduced over every channel at once
        by :func:`reduce_signed`.  Anything else (Python lists of
        arbitrary-size ints, object arrays) takes the exact object path;
        a list is never given a numpy dtype, which could silently round
        entries beyond 64 bits.
        """
        primes = self.primes if primes is None else tuple(primes)
        signed = isinstance(values, np.ndarray) and values.dtype.kind == "i"
        if not signed:
            values = np.asarray(values, dtype=object)
        if values.shape != (self.n,):
            raise ValueError(f"expected {self.n} coefficients")
        if signed:
            data = reduce_signed(values, primes)
        else:
            data = np.stack([to_mod_array(values, q) for q in primes])
        return RNSPoly(self, data, primes, ntt_form=False)

    def sample_uniform(self, rng, primes=None) -> "RNSPoly":
        """Uniform element of the RNS ring (independent per channel — this is
        the correct CRT image of a uniform element mod the product).

        One ``rng.integers`` call draws every channel against a ``(C, 1)``
        column of bounds.  numpy walks the channels in order and draws each
        value with the same bounded step as a call per prime does, so the
        stream is consumed exactly as by one call per prime (checked from
        17- to 60-bit primes)."""
        primes = self.primes if primes is None else tuple(primes)
        bounds = np.array(primes, dtype=np.uint64)[:, None]
        data = rng.integers(0, bounds, (len(primes), self.n), dtype=np.uint64)
        return RNSPoly(self, data, primes, ntt_form=False)

    def sample_ternary(self, rng, primes=None, hamming_weight=None) -> "RNSPoly":
        """One ternary polynomial represented consistently in every channel:
        one draw, reduced over every prime by :func:`reduce_signed`.  With
        ``hamming_weight`` set, exactly that many coefficients are nonzero."""
        primes = self.primes if primes is None else tuple(primes)
        if hamming_weight is None:
            vals = rng.integers(-1, 2, size=self.n)
        else:
            vals = np.zeros(self.n, dtype=np.int64)
            support = rng.choice(self.n, size=hamming_weight, replace=False)
            vals[support] = rng.choice([-1, 1], size=hamming_weight)
        return RNSPoly(self, reduce_signed(vals, primes), primes,
                       ntt_form=False)

    def sample_error(self, rng, primes=None, sigma: float = 3.2) -> "RNSPoly":
        """One rounded-Gaussian polynomial of deviation ``sigma``: one draw,
        reduced over every prime by :func:`reduce_signed`."""
        primes = self.primes if primes is None else tuple(primes)
        vals = np.rint(rng.normal(0.0, sigma, size=self.n)).astype(np.int64)
        return RNSPoly(self, reduce_signed(vals, primes), primes,
                       ntt_form=False)


class RNSPoly:
    """An element of ``prod_i Z_{q_i}[X]/(X^n+1)`` with form tracking.

    ``data`` is ``(C, n)``, or ``(C, B, n)`` for a *stack* of ``B``
    polynomials over one basis and form.  Arithmetic is elementwise, so a
    stack takes the same kernel calls as one polynomial, and a ``(C, 1,
    n)`` operand broadcasts over a stack.  A stack never meets a ``(C,
    n)`` polynomial: with ``B == C`` numpy would broadcast it silently.
    """

    __slots__ = ("ctx", "data", "primes", "ntt_form")

    def __init__(
        self,
        ctx: RNSRing,
        data: np.ndarray,
        primes: Tuple[int, ...],
        ntt_form: bool,
    ):
        if data.ndim not in (2, 3) or data.shape[0] != len(primes) or (
                data.shape[-1] != ctx.n):
            raise ValueError(
                f"data shape {data.shape} does not match "
                f"({len(primes)}, {ctx.n}) or ({len(primes)}, B, {ctx.n})"
            )
        self.ctx = ctx
        self.data = data
        self.primes = tuple(primes)
        self.ntt_form = ntt_form

    # ------------------------------ helpers ---------------------------- #

    @property
    def num_channels(self) -> int:
        return len(self.primes)

    def copy(self) -> "RNSPoly":
        return RNSPoly(self.ctx, self.data.copy(), self.primes, self.ntt_form)

    def _check_compatible(self, other: "RNSPoly") -> None:
        if self.primes != other.primes:
            raise ValueError(
                f"basis mismatch: {len(self.primes)} vs {len(other.primes)} channels"
            )
        if self.ntt_form != other.ntt_form:
            raise ValueError("operands are in different forms (NTT vs coeff)")
        if self.data.ndim != other.data.ndim:
            raise ValueError("a stack of polynomials meets one polynomial")

    # ------------------------------ form changes ----------------------- #

    def to_ntt(self) -> "RNSPoly":
        if self.ntt_form:
            return self.copy()
        data = get_backend().ntt_forward(self.data, self.primes)
        return RNSPoly(self.ctx, data, self.primes, ntt_form=True)

    def to_coeff(self) -> "RNSPoly":
        if not self.ntt_form:
            return self.copy()
        data = get_backend().ntt_inverse(self.data, self.primes)
        return RNSPoly(self.ctx, data, self.primes, ntt_form=False)

    # ------------------------------ arithmetic ------------------------- #

    def __add__(self, other: "RNSPoly") -> "RNSPoly":
        self._check_compatible(other)
        data = get_backend().pointwise_add(self.data, other.data, self.primes)
        return RNSPoly(self.ctx, data, self.primes, self.ntt_form)

    def __sub__(self, other: "RNSPoly") -> "RNSPoly":
        self._check_compatible(other)
        data = get_backend().pointwise_sub(self.data, other.data, self.primes)
        return RNSPoly(self.ctx, data, self.primes, self.ntt_form)

    def __neg__(self) -> "RNSPoly":
        data = get_backend().negate(self.data, self.primes)
        return RNSPoly(self.ctx, data, self.primes, self.ntt_form)

    def __mul__(self, other: "RNSPoly") -> "RNSPoly":
        """Polynomial product; both operands must be in NTT form (pointwise)
        or both in coefficient form (transformed internally)."""
        self._check_compatible(other)
        if not self.ntt_form:
            return (self.to_ntt() * other.to_ntt()).to_coeff()
        data = get_backend().pointwise_mul(self.data, other.data, self.primes)
        return RNSPoly(self.ctx, data, self.primes, ntt_form=True)

    def mul_scalar(self, c: int) -> "RNSPoly":
        """Multiply all channels by one integer constant (form-agnostic)."""
        return self.mul_channel_scalars([c] * len(self.primes))

    def mul_channel_scalars(self, scalars: Sequence[int]) -> "RNSPoly":
        """Multiply channel ``i`` by ``scalars[i] mod q_i`` (e.g. P mod q)."""
        if len(scalars) != len(self.primes):
            raise ValueError("need one scalar per channel")
        data = get_backend().mul_channel_scalars(
            self.data, scalars, self.primes
        )
        return RNSPoly(self.ctx, data, self.primes, self.ntt_form)

    def automorphism(self, k: int) -> "RNSPoly":
        """Galois map X → X^k, applied per channel (coefficient form only)."""
        if self.ntt_form:
            raise ValueError("automorphism requires coefficient form")
        data = get_backend().automorphism(self.data, k, self.primes)
        return RNSPoly(self.ctx, data, self.primes, ntt_form=False)

    # ------------------------------ basis changes ---------------------- #

    def restrict(self, primes: Sequence[int]) -> "RNSPoly":
        """A copy of the channels over ``primes`` (any subset and order), in
        the same form: exact in NTT form too, since each channel's transform
        is independent.  A prime this poly lacks raises ValueError."""
        primes = tuple(int(q) for q in primes)
        return RNSPoly(self.ctx, self.data[channel_rows(self.primes, primes)],
                       primes, self.ntt_form)

    def drop_last(self, count: int = 1) -> "RNSPoly":
        """Discard the last ``count`` channels (no division — see rescale)."""
        if count >= len(self.primes):
            raise ValueError("cannot drop all channels")
        return RNSPoly(
            self.ctx,
            self.data[:-count].copy(),
            self.primes[:-count],
            self.ntt_form,
        )

    def rescale(self) -> "RNSPoly":
        """Divide by the last prime and drop it (coefficient form only).

        Rescale works coefficient by coefficient, so a stack is one call
        on its ``(C, B * n)`` view."""
        if self.ntt_form:
            raise ValueError("rescale requires coefficient form")
        data = get_backend().rescale(
            self.data.reshape(len(self.primes), -1), self.primes)
        return RNSPoly(self.ctx, data.reshape((-1,) + self.data.shape[1:]),
                       self.primes[:-1], ntt_form=False)

    def modup(self, special_primes: Sequence[int]) -> "RNSPoly":
        """Extend to basis ``Q*P`` (coefficient form only)."""
        if self.ntt_form:
            raise ValueError("modup requires coefficient form")
        special = tuple(int(p) for p in special_primes)
        data = get_backend().modup(self.data, self.primes, special)
        return RNSPoly(self.ctx, data, self.primes + special, ntt_form=False)

    def moddown(self, special_count: int) -> "RNSPoly":
        """Divide by the product of the trailing ``special_count`` primes and
        return to the base ``Q`` (coefficient form only)."""
        if self.ntt_form:
            raise ValueError("moddown requires coefficient form")
        base = self.primes[: len(self.primes) - special_count]
        special = self.primes[len(self.primes) - special_count:]
        data = get_backend().moddown(self.data, base, special)
        return RNSPoly(self.ctx, data, base, ntt_form=False)

    # ------------------------------ decoding --------------------------- #

    def to_bigint_coeffs(self) -> list:
        """Exact CRT lift of every coefficient to ``[0, Q)``."""
        poly = self.to_coeff()
        return crt_reconstruct(poly.data, poly.primes)

    def to_centered_bigints(self) -> list:
        """CRT lift to the centered range ``(-Q/2, Q/2]``."""
        return crt_centred(self.to_coeff().data, self.primes).tolist()
