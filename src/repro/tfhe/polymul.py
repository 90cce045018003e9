"""Exact negacyclic polynomial products for TFHE.

TFHE's blind rotation multiplies small-integer polynomials (gadget
decompositions, magnitude <= Bg/2) by Torus32 polynomials.  TFHE-lib does
this with double-precision FFTs; we instead use an exact NTT over 36-bit
primes — bit-exact, fully vectorized, and it exercises the very same NTT
substrate Alchemist accelerates.

The bound.  A context is built for a bound ``B`` on ``rows * max|u|``, the
rows of one ``mul_sum`` times the largest digit magnitude.  For wide
coefficients ``|v| <= V``, every coefficient of ``sum_j u_j (*) v_j`` is a
sum of ``rows * N`` products ``±u_j[i] * v_j[c - i]``, so its magnitude is
at most ``rows * N * max|u| * V <= B * N * V``.  A residue modulo ``M`` in
centred form is that integer exactly while ``B * N * V <= (M - 1) / 2``.
:meth:`TorusNTT.mul_sum_multi` raises :class:`ValueError` for digit rows
above ``B``, and :meth:`TorusNTT.spectrum` for a coefficient outside
``[-2**31, 2**31)``, so the bound cannot be broken silently.

Two layouts of the wide (key) operand, chosen once from ``B``; either way
its spectrum is one ``(2, rows, N)`` array, and the digit rows are
transformed once per prime:

* **Split key, one prime** — when ``B * N * 2**15 <= (p - 1) / 2``.  Each
  centred Torus32 coefficient is ``v = hi * 2**16 + lo`` with
  ``lo = v mod± 2**16`` in ``[-2**15, 2**15)`` and ``hi = (v - lo) / 2**16``
  in ``[-2**15, 2**15]``.  The spectra of ``hi`` and ``lo`` are both held
  mod one prime ``p``, and the digit rows meet both.  Each half-sum is at
  most ``B * N * 2**15`` in magnitude, so its centred residue is exact,
  and the product is ``(hi_sum << 16) + lo_sum`` mod 2**32: a shift and
  an add.
* **Whole key, two primes** — otherwise.  ``v`` itself is held mod two
  primes ``p1, p2`` and the sums, at most ``B * N * 2**31``, are recovered
  by a centred CRT lift.  The lift can exceed 64 bits, so it is carried
  out mod 2**64 (wrapping uint64, exact for the low 32 bits) with the sign
  decided in float64.  The layout needs ``B * N * 2**31 <= p1 * p2 / 4``:
  attainable values then sit within a quarter of ``p1 * p2`` of either end
  of ``[0, p1 * p2)``, and the float error (below 2**21) cannot carry one
  across the midpoint.

What each parameter set takes (``B = 2l * Bg/2`` for the TRGSW rows,
:attr:`repro.tfhe.params.TFHEParams.digit_row_bound`):

=============  ========  ======  ================  ===================
set            B         N       half-sum bound    layout
=============  ========  ======  ================  ===================
TEST_PARAMS    768       256     2**32.6           split key, one prime
PARAM_SET_I    384       1024    2**33.6           split key, one prime
PARAM_SET_II   2**23     2048    2**49             whole key, two primes
=============  ========  ======  ================  ===================

The binary-key products of :mod:`repro.tfhe.trlwe` (one row, ``B = 1``)
take the split key at every ring degree.  ``get_torus_ntt(n)`` without a
bound assumes the worst shipped case, two rows of digits up to ``2**22``,
and so takes the two primes.

Both operands reach the kernel's ``ntt_forward`` as signed int64, which
takes them mod each prime.  Where the numpy backend's dense rule holds
(:func:`repro.poly.ntt.dense_forward_fits`: ``N * max|u| * p < 2**52``,
and ``N <= 512`` on one prime), the digit rows are one exact float64
matrix product instead of ``log N`` butterfly stages: ``TEST_PARAMS``'s
digits (``|u| <= 2**7`` at ``N = 256``) and the binary key up to
``N = 512``.  ``PARAM_SET_I`` (``N = 1024``), ``PARAM_SET_II`` and the key
halves (up to ``2**15``) take the butterflies.

The tests check every product against an exact O(N^2) convolution.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.kernels import get_backend
from repro.ntmath.modular import invmod, mulmod, submod
from repro.ntmath.primes import generate_ntt_prime
from repro.poly.ntt import signed_magnitude

_MASK32 = np.uint64(0xFFFFFFFF)

#: Bits of the low half of a split key coefficient.
HALF_BITS = 16

#: The default bound on ``rows * max|u|``: two rows of digits up to
#: ``2**22`` (``PARAM_SET_II``, ``Bg = 2**23``, ``l = 1``).
WORST_CASE_BOUND = 2 * (1 << 22)


class TorusNTT:
    """Batched exact negacyclic multiply-accumulate over Torus32."""

    def __init__(self, n: int, bound: int = WORST_CASE_BOUND):
        if bound < 1:
            raise ValueError(f"bound must be positive, got {bound}")
        self.n = n
        #: The largest ``rows * max|u|`` a ``mul_sum`` may take.
        self.bound = bound
        self.p1 = generate_ntt_prime(36, n, seed_offset=0)
        #: Whether the key is held as two 16-bit halves on one prime.
        self.split = bound * n << (HALF_BITS - 1) <= (self.p1 - 1) // 2
        if self.split:
            #: The basis the digit rows are transformed over.
            self.primes = (self.p1,)
            #: The prime of each spectrum channel: ``(p, p)`` for the two
            #: halves, ``(p1, p2)`` for the whole key.
            self.channels = (self.p1, self.p1)
            #: The modulus each row sum is recovered from.
            self.product = self.p1
        else:
            self.p2 = generate_ntt_prime(36, n, seed_offset=1)
            self.primes = self.channels = (self.p1, self.p2)
            self.product = self.p1 * self.p2
            if bound * n << 31 > self.product // 4:
                raise ValueError(
                    f"bound {bound} at n={n} exceeds the exact range of "
                    f"two 36-bit primes"
                )
            self.p1_inv_mod_p2 = np.uint64(invmod(self.p1, self.p2))
            self._half_product_float = float(self.product) / 2.0
            self._product_mod32 = np.uint64(self.product % (1 << 32))

    # ------------------------------------------------------------------ #

    def spectrum(self, values: np.ndarray) -> np.ndarray:
        """Forward NTT of centered int64 polys; shape ``(2, ..., n)``.

        Axis 0 holds the spectrum channels: the halves ``(hi, lo)`` mod
        one prime, or the whole values mod each of two primes."""
        values = np.asarray(values, dtype=np.int64)
        if values.size and (values.min() < -(1 << 31)
                            or values.max() >= 1 << 31):
            raise ValueError("Torus32 values must lie in [-2**31, 2**31)")
        if self.split:
            lo = values.astype(np.int16)                # v mod± 2**16
            limbs = np.stack([(values - lo) >> HALF_BITS, lo])
        else:
            limbs = np.stack([values, values])
        return get_backend().ntt_forward(limbs, self.channels)

    def mul_sum(self, u: np.ndarray, v_spec: np.ndarray) -> np.ndarray:
        """``sum_j u[j] (*) v[j]`` (negacyclic), returned as Torus32.

        ``u``: ``(rows, ..., n)`` small centered int64 polynomials.
        ``v_spec``: ``(2, rows, n)`` spectra from :meth:`spectrum`.
        """
        return self.mul_sum_multi(u, [v_spec])[0]

    def mul_sum_multi(self, u: np.ndarray, v_specs) -> list:
        """``mul_sum`` against several spectra sharing one forward pass.

        The TFHE external product multiplies the *same* decomposed digit
        rows against both the mask and body spectra of the TRGSW rows —
        sharing the forward NTT halves the transform count (this is also
        what the hardware does: the digit rows are transformed once).

        ``u`` is ``(rows, ..., n)``: the digit rows lead, and any batch
        axes after them (one per ciphertext of a batched blind rotation)
        broadcast against the shared spectra.  Each result is the row sum,
        shaped ``(..., n)``.  ``rows * max|u|`` above the context's bound
        raises :class:`ValueError`.
        """
        u = np.asarray(u, dtype=np.int64)
        if u.ndim == 1:
            u = u[None, :]
        rows = u.shape[0]
        for v_spec in v_specs:
            if v_spec.shape != (2, rows, self.n):
                raise ValueError(
                    f"spectrum shape {v_spec.shape} does not match "
                    f"({rows} rows)"
                )
        top = signed_magnitude(u)
        if rows * top > self.bound:
            raise ValueError(
                f"{rows} rows of digits up to {top} exceed the bound "
                f"{self.bound} of this context"
            )
        batch = u.shape[1:-1]
        backend = get_backend()
        # the signed digits themselves, one view per prime of the basis
        digits = np.broadcast_to(u, (len(self.primes),) + u.shape)
        fwd = backend.ntt_forward(digits, self.primes)  # (P, rows, ..., n)
        # the rows are the terms; the spectra broadcast across the batch
        # and the batch across the spectra; each channel meets the rows'
        # transform mod its prime: (2, len(v_specs), ..., n)
        shared = np.stack(v_specs, axis=2).reshape(
            (2, rows, len(v_specs)) + (1,) * len(batch) + (self.n,))
        fwd = np.broadcast_to(fwd[:, :, None],
                              (2, rows, 1) + fwd.shape[2:])
        accs = backend.mac(fwd, shared, self.channels)
        sums = backend.ntt_inverse(accs, self.channels)
        if self.split:
            return list(self._join_halves(sums[0], sums[1]))
        return list(self._crt_to_torus(sums[0], sums[1]))

    # ------------------------------------------------------------------ #

    def _join_halves(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """``(hi << 16) + lo`` mod 2**32 of two centred residues mod p.

        A residue above ``p // 2`` stands for itself minus ``p``; mod 2**64
        that is adding ``2**64 - p``, and the wrap leaves the low 32 bits
        exact."""
        p, half = np.uint64(self.product), np.uint64(self.product // 2)
        hi = hi - p * (hi > half)
        lo = lo - p * (lo > half)
        return ((hi << np.uint64(HALF_BITS)) + lo).astype(np.uint32)

    def _crt_to_torus(self, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
        """Centered CRT lift of (r1 mod p1, r2 mod p2), reduced mod 2**32.

        The true lift ``v = r1 + p1*t`` can reach 72 bits; we compute it
        wrapping mod 2**64 (exact for the low 32 bits we need) and decide
        the sign of the centered representative in floating point, where the
        ~2**19 float error is negligible against the gap between attainable
        values and the midpoint (at least a quarter of ``p1 * p2``).
        """
        t = mulmod(
            submod(np.mod(r2, np.uint64(self.p2)),
                   np.mod(r1, np.uint64(self.p2)), self.p2),
            self.p1_inv_mod_p2,
            self.p2,
        )
        v_low64 = r1 + np.uint64(self.p1) * t          # wraps mod 2**64
        v_float = r1.astype(np.float64) + float(self.p1) * t.astype(np.float64)
        negative = v_float > self._half_product_float
        low32 = v_low64 & _MASK32
        correction = self._product_mod32 * negative
        out = (low32 + (np.uint64(1) << np.uint64(32)) - correction) & _MASK32
        return out.astype(np.uint32)


@lru_cache(maxsize=8)
def get_torus_ntt(n: int, bound: int = WORST_CASE_BOUND) -> TorusNTT:
    """Cached torus NTT context for ring degree ``n`` and a bound on
    ``rows * max|u|`` (see the module docstring for the layout it picks).

    Bounded: deployed TFHE parameter sets use a handful of ring degrees
    (1024 and 2048 in the paper's two sets) and two bounds each (TRGSW
    rows and the binary key); eight entries is already exotic, and each
    holds one or two 36-bit prime table sets."""
    return TorusNTT(n, bound)
