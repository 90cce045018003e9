"""Exact negacyclic polynomial products for TFHE.

TFHE's blind rotation multiplies small-integer polynomials (gadget
decompositions, magnitude <= Bg/2) by Torus32 polynomials.  TFHE-lib does
this with double-precision FFTs; we instead use an exact CRT-NTT over two
36-bit primes — bit-exact, fully vectorized, and it exercises the very same
NTT substrate Alchemist accelerates.

Exactness: true accumulated product coefficients are bounded by
``rows * N * (Bg/2) * 2**31 <= 2**66`` for every supported parameter set
(worst case: set II with Bg = 2**23, N = 2048, 2 rows), far below the CRT
modulus ``p1 * p2 > 2**71``.  The centered CRT lift exceeds 64 bits, so it
is carried out modulo 2**64 (wrapping uint64) with the sign decision made in
floating point — safe because attainable values sit within 2**66 of either
end of ``[0, p1*p2)`` while the midpoint is ~2**70 away.

The tests check every product against an exact O(N^2) convolution.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.kernels import get_backend
from repro.ntmath.modular import invmod, mulmod, submod
from repro.ntmath.primes import generate_ntt_prime

_MASK32 = np.uint64(0xFFFFFFFF)


class TorusNTT:
    """Batched exact negacyclic multiply-accumulate over Torus32."""

    def __init__(self, n: int):
        self.n = n
        self.p1 = generate_ntt_prime(36, n, seed_offset=0)
        self.p2 = generate_ntt_prime(36, n, seed_offset=1)
        #: The dual-prime CRT basis handed to the kernel backend; every
        #: backend transforms it bit-exact equal to per-prime contexts.
        self.primes = (self.p1, self.p2)
        self.p1_inv_mod_p2 = np.uint64(invmod(self.p1, self.p2))
        self.product = self.p1 * self.p2
        self._half_product_float = float(self.product) / 2.0
        self._product_mod32 = np.uint64(self.product % (1 << 32))

    # ------------------------------------------------------------------ #

    def spectrum(self, values: np.ndarray) -> np.ndarray:
        """Forward NTT of centered int64 polys; shape ``(2, ..., n)``."""
        values = np.asarray(values, dtype=np.int64)
        r1 = np.mod(values, self.p1).astype(np.uint64)
        r2 = np.mod(values, self.p2).astype(np.uint64)
        return get_backend().ntt_forward(np.stack([r1, r2]), self.primes)

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
        shaped ``(..., n)``.
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
        batch = u.shape[1:-1]
        backend = get_backend()
        moduli = np.array(self.primes, dtype=np.int64).reshape(
            (2,) + (1,) * u.ndim)
        fwd = backend.ntt_forward(np.mod(u, moduli).astype(np.uint64),
                                  self.primes)          # (2, rows, ..., n)
        # the rows are the terms; the spectra broadcast across the batch
        # and the batch across the spectra: (2, len(v_specs), ..., n)
        shared = np.stack(v_specs, axis=2).reshape(
            (2, rows, len(v_specs)) + (1,) * len(batch) + (self.n,))
        accs = backend.mac(fwd[:, :, None], shared, self.primes)
        inv = backend.ntt_inverse(accs, self.primes)
        return list(self._crt_to_torus(inv[0], inv[1]))

    def multiply(self, u: np.ndarray, v_torus: np.ndarray) -> np.ndarray:
        """Single negacyclic product of small-int ``u`` and Torus32 ``v``."""
        from repro.tfhe.torus import to_centered_int64

        spec = self.spectrum(to_centered_int64(v_torus)[None, :])
        return self.mul_sum(np.asarray(u, dtype=np.int64)[None, :], spec)

    # ------------------------------------------------------------------ #

    def _crt_to_torus(self, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
        """Centered CRT lift of (r1 mod p1, r2 mod p2), reduced mod 2**32.

        The true lift ``v = r1 + p1*t`` can reach 72 bits; we compute it
        wrapping mod 2**64 (exact for the low 32 bits we need) and decide
        the sign of the centered representative in floating point, where the
        ~2**19 float error is negligible against the >2**69 gap between
        attainable values and the midpoint.
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
def get_torus_ntt(n: int) -> TorusNTT:
    """Cached per-ring-degree CRT-NTT basis.

    Bounded: deployed TFHE parameter sets use a handful of ring degrees
    (1024 and 2048 in the paper's two sets); eight distinct degrees is
    already exotic, and each entry holds two 36-bit prime table sets."""
    return TorusNTT(n)
