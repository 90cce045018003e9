"""BFV batching encoder: integer SIMD slots via the NTT modulo ``t``.

With a plaintext prime ``t ≡ 1 (mod 2n)``, the plaintext ring
``Z_t[X]/(X^n + 1)`` splits into ``n`` independent ``Z_t`` slots — the BFV
analogue of CKKS's complex slots.  Encoding is an inverse negacyclic NTT
mod ``t``; slot-wise addition/multiplication of encodings corresponds to
coefficient-ring addition/multiplication.  Both transforms run on the
batched :class:`~repro.poly.ntt.MultiNTTContext` of the one channel ``t``,
directly rather than through the kernel backend.
"""

from __future__ import annotations

import numpy as np

from repro.ntmath.modular import to_mod_array
from repro.poly.ntt import get_multi_context


class BFVEncoder:
    """Integer-vector <-> plaintext-polynomial encoder (batching)."""

    def __init__(self, n: int, plain_modulus: int):
        if (plain_modulus - 1) % (2 * n) != 0:
            raise ValueError(
                f"batching needs t ≡ 1 mod 2n; t={plain_modulus}, n={n}"
            )
        self.n = n
        self.t = plain_modulus
        self.ctx = get_multi_context(n, (plain_modulus,))

    def encode(self, values) -> np.ndarray:
        """Encode up to ``n`` integers (mod t) into a plaintext polynomial.

        Shorter inputs are zero-padded; negative values wrap mod t.
        """
        values = np.asarray(values)
        if values.size > self.n:
            raise ValueError(f"at most {self.n} slots, got {values.size}")
        slots = np.zeros(self.n, dtype=np.int64)
        slots[: values.size] = values
        spectrum = to_mod_array(slots, self.t)
        return self.ctx.inverse(spectrum[None])[0]

    def decode(self, poly) -> np.ndarray:
        """Decode a plaintext polynomial back to its ``n`` integer slots."""
        poly = to_mod_array(poly, self.t)
        if poly.shape != (self.n,):
            raise ValueError(f"expected {self.n} coefficients")
        return self.ctx.forward(poly[None])[0].astype(np.int64)

    def decode_centered(self, poly) -> np.ndarray:
        """Decode with slots mapped to the centered range ``(-t/2, t/2]``."""
        slots = self.decode(poly)
        half = self.t // 2
        return np.where(slots > half, slots - self.t, slots)
