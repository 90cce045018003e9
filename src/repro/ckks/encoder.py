"""CKKS canonical-embedding encoder/decoder.

Encodes a vector of ``n/2`` complex slots into an integer polynomial whose
canonical embedding (evaluation at the primitive 2n-th roots of unity along
the orbit of 5) equals the slots, scaled by ``Delta``.

Implementation: with ``zeta = exp(i*pi/n)``, the full evaluation vector of a
real polynomial at ``zeta**(2k+1)`` for ``k = 0..n-1`` is obtained from one
length-``n`` FFT of the twisted coefficients ``a_i * zeta**i``.  Slot ``j``
lives at the evaluation point ``zeta**(5**j mod 2n)``; the remaining ``n/2``
points hold the complex conjugates, which is what makes the inverse embedding
of a conjugate-symmetric spectrum real.
"""

from __future__ import annotations

import numpy as np


class CKKSEncoder:
    """Encoder between complex slot vectors and scaled integer polynomials."""

    def __init__(self, n: int, scale: float):
        if n < 8 or n & (n - 1):
            raise ValueError("ring degree must be a power of two >= 8")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.n = n
        self.scale = float(scale)
        self.slots = n // 2
        m = 2 * n
        # slot j sits at evaluation point zeta^(5^j); index into the full
        # odd-power grid: 2k+1 = 5^j mod 2n  =>  k = (5^j - 1)/2 mod n
        rot = np.array(
            [pow(5, j, m) for j in range(self.slots)], dtype=np.int64
        )
        self.slot_index = ((rot - 1) // 2) % n
        conj = (m - rot) % m
        self.conj_index = ((conj - 1) // 2) % n
        i = np.arange(n)
        self.twist = np.exp(1j * np.pi * i / n)          # zeta^i
        self.untwist = np.conj(self.twist)

    # ------------------------------------------------------------------ #

    def embed(self, coeffs: np.ndarray) -> np.ndarray:
        """Full canonical embedding: evaluations at ``zeta**(2k+1)``.

        ``coeffs`` are real (float) polynomial coefficients.
        """
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (self.n,):
            raise ValueError(f"expected {self.n} coefficients")
        return self.n * np.fft.ifft(coeffs * self.twist)

    def embed_inverse(self, evaluations: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`embed`; returns real coefficients."""
        w = np.fft.fft(np.asarray(evaluations, dtype=np.complex128) / self.n)
        return np.real(w * self.untwist)

    # ------------------------------------------------------------------ #

    def encode(self, values, scale: float = None) -> np.ndarray:
        """Encode up to ``n/2`` complex values into integer coefficients.

        Shorter inputs are zero-padded.  Returns an ``int64`` array of the
        coefficients scaled by ``scale`` (default: the encoder's) and
        rounded (the plaintext polynomial over Z).
        """
        scale = self.scale if scale is None else float(scale)
        if scale <= 0:
            raise ValueError("scale must be positive")
        values = np.asarray(values, dtype=np.complex128).ravel()
        if values.size > self.slots:
            raise ValueError(f"at most {self.slots} slots, got {values.size}")
        z = np.zeros(self.slots, dtype=np.complex128)
        z[: values.size] = values
        full = np.zeros(self.n, dtype=np.complex128)
        full[self.slot_index] = z
        full[self.conj_index] = np.conj(z)
        coeffs = self.embed_inverse(full) * scale
        limit = float(1 << 62)
        if np.abs(coeffs).max() >= limit:
            raise OverflowError(
                "encoded coefficients exceed 62 bits; lower the scale or "
                "the input magnitude"
            )
        return np.rint(coeffs).astype(np.int64)

    def decode(self, coeffs, scale: float = None) -> np.ndarray:
        """Decode integer (or big-int) coefficients back to complex slots."""
        if scale is None:
            scale = self.scale
        arr = np.asarray(coeffs, dtype=np.float64)
        if arr.shape != (self.n,):
            raise ValueError(f"expected {self.n} coefficients")
        full = self.embed(arr)
        return full[self.slot_index] / scale

    def decode_bigints(self, coeffs, scale: float = None) -> np.ndarray:
        """Decode centered big-int coefficients (exact lift, then float)."""
        arr = np.array([float(int(c)) for c in coeffs], dtype=np.float64)
        return self.decode(arr, scale=scale)

    # ------------------------------------------------------------------ #

    def encode_real_constant(self, value: float) -> np.ndarray:
        """Encode a constant broadcast to all slots (constant polynomial).

        A real constant ``c`` encodes exactly as ``round(c * Delta) * X^0``,
        avoiding FFT rounding noise entirely.
        """
        coeffs = np.zeros(self.n, dtype=np.int64)
        coeffs[0] = int(round(value * self.scale))
        return coeffs
