"""TRLWE (ring-LWE over the torus): keys, samples, sample extraction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.seedexp import SeedExpander
from repro.tfhe.lwe import LweKey, LweSample
from repro.tfhe.params import TFHEParams
from repro.tfhe.polymul import get_torus_ntt
from repro.tfhe.torus import gaussian_noise

#: ``rows * max|u|`` of a product by the ring key: one row of bits.
_BINARY_KEY_BOUND = 1


def negacyclic_monomial_mul(poly: np.ndarray, degree) -> np.ndarray:
    """``poly * X**degree`` in ``T_N[X]/(X^N + 1)`` (Torus32 coefficients).

    ``degree`` is one int, or an integer array with one degree per row of
    ``poly``'s leading (batch) axes.  Since ``X^N = -1``, coefficient ``c``
    of the product is entry ``(c - degree) mod 2N`` of ``(poly, -poly)``,
    so every row rotates by its own degree in one gather.
    """
    n = poly.shape[-1]
    extended = np.concatenate([poly, np.negative(poly)], axis=-1)
    index = (np.arange(n) - np.asarray(degree, dtype=np.int64)[..., None]) % (2 * n)
    if extended.ndim > 1 and index.ndim > 1:     # per-row degrees
        return np.take_along_axis(extended, index, axis=-1)
    return np.take(extended, index, axis=-1)


@dataclass
class TrlweKey:
    """Binary ring key ``s(X)`` of degree ``N`` (k = 1)."""

    params: TFHEParams
    key: np.ndarray  # (N,) int64 in {0, 1}

    @classmethod
    def generate(cls, params: TFHEParams, rng: np.random.Generator) -> "TrlweKey":
        key = rng.integers(0, 2, size=params.ring_degree, dtype=np.int64)
        return cls(params, key)

    def extracted_lwe_key(self) -> LweKey:
        """The LWE key that sample extraction produces: the ring key coeffs."""
        return LweKey(self.params, self.key.copy())


@dataclass
class TrlweSample:
    """A TRLWE sample ``(a(X), b(X))`` with phase ``b - a*s``.

    A blind-rotation accumulator for a batch of ``k`` ciphertexts holds
    ``(k, N)`` polynomials, one row per ciphertext.
    """

    a: np.ndarray  # (N,) uint32, or (k, N) for a batch
    b: np.ndarray  # (N,) uint32, or (k, N) for a batch

    def __add__(self, other: "TrlweSample") -> "TrlweSample":
        return TrlweSample(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "TrlweSample") -> "TrlweSample":
        return TrlweSample(self.a - other.a, self.b - other.b)

    def monomial_mul(self, degree) -> "TrlweSample":
        """Multiply by ``X**degree`` (one degree per row of a batch)."""
        return TrlweSample(
            negacyclic_monomial_mul(self.a, degree),
            negacyclic_monomial_mul(self.b, degree),
        )

    def copy(self) -> "TrlweSample":
        return TrlweSample(self.a.copy(), self.b.copy())

    @classmethod
    def trivial(cls, message: np.ndarray) -> "TrlweSample":
        """Noiseless sample of a public Torus32 polynomial."""
        message = np.asarray(message, dtype=np.uint32)
        return cls(np.zeros_like(message), message.copy())

    def extract_lwe(self, index: int = 0) -> LweSample:
        """Extract coefficient ``index`` of the phase as an LWE sample under
        the extracted key (ring key coefficients); a batch of accumulators
        gives a batch of samples."""
        n = self.a.shape[-1]
        if not 0 <= index < n:
            raise ValueError(f"index {index} out of [0, {n})")
        # a'_j = a[index - j] for j <= index, -a[N + index - j] for j > index
        a_prime = np.empty_like(self.a)
        a_prime[..., : index + 1] = self.a[..., index::-1]
        a_prime[..., index + 1 :] = np.negative(self.a[..., n - 1 : index : -1])
        return LweSample(a_prime, self.b[..., index][()])


def trlwe_encrypt(
    message: np.ndarray,
    key: TrlweKey,
    rng: np.random.Generator,
    noise_std: float = None,
    expander: Optional[SeedExpander] = None,
    stream: Optional[str] = None,
) -> TrlweSample:
    """Encrypt a Torus32 polynomial message.

    With an ``expander`` and ``stream``, the uniform mask polynomial
    ``a(X)`` comes from the deterministic stream (seed-expanded
    construction); the noise still comes from ``rng``.
    """
    params = key.params
    if noise_std is None:
        noise_std = params.ring_noise_std
    n = params.ring_degree
    message = np.asarray(message, dtype=np.uint32)
    if message.shape != (n,):
        raise ValueError(f"message must have {n} coefficients")
    if expander is not None:
        if stream is None:
            raise ValueError("seed-expanded masks need a stream label")
        a = expander.uniform_u32(n, stream)
    else:
        a = rng.integers(0, 1 << 32, size=n, dtype=np.int64).astype(np.uint32)
    e = gaussian_noise(rng, noise_std, size=n)
    ntt = get_torus_ntt(n, _BINARY_KEY_BOUND)
    a_s = ntt.multiply(key.key, a)
    b = a_s + message + e
    return TrlweSample(a, b)


def trlwe_decrypt_phase(sample: TrlweSample, key: TrlweKey) -> np.ndarray:
    """The noisy phase polynomial ``b - a*s`` (Torus32)."""
    n = key.params.ring_degree
    ntt = get_torus_ntt(n, _BINARY_KEY_BOUND)
    a_s = ntt.multiply(key.key, sample.a)
    return sample.b - a_s
