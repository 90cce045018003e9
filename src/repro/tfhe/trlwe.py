"""TRLWE (ring-LWE over the torus): keys, samples, sample extraction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.seedexp import SeedExpander
from repro.tfhe.lwe import LweKey, LweSample, encryption_draws
from repro.tfhe.params import TFHEParams
from repro.tfhe.polymul import get_torus_ntt
from repro.tfhe.torus import to_centered_int64

#: ``rows * max|u|`` of a product by the ring key: one row of bits.
_BINARY_KEY_BOUND = 1

#: Rows of a batched encryption whose ``a·s`` products one spectrum call
#: and one ``mul_sum_multi`` pass form.  It bounds the transforms a large
#: batch holds at once (a bootstrapping key has ``lwe_dim * 2l`` rows), and
#: :func:`~repro.tfhe.trgsw.trgsw_encrypt` makes as many samples at a time
#: as fill one block with their ``2l`` rows each.
BLOCK_ROWS = 96


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
    stream=None,
) -> TrlweSample:
    """Encrypt a Torus32 polynomial message, or a batch of them.

    ``message`` is one ``(N,)`` polynomial or a ``(k, N)`` batch, which
    gives one sample of ``(k, N)`` polynomials, bit for bit the samples of
    ``k`` calls in order: :func:`~repro.tfhe.lwe.encryption_draws` makes
    their draws, and the ``a·s`` products are formed :data:`BLOCK_ROWS`
    rows at a time, each block with one spectrum call for its masks and
    one ``mul_sum_multi`` pass against the key.

    With an ``expander`` and ``stream`` (one label per message for a
    batch), the uniform mask polynomial ``a(X)`` comes from the
    deterministic stream (seed-expanded construction); the noise still
    comes from ``rng``.
    """
    params = key.params
    if noise_std is None:
        noise_std = params.ring_noise_std
    n = params.ring_degree
    message = np.asarray(message, dtype=np.uint32)
    if message.ndim not in (1, 2) or message.shape[-1] != n:
        raise ValueError(f"message must have {n} coefficients")
    single = message.ndim == 1
    streams = None if stream is None else [stream] if single else list(stream)
    a, e = encryption_draws(message.size // n, n, rng, noise_std,
                            noise_width=n, expander=expander, streams=streams)
    b = message.reshape(-1, n) + e + _times_key(a, key)
    return TrlweSample(a[0], b[0]) if single else TrlweSample(a, b)


def trlwe_decrypt_phase(sample: TrlweSample, key: TrlweKey) -> np.ndarray:
    """The noisy phase polynomial ``b - a*s`` (Torus32), or one phase per
    row of a batched sample."""
    a = np.asarray(sample.a, dtype=np.uint32)
    n = key.params.ring_degree
    if a.shape[-1] != n:
        raise ValueError(f"sample must have {n} coefficients")
    return sample.b - _times_key(a.reshape(-1, n), key).reshape(a.shape)


def _times_key(a: np.ndarray, key: TrlweKey) -> np.ndarray:
    """``a·s`` for each row of the ``(k, N)`` Torus32 masks ``a``: one
    spectrum call and one ``mul_sum_multi`` pass per :data:`BLOCK_ROWS`
    rows."""
    ntt = get_torus_ntt(key.params.ring_degree, _BINARY_KEY_BOUND)
    out = np.empty(a.shape, dtype=np.uint32)
    for lo in range(0, len(a), BLOCK_ROWS):
        block = a[lo:lo + BLOCK_ROWS]
        spectra = ntt.spectrum(to_centered_int64(block))
        out[lo:lo + BLOCK_ROWS] = np.stack(ntt.mul_sum_multi(
            key.key[None, :], [spectra[:, i:i + 1] for i in range(len(block))]))
    return out
