"""LWE over the discretized torus: keys, samples, encrypt/decrypt."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.seedexp import SeedExpander
from repro.tfhe.params import TFHEParams
from repro.tfhe.torus import gaussian_noise


@dataclass
class LweKey:
    """Binary LWE secret key of dimension ``n``."""

    params: TFHEParams
    key: np.ndarray  # (n,) int64 in {0, 1}

    @classmethod
    def generate(cls, params: TFHEParams, rng: np.random.Generator) -> "LweKey":
        key = rng.integers(0, 2, size=params.lwe_dim, dtype=np.int64)
        return cls(params, key)

    @property
    def dim(self) -> int:
        return int(self.key.shape[0])


@dataclass
class LweSample:
    """An LWE sample ``(a, b)`` with phase ``b - <a, s>`` on the torus.

    ``seed_meta`` is ``(expand_seed, stream)`` when ``a`` is a
    seed-expanded uniform mask (fresh encryptions only); arithmetic
    results drop it — their masks are no longer single-stream uniform.

    The PBS pipeline also carries a *batch* of samples as one object:
    ``a`` of shape ``(k, ..., n)`` and ``b`` of shape ``(k, ...)`` (see
    :meth:`stack`).  The arithmetic operators are for single samples.
    """

    a: np.ndarray  # (n,) uint32, or (k, ..., n) for a batch
    b: np.uint32   # or a (k, ...) uint32 array for a batch
    seed_meta: Optional[Tuple[int, str]] = None

    def __add__(self, other: "LweSample") -> "LweSample":
        b = (int(self.b) + int(other.b)) % (1 << 32)
        return LweSample(self.a + other.a, np.uint32(b))

    def __sub__(self, other: "LweSample") -> "LweSample":
        b = (int(self.b) - int(other.b)) % (1 << 32)
        return LweSample(self.a - other.a, np.uint32(b))

    def __neg__(self) -> "LweSample":
        return LweSample(
            (-self.a.astype(np.int64) % (1 << 32)).astype(np.uint32),
            np.uint32(-int(self.b) % (1 << 32)),
        )

    def scaled(self, c: int) -> "LweSample":
        """Multiply by a small integer constant (noise grows by |c|)."""
        c64 = np.int64(c)
        a = (self.a.astype(np.int64) * c64 % (1 << 32)).astype(np.uint32)
        b = np.uint32(int(self.b) * int(c) % (1 << 32))
        return LweSample(a, b)

    def add_constant(self, mu: int) -> "LweSample":
        """Add a public torus constant to the phase."""
        return LweSample(self.a.copy(), np.uint32((int(self.b) + int(mu)) % (1 << 32)))

    @property
    def dim(self) -> int:
        return int(self.a.shape[-1])

    @classmethod
    def trivial(cls, mu: int, dim: int) -> "LweSample":
        """Noiseless sample of a public constant (a = 0)."""
        return cls(np.zeros(dim, dtype=np.uint32), np.uint32(int(mu) % (1 << 32)))

    @classmethod
    def stack(cls, samples: Sequence["LweSample"]) -> "LweSample":
        """One batch holding ``samples`` along a new leading axis."""
        return cls(np.stack([s.a for s in samples]),
                   np.array([s.b for s in samples], dtype=np.uint32))

    def unstack(self) -> List["LweSample"]:
        """The samples of a batch, split along its leading axis."""
        return [LweSample(a, b) for a, b in zip(self.a, self.b)]


@dataclass
class LwePublicKey:
    """A Regev-style LWE public key: many encryptions of zero.

    Public-key encryption adds a random binary subset-sum of the zero
    encryptions to the message — the standard construction, enabling the
    cross-scheme pipelines where the TFHE side never sees a secret key.
    """

    params: TFHEParams
    rows: np.ndarray          # (count, n+1) uint32: a || b per row

    @classmethod
    def generate(
        cls,
        key: LweKey,
        rng: np.random.Generator,
        count: int = None,
        noise_std: float = None,
    ) -> "LwePublicKey":
        params = key.params
        if count is None:
            count = 2 * params.lwe_dim  # >= n log q bits of entropy headroom
        rows = np.empty((count, key.dim + 1), dtype=np.uint32)
        for i in range(count):
            sample = lwe_encrypt(0, key, rng, noise_std)
            rows[i, : key.dim] = sample.a
            rows[i, key.dim] = sample.b
        return cls(params, rows)

    def encrypt(self, mu: int, rng: np.random.Generator) -> LweSample:
        """Encrypt a torus value using only public material."""
        count, width = self.rows.shape
        n = width - 1
        selection = rng.integers(0, 2, size=count).astype(bool)
        chosen = self.rows[selection]
        a = chosen[:, :n].astype(np.uint64).sum(axis=0) % (1 << 32)
        b = (int(chosen[:, n].astype(np.uint64).sum()) + int(mu)) % (1 << 32)
        return LweSample(a.astype(np.uint32), np.uint32(b))


def lwe_encrypt(
    mu: int, key: LweKey, rng: np.random.Generator, noise_std: float = None,
    expander: Optional[SeedExpander] = None, stream: Optional[str] = None,
) -> LweSample:
    """Encrypt the torus value ``mu`` under ``key``.

    With an ``expander`` and ``stream``, the uniform mask ``a`` comes
    from the deterministic stream instead of ``rng`` (the seed-expanded
    construction) and the sample carries ``seed_meta`` so serialization
    can drop the mask.  The noise still comes from ``rng``.
    """
    params = key.params
    if noise_std is None:
        noise_std = params.lwe_noise_std
    n = key.dim
    seed_meta = None
    if expander is not None:
        if stream is None:
            raise ValueError("seed-expanded masks need a stream label")
        a = expander.uniform_u32(n, stream)
        seed_meta = (expander.seed, stream)
    else:
        a = rng.integers(0, 1 << 32, size=n, dtype=np.int64).astype(np.uint32)
    noise = gaussian_noise(rng, noise_std, size=None)
    dot = int((a.astype(np.int64) * key.key).sum() % (1 << 32))
    b = (int(mu) + dot + int(noise)) % (1 << 32)
    return LweSample(a, np.uint32(b), seed_meta=seed_meta)


def lwe_decrypt_phase(sample: LweSample, key: LweKey) -> int:
    """The noisy phase ``b - <a, s>`` as a Torus32 integer."""
    if sample.dim != key.dim:
        raise ValueError(
            f"sample dimension {sample.dim} does not match key {key.dim}"
        )
    dot = int((sample.a.astype(np.int64) * key.key).sum() % (1 << 32))
    return (int(sample.b) - dot) % (1 << 32)
