"""LWE over the discretized torus: keys, samples, encrypt/decrypt."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.seedexp import SeedExpander
from repro.tfhe.params import TFHEParams
from repro.tfhe.torus import TORUS_MODULUS, torus_noise


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
        zeros = lwe_encrypt(np.zeros(count, dtype=np.int64), key, rng,
                            noise_std)
        return cls(params, np.concatenate([zeros.a, zeros.b[:, None]],
                                          axis=1))

    def encrypt(self, mu: int, rng: np.random.Generator) -> LweSample:
        """Encrypt a torus value using only public material."""
        count, width = self.rows.shape
        n = width - 1
        selection = rng.integers(0, 2, size=count).astype(bool)
        chosen = self.rows[selection]
        a = chosen[:, :n].astype(np.uint64).sum(axis=0) % (1 << 32)
        b = (int(chosen[:, n].astype(np.uint64).sum()) + int(mu)) % (1 << 32)
        return LweSample(a.astype(np.uint32), np.uint32(b))


def encryption_draws(
    count: int, width: int, rng: np.random.Generator, noise_std: float,
    noise_width: Optional[int] = None,
    expander: Optional[SeedExpander] = None,
    streams: Optional[Sequence[str]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The random draws of ``count`` encryptions, in the order that
    ``count`` separate encryptions make them.

    Encryption ``i`` draws its uniform Torus32 mask of ``width`` words —
    from ``rng``, or with an ``expander`` from the stream ``streams[i]`` —
    and then its noise from ``rng``: one standard normal value, or
    ``noise_width`` of them, which :func:`~repro.tfhe.torus.torus_noise`
    scales to deviation ``noise_std`` (a torus fraction) and rounds onto
    the torus for all encryptions at once.  Only the draws loop; the
    caller computes on the ``(count, width)`` masks and the ``(count,)``
    or ``(count, noise_width)`` Torus32 noise as batches.
    """
    if expander is not None and (streams is None or None in streams):
        raise ValueError("seed-expanded masks need a stream label")
    if streams is not None and len(streams) != count:
        raise ValueError(f"{len(streams)} stream labels for {count} messages")
    masks = np.empty((count, width), dtype=np.uint32)
    normals = np.empty((count,) if noise_width is None else (count, noise_width))
    for i in range(count):
        if expander is not None:
            masks[i] = expander.uniform_u32(width, streams[i])
        else:
            masks[i] = rng.integers(0, 1 << 32, size=width, dtype=np.int64)
        normals[i] = rng.standard_normal(size=noise_width)
    return masks, torus_noise(normals, noise_std)


def lwe_encrypt(
    mu, key: LweKey, rng: np.random.Generator, noise_std: float = None,
    expander: Optional[SeedExpander] = None, stream=None,
) -> LweSample:
    """Encrypt the torus value ``mu`` under ``key``, or a batch of them.

    ``mu`` is one integer or a 1-D array of ``k`` (int64 values, taken mod
    ``2**32``).  A batch gives one :class:`LweSample` with ``a`` of shape
    ``(k, n)`` and ``b`` of shape ``(k,)``, bit for bit the ``k`` samples
    of ``k`` calls in order: :func:`encryption_draws` makes their draws,
    and ``<a, s>`` and ``b`` are formed for the whole batch at once, in
    uint32 arithmetic that wraps mod ``2**32``.

    With an ``expander`` and ``stream`` (one label per message for a
    batch), the uniform mask comes from the deterministic stream instead
    of ``rng`` (the seed-expanded construction), and one sample carries
    ``seed_meta`` so serialization can drop the mask.  The noise still
    comes from ``rng``.
    """
    if noise_std is None:
        noise_std = key.params.lwe_noise_std
    single = np.ndim(mu) == 0
    messages = np.asarray(mu, dtype=np.int64).reshape(-1) % TORUS_MODULUS
    streams = None if stream is None else [stream] if single else list(stream)
    a, noise = encryption_draws(messages.size, key.dim, rng, noise_std,
                                expander=expander, streams=streams)
    b = messages.astype(np.uint32) + a @ key.key.astype(np.uint32) + noise
    if not single:
        return LweSample(a, b)
    seed_meta = (expander.seed, stream) if expander is not None else None
    return LweSample(a[0], b[0], seed_meta=seed_meta)


def lwe_decrypt_phase(sample: LweSample, key: LweKey) -> int:
    """The noisy phase ``b - <a, s>`` as a Torus32 integer."""
    if sample.dim != key.dim:
        raise ValueError(
            f"sample dimension {sample.dim} does not match key {key.dim}"
        )
    dot = int((sample.a.astype(np.int64) * key.key).sum() % (1 << 32))
    return (int(sample.b) - dot) % (1 << 32)
