"""RNS bases and the precomputed constants for fast base conversion.

For a source basis ``{q_0 .. q_{L-1}}`` with product ``Q``, equation (1) of
the paper needs, per source channel ``i``:

* ``qhat_inv[i] = (Q / q_i)^{-1} mod q_i``  (applied inside the channel), and
* ``qhat[i] mod p_j = (Q / q_i) mod p_j``    (applied per target channel).

These depend on the *current* chain (CKKS drops primes as levels are
consumed), so tables are built per ``(source, target)`` pair and cached.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from repro.ntmath.modular import invmod


class RNSBasis:
    """An ordered set of pairwise-coprime RNS prime moduli."""

    def __init__(self, primes: Sequence[int]):
        primes = tuple(int(q) for q in primes)
        if len(primes) != len(set(primes)):
            raise ValueError("RNS primes must be distinct")
        if any(q <= 1 for q in primes):
            raise ValueError("RNS primes must be > 1")
        self.primes = primes

    def __len__(self) -> int:
        return len(self.primes)

    def __iter__(self):
        return iter(self.primes)

    def __getitem__(self, idx):
        return self.primes[idx]

    def __eq__(self, other) -> bool:
        return isinstance(other, RNSBasis) and self.primes == other.primes

    def __hash__(self) -> int:
        return hash(self.primes)

    def __repr__(self) -> str:
        return f"RNSBasis({len(self.primes)} primes, {self.product.bit_length()} bits)"

    @property
    def product(self) -> int:
        """The full modulus ``Q = prod(q_i)`` as a Python big int."""
        out = 1
        for q in self.primes:
            out *= q
        return out

    def prefix(self, count: int) -> "RNSBasis":
        """The sub-basis of the first ``count`` primes (a CKKS level chain)."""
        if not 1 <= count <= len(self.primes):
            raise ValueError(f"prefix length {count} out of range")
        return RNSBasis(self.primes[:count])


class ConversionTable:
    """Precomputed constants for ``Bconv`` from one basis to another."""

    def __init__(self, source: Tuple[int, ...], target: Tuple[int, ...]):
        self.source = source
        self.target = target
        product = 1
        for q in source:
            product *= q
        self.source_product = product
        # per-source-channel (Q/q_i)^{-1} mod q_i
        self.qhat_inv = np.array(
            [invmod(product // q, q) for q in source], dtype=np.uint64
        )
        # qhat_mod_target[j][i] = (Q/q_i) mod p_j
        self.qhat_mod_target = np.array(
            [[(product // q) % p for q in source] for p in target],
            dtype=np.uint64,
        )
        # Q mod p_j — used to strip the alpha*Q overshoot when needed and by
        # Modup-style conversions in tests.
        self.product_mod_target = np.array(
            [product % p for p in target], dtype=np.uint64
        )


@lru_cache(maxsize=4096)
def get_conversion_table(
    source: Tuple[int, ...], target: Tuple[int, ...]
) -> ConversionTable:
    """Cached lookup of conversion constants for a (source, target) pair."""
    return ConversionTable(source, target)


def crt_reconstruct(residues, primes: Sequence[int]) -> list:
    """Exact CRT reconstruction to Python big ints in ``[0, Q)``.

    ``residues`` has shape ``(len(primes), n)``.  Each channel contributes
    ``r_i * [(Q/q_i)^{-1}]_{q_i} * (Q/q_i)`` to one object-dtype
    accumulator, reduced by ``Q`` once at the end.
    """
    primes = [int(q) for q in primes]
    product = 1
    for q in primes:
        product *= q
    residues = np.asarray(residues, dtype=np.uint64)
    if residues.ndim == 1:
        residues = residues[None, :]
    if residues.shape[0] != len(primes):
        raise ValueError("channel count does not match prime count")
    acc = np.zeros(residues.shape[1], dtype=object)
    for row, q in zip(residues, primes):
        qhat = product // q
        acc += row.astype(object) * ((invmod(qhat, q) * qhat) % product)
    return (acc % product).tolist()


def crt_centred(residues, primes: Sequence[int]) -> np.ndarray:
    """Exact CRT lift to the centred range ``(-Q/2, Q/2]``.

    ``residues`` has shape ``(len(primes), ...)``; the result is an
    object-dtype array of Python ints shaped like one channel.
    """
    residues = np.asarray(residues, dtype=np.uint64)
    product = 1
    for q in primes:
        product *= int(q)
    values = np.array(crt_reconstruct(
        residues.reshape(len(primes), -1), primes), dtype=object)
    values[values > product // 2] -= product
    return values.reshape(residues.shape[1:])
