"""CKKS parameter sets: modulus chains, dnum digits, special primes.

Follows the paper's conventions (Table 1): base chain ``Q = prod q_i`` for
``i in [0, L]``, special chain ``P = prod p_k`` for ``k in [0, K)``, hybrid
keyswitching with decomposition number ``dnum`` and ``K = ceil((L+1)/dnum)``
special primes, and the 36-bit RNS word size adopted from SHARP [11].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.ntmath.primes import generate_ntt_prime, ntt_primes_near


@dataclass(frozen=True)
class CKKSParams:
    """Static CKKS parameters.

    Attributes
    ----------
    n:
        Ring degree (power of two); ``n/2`` complex slots.
    num_levels:
        Maximum multiplicative level ``L``; the base chain has ``L+1`` primes.
    scale_bits:
        log2 of the encoding scale Delta; chain primes are chosen near
        ``2**scale_bits``.
    dnum:
        Hybrid keyswitching decomposition number (paper Table 1).
    first_prime_bits:
        Bit width of ``q_0`` (larger than the scale for decryption margin).
    error_std:
        Discrete-Gaussian-like error standard deviation.
    hamming_weight:
        Secret-key Hamming weight in ``[1, n]`` (``None`` = dense ternary).
    """

    n: int
    num_levels: int
    scale_bits: int = 35
    dnum: int = 3
    first_prime_bits: int = 41
    error_std: float = 3.2
    hamming_weight: int = 64
    base_primes: Tuple[int, ...] = field(init=False)
    special_primes: Tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.n < 8 or self.n & (self.n - 1):
            raise ValueError("ring degree must be a power of two >= 8")
        if self.num_levels < 1:
            raise ValueError("need at least one multiplicative level")
        if not 1 <= self.dnum <= self.num_levels + 1:
            raise ValueError("dnum must be in [1, L+1]")
        if self.first_prime_bits > 42 or self.scale_bits > 40:
            raise ValueError("prime widths above 42 bits exceed the fast path")
        if self.hamming_weight is not None and not (
                1 <= self.hamming_weight <= self.n):
            raise ValueError(
                f"hamming weight {self.hamming_weight} is not in [1, n = "
                f"{self.n}]: a weight of 0 draws an all-zero secret")
        first = generate_ntt_prime(self.first_prime_bits, self.n)
        scale_primes = ntt_primes_near(1 << self.scale_bits, self.n, self.num_levels)
        base = (first,) + tuple(q for q in scale_primes if q != first)
        if len(base) != self.num_levels + 1:
            raise ValueError(
                "first_prime_bits too close to scale_bits: prime collision"
            )
        # Special primes must be at least as wide as the widest base prime so
        # that P = prod(special) dominates every digit product (noise bound
        # of hybrid keyswitching); generate extras to skip collisions.
        special_pool = ntt_primes_near(
            1 << self.first_prime_bits, self.n, self.alpha + 2
        )
        special = tuple(p for p in special_pool if p not in base)[: self.alpha]
        if len(special) < self.alpha:
            raise ValueError("could not assemble a collision-free P chain")
        object.__setattr__(self, "base_primes", base)
        object.__setattr__(self, "special_primes", special)

    # ------------------------------ derived ---------------------------- #

    @property
    def alpha(self) -> int:
        """Primes per decomposition digit = number of special primes K."""
        return -(-(self.num_levels + 1) // self.dnum)

    @property
    def scale(self) -> float:
        return float(1 << self.scale_bits)

    @property
    def slots(self) -> int:
        return self.n // 2

    @property
    def all_primes(self) -> Tuple[int, ...]:
        return self.base_primes + self.special_primes

    @property
    def q_product(self) -> int:
        out = 1
        for q in self.base_primes:
            out *= q
        return out

    @property
    def p_product(self) -> int:
        out = 1
        for p in self.special_primes:
            out *= p
        return out

    def primes_at_level(self, level: int) -> Tuple[int, ...]:
        """Active base primes for a ciphertext at ``level`` (level L = fresh)."""
        if not 0 <= level <= self.num_levels:
            raise ValueError(f"level {level} out of [0, {self.num_levels}]")
        return self.base_primes[: level + 1]

    def digits_at_level(self, level: int) -> Tuple[Tuple[int, ...], ...]:
        """Hybrid-keyswitch digit grouping of the active chain at ``level``.

        Digits are consecutive runs of ``alpha`` primes; the last digit may
        be shorter.  ``P = prod(special_primes)`` exceeds every digit product
        because each digit has at most ``alpha = K`` primes of the same width.
        """
        primes = self.primes_at_level(level)
        alpha = self.alpha
        return tuple(
            primes[t * alpha : (t + 1) * alpha]
            for t in range((len(primes) + alpha - 1) // alpha)
        )

    def describe(self) -> str:
        """Human-readable parameter summary."""
        return (
            f"CKKS(n=2^{self.n.bit_length() - 1}, L={self.num_levels}, "
            f"dnum={self.dnum}, K={self.alpha}, Delta=2^{self.scale_bits}, "
            f"logQP={ (self.q_product * self.p_product).bit_length() })"
        )


#: The paper's evaluation parameter set (Table 7 / Figure 6 deep workloads):
#: N = 2^16, L = 44, dnum = 4.  Used for op-trace generation (performance
#: simulation), not for functional execution in Python.
PAPER_PARAMS_LARGE = dict(n=1 << 16, num_levels=44, dnum=4)

#: Reduced parameter set for functional tests — same structure, small enough
#: for pure-Python execution.
TEST_PARAMS_SMALL = dict(n=1 << 10, num_levels=4, dnum=2, hamming_weight=32)
