"""BFV parameter sets."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.ntmath.modular import MAX_FAST_MODULUS_BITS
from repro.ntmath.primes import (
    generate_ntt_prime,
    generate_ntt_primes,
    is_prime,
    ntt_primes_below,
)


@dataclass(frozen=True)
class BFVParams:
    """Static BFV parameters.

    Attributes
    ----------
    n:
        Ring degree (power of two); ``n`` integer slots when ``t ≡ 1 mod 2n``.
    plain_modulus:
        Plaintext modulus ``t``, below ``Q`` and of at most 42 bits (the
        channel width decryption rounds onto), with
        ``(t - 1)·(Q mod t) < Q/4``: ``Delta = floor(Q/t)`` shifts a
        decrypted message ``m`` by ``m·(Q mod t)/Q``, and that shift may
        take at most half of decryption's rounding margin of 1/2, leaving
        the other half to the noise.  Pass ``None`` to
        auto-select an NTT-friendly prime of ``plain_bits`` bits (enables
        batching).
    num_primes:
        Number of 36-bit RNS primes in the ciphertext modulus ``Q``.
    dnum:
        Relinearization digit count (hybrid keyswitching, like CKKS).
    hamming_weight:
        Secret-key Hamming weight in ``[1, n]`` (``None`` = dense ternary).
    aux_primes:
        Derived, not an argument: the auxiliary basis ``B`` the
        multiplication tensor is formed over, ``Q∪B``.  It is the fewest
        NTT primes of the kernels' widest fast-path width, distinct from
        every key prime and from ``t``, with ``prod(B) > n·Q``.  Then
        ``Q·B > n·Q²``, twice the largest tensor coefficient, so ``Q∪B``
        holds every coefficient exactly with its sign.
    """

    n: int
    num_primes: int = 3
    plain_modulus: int = None
    plain_bits: int = 17
    dnum: int = 2
    error_std: float = 3.2
    hamming_weight: int = 64
    ct_primes: Tuple[int, ...] = field(init=False)
    special_primes: Tuple[int, ...] = field(init=False)
    aux_primes: Tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.n < 8 or self.n & (self.n - 1):
            raise ValueError("ring degree must be a power of two >= 8")
        if self.num_primes < 1:
            raise ValueError("need at least one ciphertext prime")
        if not 1 <= self.dnum <= self.num_primes:
            raise ValueError("dnum must be in [1, num_primes]")
        if self.hamming_weight is not None and not (
                1 <= self.hamming_weight <= self.n):
            raise ValueError(
                f"hamming weight {self.hamming_weight} is not in [1, n = "
                f"{self.n}]: a weight of 0 draws an all-zero secret")
        t = self.plain_modulus
        if t is None:
            t = generate_ntt_prime(self.plain_bits, self.n)
        t = int(t)
        if t < 2:
            raise ValueError("plaintext modulus must be >= 2")
        if t.bit_length() > MAX_FAST_MODULUS_BITS:
            raise ValueError(
                f"plaintext modulus {t} has {t.bit_length()} bits; decryption "
                f"rounds onto t in the {MAX_FAST_MODULUS_BITS}-bit channel "
                "arithmetic")
        object.__setattr__(self, "plain_modulus", t)
        primes = generate_ntt_primes(36, self.n, self.num_primes + self.alpha)
        primes = [q for q in primes if q != t]
        object.__setattr__(self, "ct_primes", tuple(primes[: self.num_primes]))
        object.__setattr__(
            self,
            "special_primes",
            tuple(primes[self.num_primes : self.num_primes + self.alpha]),
        )
        q = self.q_product
        if t >= q:
            raise ValueError(
                f"plaintext modulus {t} is not below Q; Delta = floor(Q/t) "
                "would carry no message")
        # Delta*m decrypts to m - m*(Q mod t)/Q (see plain_modulus above)
        if 4 * (t - 1) * (q % t) >= q:
            raise ValueError(
                f"plaintext modulus {t} shifts a decrypted message by up to "
                f"(t-1)*(Q mod t)/Q >= 1/4 over {self.num_primes} ciphertext "
                "primes; use more primes")
        object.__setattr__(self, "aux_primes", self._pick_aux_primes())

    def _pick_aux_primes(self) -> Tuple[int, ...]:
        taken = set(self.all_primes) | {self.plain_modulus}
        bound = self.n * self.q_product
        aux, product = [], 1
        for b in ntt_primes_below(MAX_FAST_MODULUS_BITS, self.n):
            if b in taken:
                continue
            aux.append(b)
            product *= b
            if product > bound:
                break
        return tuple(aux)

    # ------------------------------ derived ---------------------------- #

    @property
    def alpha(self) -> int:
        """Special primes for hybrid relinearization."""
        return -(-self.num_primes // self.dnum)

    @property
    def q_product(self) -> int:
        out = 1
        for q in self.ct_primes:
            out *= q
        return out

    @property
    def p_product(self) -> int:
        out = 1
        for p in self.special_primes:
            out *= p
        return out

    @property
    def all_primes(self) -> Tuple[int, ...]:
        return self.ct_primes + self.special_primes

    @property
    def delta(self) -> int:
        """The message scaling factor ``floor(Q / t)``."""
        return self.q_product // self.plain_modulus

    @property
    def supports_batching(self) -> bool:
        t = self.plain_modulus
        return is_prime(t) and (t - 1) % (2 * self.n) == 0

    def digits(self) -> Tuple[Tuple[int, ...], ...]:
        """Digit grouping of the ciphertext primes for relinearization."""
        alpha = self.alpha
        return tuple(
            self.ct_primes[i * alpha : (i + 1) * alpha]
            for i in range(-(-self.num_primes // alpha))
        )
