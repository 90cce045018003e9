"""CKKS plaintext/ciphertext containers, encryption and decryption."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import seedexp
from repro.ckks.encoder import CKKSEncoder
from repro.ckks.keys import PublicKey, SecretKey
from repro.ckks.params import CKKSParams
from repro.rns.rns_poly import RNSPoly, RNSRing
from repro.seedexp import SeedExpander


@dataclass
class Plaintext:
    """An encoded message: integer polynomial over the active chain."""

    poly: RNSPoly
    scale: float

    @property
    def level(self) -> int:
        return len(self.poly.primes) - 1


class Ciphertext:
    """A CKKS ciphertext: 2 (or 3, pre-relinearization) RNS polynomials.

    Decrypts as ``m ≈ c0 + c1*s (+ c2*s**2)`` over the active chain.  The
    ``level`` equals the number of remaining rescales; ``scale`` tracks the
    current encoding factor.

    ``seed_meta`` — ``(expand_seed, stream)`` when ``parts[1]`` is a
    seed-expanded uniform mask (fresh symmetric encryptions only):
    serialization can then drop it and regenerate from the seed.
    Evaluator outputs never carry it (their parts are no longer uniform).
    """

    def __init__(self, parts: List[RNSPoly], scale: float, params: CKKSParams,
                 seed_meta: Optional[Tuple[int, str]] = None):
        if len(parts) < 2:
            raise ValueError("a ciphertext needs at least 2 polynomials")
        primes = parts[0].primes
        for part in parts[1:]:
            if part.primes != primes:
                raise ValueError("ciphertext parts live over different bases")
        self.parts = parts
        self.scale = float(scale)
        self.params = params
        self.seed_meta = seed_meta

    @property
    def level(self) -> int:
        return len(self.parts[0].primes) - 1

    @property
    def primes(self):
        return self.parts[0].primes

    @property
    def size(self) -> int:
        return len(self.parts)

    def copy(self) -> "Ciphertext":
        return Ciphertext(
            [p.copy() for p in self.parts], self.scale, self.params,
            seed_meta=self.seed_meta,
        )

    def __repr__(self) -> str:
        return (
            f"Ciphertext(size={self.size}, level={self.level}, "
            f"scale=2^{np.log2(self.scale):.1f})"
        )


class CKKSEncryptor:
    """Encrypts encoded plaintexts under a public or secret key."""

    def __init__(
        self,
        params: CKKSParams,
        encoder: CKKSEncoder,
        rng: np.random.Generator,
        public_key: PublicKey = None,
        secret_key: SecretKey = None,
        expand_seed: int = None,
    ):
        if public_key is None and secret_key is None:
            raise ValueError("need a public or secret key")
        self.params = params
        self.encoder = encoder
        self.rng = rng
        self.public_key = public_key
        self.secret_key = secret_key
        # Seed-expanded symmetric masks: each encryption draws its uniform
        # mask from a fresh counter-indexed stream, and the ciphertext
        # carries (seed, stream) so serialization can drop the mask.
        self.expand_seed = expand_seed
        self._expander = (SeedExpander(expand_seed)
                          if expand_seed is not None else None)
        self._mask_nonce = 0
        self.ring = RNSRing(params.n, params.all_primes)

    # ------------------------------------------------------------------ #

    def encode(self, values, level: int = None, scale: float = None) -> Plaintext:
        """Encode complex slot values at the given level (default: fresh)."""
        if level is None:
            level = self.params.num_levels
        if scale is None:
            scale = self.params.scale
        coeffs = self.encoder.encode(values)
        primes = self.params.primes_at_level(level)
        poly = self.ring.from_ints(coeffs, primes=primes)
        return Plaintext(poly, float(scale))

    def encrypt(self, plaintext: Plaintext) -> Ciphertext:
        """Public-key encryption (falls back to symmetric if no pk)."""
        if self.public_key is None:
            return self.encrypt_symmetric(plaintext)
        params = self.params
        primes = plaintext.poly.primes
        pk_b = self._restrict(self.public_key.b, primes)
        pk_a = self._restrict(self.public_key.a, primes)
        u = self.ring.sample_ternary(self.rng, primes=primes)
        e0 = self.ring.sample_error(self.rng, primes=primes, sigma=params.error_std)
        e1 = self.ring.sample_error(self.rng, primes=primes, sigma=params.error_std)
        u_ntt = u.to_ntt()
        c0 = (pk_b.to_ntt() * u_ntt).to_coeff() + e0 + plaintext.poly
        c1 = (pk_a.to_ntt() * u_ntt).to_coeff() + e1
        return Ciphertext([c0, c1], plaintext.scale, params)

    def encrypt_symmetric(self, plaintext: Plaintext) -> Ciphertext:
        if self.secret_key is None:
            raise ValueError("symmetric encryption requires the secret key")
        params = self.params
        primes = plaintext.poly.primes
        s = self._restrict(self.secret_key.s, primes)
        seed_meta = None
        if self._expander is not None:
            stream = seedexp.ciphertext_stream("ckks", self._mask_nonce)
            self._mask_nonce += 1
            a = self._expander.uniform_rns(self.ring, primes, stream)
            seed_meta = (self.expand_seed, stream)
        else:
            a = self.ring.sample_uniform(self.rng, primes=primes)
        e = self.ring.sample_error(self.rng, primes=primes, sigma=params.error_std)
        c0 = -((a.to_ntt() * s.to_ntt()).to_coeff()) + e + plaintext.poly
        return Ciphertext([c0, a], plaintext.scale, params,
                          seed_meta=seed_meta)

    def encrypt_values(self, values, level: int = None) -> Ciphertext:
        """Encode + encrypt in one call."""
        return self.encrypt(self.encode(values, level=level))

    # ------------------------------------------------------------------ #

    def _restrict(self, poly: RNSPoly, primes) -> RNSPoly:
        primes = tuple(primes)
        index = {q: i for i, q in enumerate(poly.primes)}
        idx = np.array([index[q] for q in primes], dtype=np.intp)
        return RNSPoly(self.ring, poly.data[idx], primes, poly.ntt_form)


class CKKSDecryptor:
    """Decrypts and decodes ciphertexts with the secret key."""

    def __init__(
        self, params: CKKSParams, encoder: CKKSEncoder, secret_key: SecretKey
    ):
        self.params = params
        self.encoder = encoder
        self.secret_key = secret_key
        self.ring = RNSRing(params.n, params.all_primes)

    def decrypt_poly(self, ct: Ciphertext) -> RNSPoly:
        """Raw decryption: ``sum_k c_k * s**k`` over the active chain."""
        primes = ct.primes
        index = {q: i for i, q in enumerate(self.secret_key.s.primes)}
        idx = np.array([index[q] for q in primes], dtype=np.intp)
        s = RNSPoly(
            self.ring, self.secret_key.s.data[idx], primes, False
        ).to_ntt()
        acc = ct.parts[0].to_ntt()
        s_power = None
        for k in range(1, ct.size):
            s_power = s if s_power is None else s_power * s
            acc = acc + ct.parts[k].to_ntt() * s_power
        return acc.to_coeff()

    def decrypt(self, ct: Ciphertext) -> np.ndarray:
        """Decrypt to complex slot values."""
        message = self.decrypt_poly(ct)
        coeffs = message.to_centered_bigints()
        return self.encoder.decode_bigints(coeffs, scale=ct.scale)
