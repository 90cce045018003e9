"""CKKS plaintext/ciphertext containers, encryption and decryption (the
RLWE steps of :mod:`repro.rns.rlwe`, shared with BFV)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import seedexp
from repro.ckks.encoder import CKKSEncoder
from repro.ckks.keys import PublicKey, SecretKey
from repro.ckks.params import CKKSParams
from repro.rns.rlwe import NTTPublicKey, phase, require_single, rlwe_b
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

    A :meth:`stack` of ``B`` ciphertexts at one level and scale holds its
    parts as ``(C, B, n)`` stacks (:class:`~repro.rns.rns_poly.RNSPoly`),
    so each evaluator op that has a stack path serves all ``B`` with one
    set of kernel calls; :meth:`unstack` splits it again.  Every other op
    raises :class:`ValueError` on a stack.
    """

    def __init__(self, parts: List[RNSPoly], scale: float, params: CKKSParams,
                 seed_meta: Optional[Tuple[int, str]] = None):
        if len(parts) < 2:
            raise ValueError("a ciphertext needs at least 2 polynomials")
        primes, shape = parts[0].primes, parts[0].data.shape
        for part in parts[1:]:
            if part.primes != primes:
                raise ValueError("ciphertext parts live over different bases")
            if part.data.shape != shape:
                raise ValueError("ciphertext parts stack different counts")
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

    @property
    def stack_size(self) -> Optional[int]:
        """``B`` for a :meth:`stack` of ``B`` ciphertexts, else ``None``."""
        shape = self.parts[0].data.shape
        return shape[1] if len(shape) == 3 else None

    @classmethod
    def stack(cls, cts: Sequence["Ciphertext"]) -> "Ciphertext":
        """One ciphertext holding ``cts`` along a stack axis: part ``k`` is
        the ``(C, B, n)`` coefficient-form stack of every ``ct.parts[k]``.

        The stack has one level and one scale, so ``cts`` must agree in
        parameters, level, size and scale (else :class:`ValueError`), and
        none may be a stack itself."""
        cts = list(cts)
        if not cts:
            raise ValueError("nothing to stack")
        first = cts[0]
        for ct in cts:
            if ct.stack_size is not None:
                raise ValueError("cannot stack a stack")
            if ct.params != first.params:
                raise ValueError("stacked ciphertexts differ in parameters")
            if (ct.level, ct.size) != (first.level, first.size):
                raise ValueError("stacked ciphertexts differ in level or size")
            if ct.scale != first.scale:
                raise ValueError("stacked ciphertexts differ in scale")
        parts = [
            RNSPoly(part.ctx, np.stack(
                [ct.parts[k].to_coeff().data for ct in cts], axis=1),
                part.primes, False)
            for k, part in enumerate(first.parts)]
        return cls(parts, first.scale, first.params)

    def unstack(self) -> List["Ciphertext"]:
        """The ciphertexts of a :meth:`stack`, split along its stack axis."""
        if self.stack_size is None:
            raise ValueError("not a stack of ciphertexts")
        return [
            Ciphertext([RNSPoly(p.ctx, np.ascontiguousarray(p.data[:, b]),
                                p.primes, p.ntt_form) for p in self.parts],
                       self.scale, self.params)
            for b in range(self.stack_size)]

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

    @property
    def public_key(self) -> Optional[PublicKey]:
        return self._public_key

    @public_key.setter
    def public_key(self, key: Optional[PublicKey]) -> None:
        # Both halves in NTT form, one (C, 2, n) batch per key object.
        self._public_key = key
        self._pk_ntt = None if key is None else NTTPublicKey(key.b, key.a)

    # ------------------------------------------------------------------ #

    def encode(self, values, level: int = None, scale: float = None) -> Plaintext:
        """Encode complex slot values at the given level (default: fresh)
        and scale (default: the encoder's)."""
        if level is None:
            level = self.params.num_levels
        if scale is None:
            scale = self.encoder.scale
        coeffs = self.encoder.encode(values, scale)
        primes = self.params.primes_at_level(level)
        poly = self.ring.from_ints(coeffs, primes=primes)
        return Plaintext(poly, float(scale))

    def encrypt(self, plaintext: Plaintext) -> Ciphertext:
        """Public-key encryption (falls back to symmetric if no pk)."""
        if self._pk_ntt is None:
            return self.encrypt_symmetric(plaintext)
        parts = self._pk_ntt.encrypt(plaintext.poly, self.rng,
                                     self.params.error_std)
        return Ciphertext(parts, plaintext.scale, self.params)

    def encrypt_symmetric(self, plaintext: Plaintext) -> Ciphertext:
        if self.secret_key is None:
            raise ValueError("symmetric encryption requires the secret key")
        params = self.params
        primes = plaintext.poly.primes
        s = self.secret_key.s.restrict(primes)
        seed_meta = None
        if self._expander is not None:
            stream = seedexp.ciphertext_stream("ckks", self._mask_nonce)
            self._mask_nonce += 1
            a = self._expander.uniform_rns(self.ring, primes, stream)
            seed_meta = (self.expand_seed, stream)
        else:
            a = self.ring.sample_uniform(self.rng, primes=primes)
        e = self.ring.sample_error(self.rng, primes=primes, sigma=params.error_std)
        c0 = rlwe_b(a, s, e) + plaintext.poly
        return Ciphertext([c0, a], plaintext.scale, params,
                          seed_meta=seed_meta)

    def encrypt_values(self, values, level: int = None) -> Ciphertext:
        """Encode + encrypt in one call."""
        return self.encrypt(self.encode(values, level=level))


class CKKSDecryptor:
    """Decrypts and decodes ciphertexts with the secret key."""

    def __init__(
        self, params: CKKSParams, encoder: CKKSEncoder, secret_key: SecretKey
    ):
        self.params = params
        self.encoder = encoder
        self.secret_key = secret_key

    @property
    def secret_key(self) -> SecretKey:
        return self._secret_key

    @secret_key.setter
    def secret_key(self, key: SecretKey) -> None:
        # s over the base chain in NTT form, once per key object.
        self._secret_key = key
        self._s_ntt = key.s.restrict(self.params.base_primes).to_ntt()

    def decrypt_poly(self, ct: Ciphertext) -> RNSPoly:
        """Raw decryption: ``sum_k c_k * s**k`` over the active chain."""
        require_single(ct)
        return phase(ct.parts, self._s_ntt)

    def decrypt(self, ct: Ciphertext) -> np.ndarray:
        """Decrypt to complex slot values."""
        message = self.decrypt_poly(ct)
        coeffs = message.to_centered_bigints()
        return self.encoder.decode_bigints(coeffs, scale=ct.scale)
