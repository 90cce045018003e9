"""BFV keys, encryption and the homomorphic evaluator.

BFV carries the message in the *high* bits (``Delta * m`` with
``Delta = floor(Q/t)``), so additions are exact, multiplication requires
the ``round(t/Q * tensor)`` scaling, and there is no rescaling/level
mechanism: noise grows until decryption fails, which the noise-budget API
makes observable.

Multiplication forms the tensor in RNS form, as the modelled
``bfv_cmult_program`` does: the operands' centred values are lifted
exactly from ``Q`` to the extended basis ``Q∪B`` (``params.aux_primes``),
one batched NTT call transforms all four, and one inverse call returns
the three tensor polynomials.  ``Q·B`` exceeds twice the largest tensor
coefficient, so the centred value over ``Q∪B`` is the exact integer
tensor of the textbook definition.  The lift, the ``round(t/Q * .)`` of
that tensor and decryption's ``round(t/Q * phase)`` are all exact and run
in uint64 on mixed-radix digits (:func:`~repro.rns.basis.scale_round`),
so no request step leaves RNS form for Python integers; RNS variants like
BEHZ/HPS approximate the rounding instead.

The RLWE steps shared with CKKS (keys, encryption, the decryption phase,
the tensor, the part arithmetic) live in :mod:`repro.rns.rlwe`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro import seedexp
from repro.bfv.encoder import BFVEncoder
from repro.bfv.params import BFVParams
from repro.kernels import get_backend
from repro.ntmath.modular import to_mod_array
from repro.rns.basis import scale_round
from repro.rns.keyswitch import SwitchingKey, hybrid_keyswitch
from repro.rns.rlwe import (NTTPublicKey, RLWEKeyGenerator, add_parts,
                            coeff_batch, phase, plain_mul, require_params,
                            tensor, unstack)
from repro.rns.rns_poly import RNSPoly, RNSRing


@dataclass
class BFVSecretKey:
    params: BFVParams
    s: RNSPoly


@dataclass
class BFVPublicKey:
    params: BFVParams
    b: RNSPoly
    a: RNSPoly
    expand_seed: int = None


@dataclass
class BFVRelinKey:
    params: BFVParams
    key: SwitchingKey
    expand_seed: int = None


@dataclass
class BFVGaloisKeys:
    params: BFVParams
    keys: dict  # galois element -> SwitchingKey
    expand_seed: int = None


class BFVCiphertext:
    """A BFV ciphertext: 2 (or 3, pre-relinearization) RNS polynomials."""

    def __init__(self, parts: List[RNSPoly], params: BFVParams):
        if len(parts) < 2:
            raise ValueError("a ciphertext needs at least 2 polynomials")
        self.parts = parts
        self.params = params

    @property
    def size(self) -> int:
        return len(self.parts)

    def copy(self) -> "BFVCiphertext":
        return BFVCiphertext([p.copy() for p in self.parts], self.params)


def _plain_rns(ring: RNSRing, params: BFVParams, plain_poly) -> RNSPoly:
    """Plaintext coefficients, any integers, mod ``t`` over the ciphertext
    primes."""
    coeffs = to_mod_array(plain_poly, params.plain_modulus).astype(np.int64)
    return ring.from_ints(coeffs, primes=params.ct_primes)


class BFVKeyGenerator(RLWEKeyGenerator):
    """Generates BFV key material over the ciphertext primes, under the
    ``"bfv"`` stream names (single-level keys: stream level 0)."""

    def secret_key(self) -> BFVSecretKey:
        return BFVSecretKey(self.params, self._secret.copy())

    def public_key(self) -> BFVPublicKey:
        b, a = self._public_pair(self.params.ct_primes,
                                 seedexp.pk_stream("bfv"))
        return BFVPublicKey(self.params, b, a, expand_seed=self.expand_seed)

    def relin_key(self) -> BFVRelinKey:
        key = self._switching_key(
            self._squared_secret(), self.params.ct_primes,
            self.params.digits(), seedexp.relin_stream("bfv", 0))
        return BFVRelinKey(self.params, key, expand_seed=self.expand_seed)

    def galois_keys(self, elements) -> BFVGaloisKeys:
        """Keys for the given Galois elements (odd), each reduced mod
        ``2n`` before it names its key and seed stream."""
        keys = {}
        for g in elements:
            g = int(g) % (2 * self.params.n)
            keys[g] = self._switching_key(
                self._galois_secret(g), self.params.ct_primes,
                self.params.digits(), seedexp.galois_stream("bfv", g, 0))
        return BFVGaloisKeys(self.params, keys, expand_seed=self.expand_seed)


class BFVEncryptor:
    """Encrypts encoded plaintext polynomials."""

    def __init__(
        self,
        params: BFVParams,
        rng: np.random.Generator,
        public_key: BFVPublicKey,
        encoder: BFVEncoder = None,
    ):
        self.params = params
        self.rng = rng
        self.public_key = public_key
        self.encoder = encoder
        self.ring = RNSRing(params.n, params.all_primes)

    @property
    def public_key(self) -> BFVPublicKey:
        return self._public_key

    @public_key.setter
    def public_key(self, key: BFVPublicKey) -> None:
        # Both halves in NTT form, one (C, 2, n) batch per key object.
        self._public_key = key
        self._pk_ntt = NTTPublicKey(key.b, key.a)

    def encrypt_poly(self, plain_poly) -> BFVCiphertext:
        """Encrypt a plaintext polynomial (coefficients mod t)."""
        params = self.params
        delta_m = _plain_rns(self.ring, params, plain_poly).mul_scalar(
            params.delta)
        return BFVCiphertext(
            self._pk_ntt.encrypt(delta_m, self.rng, params.error_std), params)

    def encrypt_values(self, values) -> BFVCiphertext:
        """Batch-encode and encrypt an integer vector."""
        if self.encoder is None:
            raise ValueError("no encoder configured")
        return self.encrypt_poly(self.encoder.encode(values))


class BFVDecryptor:
    """Decrypts (and reports the remaining noise budget)."""

    def __init__(
        self,
        params: BFVParams,
        secret_key: BFVSecretKey,
        encoder: BFVEncoder = None,
    ):
        self.params = params
        self.secret_key = secret_key
        self.encoder = encoder

    @property
    def secret_key(self) -> BFVSecretKey:
        return self._secret_key

    @secret_key.setter
    def secret_key(self, key: BFVSecretKey) -> None:
        # s over the ciphertext primes in NTT form, once per key object.
        self._secret_key = key
        self._s_ntt = key.s.restrict(self.params.ct_primes).to_ntt()

    def decrypt_poly(self, ct: BFVCiphertext) -> np.ndarray:
        """Recover the plaintext polynomial: ``round(t * phase / Q) mod t``,
        rounded exactly in uint64 by :func:`~repro.rns.basis.scale_round`."""
        t = self.params.plain_modulus
        ph = phase(ct.parts, self._s_ntt)
        return scale_round(ph.data, ph.primes, (t,), t=t, s=len(ph.primes))[0]

    def decrypt_values(self, ct: BFVCiphertext) -> np.ndarray:
        if self.encoder is None:
            raise ValueError("no encoder configured")
        return self.encoder.decode(self.decrypt_poly(ct))

    def noise_budget_bits(self, ct: BFVCiphertext) -> float:
        """Remaining noise budget: ``log2(Q/t) - log2(|v|) - 1`` bits.

        The phase is ``Delta*m + v (mod Q)``; decryption rounds correctly
        while ``|v| < Delta/2``, i.e. while the budget is positive.  ``m``
        comes from :meth:`decrypt_poly`; ``|v|`` is taken over big ints.
        """
        params = self.params
        q, t = params.q_product, params.plain_modulus
        plain = self.decrypt_poly(ct).tolist()
        worst = 1
        for c, m in zip(phase(ct.parts, self._s_ntt).to_centered_bigints(),
                        plain):
            v = (c - params.delta * m) % q
            if v > q // 2:
                v -= q
            worst = max(worst, abs(v))
        budget = (q // t).bit_length() - 1 - worst.bit_length()
        return float(max(0, budget))


class BFVEvaluator:
    """Homomorphic operations on BFV ciphertexts."""

    def __init__(
        self,
        params: BFVParams,
        relin_key: BFVRelinKey = None,
        galois_keys: BFVGaloisKeys = None,
    ):
        self.params = params
        self.relin_key = relin_key
        self.galois_keys = galois_keys
        self.ring = RNSRing(params.n, params.all_primes)
        #: When set to a list, every evaluation-key touch is appended as
        #: its canonical name ("relin") — ground truth for the static key
        #: analysis (tests/integration/test_keys_differential.py).
        self.key_trace = None

    # ------------------------------ linear ops ------------------------- #

    def add(self, a: BFVCiphertext, b: BFVCiphertext) -> BFVCiphertext:
        return BFVCiphertext(add_parts(a.parts, b.parts), self.params)

    def sub(self, a: BFVCiphertext, b: BFVCiphertext) -> BFVCiphertext:
        return self.add(a, self.negate(b))

    def negate(self, ct: BFVCiphertext) -> BFVCiphertext:
        return BFVCiphertext([-p for p in ct.parts], self.params)

    def add_plain_poly(self, ct: BFVCiphertext, plain_poly) -> BFVCiphertext:
        delta_m = _plain_rns(self.ring, self.params, plain_poly).mul_scalar(
            self.params.delta)
        return BFVCiphertext(add_parts(ct.parts, [delta_m]), self.params)

    def mul_plain_poly(self, ct: BFVCiphertext, plain_poly) -> BFVCiphertext:
        """Multiply by a plaintext polynomial (no Delta scaling needed)."""
        plain = _plain_rns(self.ring, self.params, plain_poly)
        return BFVCiphertext(plain_mul(ct.parts, plain), self.params)

    # ------------------------------ multiplication --------------------- #

    def multiply(
        self, a: BFVCiphertext, b: BFVCiphertext, relin: bool = True
    ) -> BFVCiphertext:
        """Tensor product with exact ``round(t/Q * .)`` scaling.

        :func:`~repro.rns.basis.scale_round` lifts the four operand
        polynomials exactly, as their centred values, from ``Q`` to ``B``
        (``params.aux_primes``), and the shared
        :func:`~repro.rns.rlwe.tensor` forms ``d0 = a0*b0``,
        ``d1 = a0*b1 + a1*b0`` and ``d2 = a1*b1`` over ``Q∪B`` with one
        forward NTT call, and one inverse call takes them back.
        ``|d_k| <= n(Q-1)^2/2 < Q*B/2``, so the centred value over ``Q∪B``
        is the exact integer tensor; ``scale_round`` then scales it by
        ``t/Q`` with exact rounding onto ``Q``.  Both steps stay in
        uint64.
        """
        require_params(self.params, a, b)
        if a.size != 2 or b.size != 2:
            raise ValueError("multiply expects size-2 inputs")
        params = self.params
        chain, aux = params.ct_primes, params.aux_primes
        basis = chain + aux
        # a0, a1, b0, b1 as one (C, 4, n) batch over Q, then over Q∪B
        coeffs = coeff_batch(a.parts + b.parts)
        d = tensor(np.concatenate([coeffs, scale_round(coeffs, chain, aux)]),
                   basis)
        residues = scale_round(get_backend().ntt_inverse(d, basis), basis,
                               chain, t=params.plain_modulus, s=len(chain))
        ct = BFVCiphertext(unstack(self.ring, residues, chain), params)
        if relin:
            ct = self.relinearize(ct)
        return ct

    def relinearize(self, ct: BFVCiphertext) -> BFVCiphertext:
        require_params(self.params, ct)
        if ct.size == 2:
            return ct.copy()
        if ct.size != 3:
            raise ValueError("relinearize supports size-3 ciphertexts")
        if self.relin_key is None:
            raise ValueError("no relinearization key available")
        if self.key_trace is not None:
            self.key_trace.append("relin")
        k0, k1 = hybrid_keyswitch(
            self.ring, ct.parts[2], self.params.digits(),
            self.params.special_primes, self.relin_key.key,
        )
        return BFVCiphertext(
            [ct.parts[0] + k0, ct.parts[1] + k1], self.params)

    # ------------------------------ rotations -------------------------- #

    def apply_galois(self, ct: BFVCiphertext, g: int) -> BFVCiphertext:
        """The Galois map ``X -> X^g``, with ``g`` taken mod ``2n``."""
        require_params(self.params, ct)
        g = int(g) % (2 * self.params.n)
        if self.galois_keys is None or g not in self.galois_keys.keys:
            raise ValueError(f"no Galois key for element {g}")
        if ct.size != 2:
            raise ValueError("relinearize before applying Galois maps")
        c0 = ct.parts[0].to_coeff().automorphism(g)
        c1 = ct.parts[1].to_coeff().automorphism(g)
        k0, k1 = hybrid_keyswitch(
            self.ring, c1, self.params.digits(),
            self.params.special_primes, self.galois_keys.keys[g],
        )
        return BFVCiphertext([c0 + k0, k1], self.params)
