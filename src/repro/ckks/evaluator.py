"""CKKS homomorphic evaluator.

Implements the operator set the paper benchmarks in Table 7 — Hadd (add),
Pmult (mul_plain), Cmult (multiply + relinearize + rescale), Keyswitch, and
Rotation — on top of the RNS substrate: digit decomposition (DecompPolyMult),
Modup/Moddown (Bconv) and per-channel NTTs, i.e. exactly the high-level
operators Alchemist lowers onto Meta-OPs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.ckks.encoder import CKKSEncoder
from repro.ckks.encryptor import Ciphertext, Plaintext
from repro.ckks.keys import GaloisKey, RelinKey
from repro.ckks.params import CKKSParams
from repro.kernels import get_backend
from repro.rns.keyswitch import (SwitchingKey, hybrid_keyswitch, lift,
                                 mod_down, raise_digits, switch_raised)
from repro.rns.rlwe import (add_parts, coeff_batch, ntt_batch, plain_mul,
                            require_params, require_single, tensor, unstack)
from repro.rns.rns_poly import RNSPoly, RNSRing

#: Relative tolerance when requiring operand scales to match.
_SCALE_RTOL = 1e-6


class CKKSEvaluator:
    """Stateless evaluator over a fixed parameter set and key material.

    ``add``, ``sub``, ``negate``, ``add_plain``, ``mul_plain``,
    ``mul_scalar_int``, ``multiply``, ``square``, ``relinearize``,
    ``rescale`` and ``mod_switch_to`` take a :meth:`Ciphertext.stack
    <repro.ckks.encryptor.Ciphertext.stack>` through the same code as one
    ciphertext, with one set of kernel calls for the whole stack; the
    Galois maps and ``mul_by_i`` raise :class:`ValueError` on one.
    """

    def __init__(
        self,
        params: CKKSParams,
        encoder: CKKSEncoder,
        relin_key: RelinKey = None,
        galois_key: GaloisKey = None,
    ):
        self.params = params
        self.encoder = encoder
        self.relin_key = relin_key
        self.galois_key = galois_key
        self.ring = RNSRing(params.n, params.all_primes)
        #: When set to a list, every evaluation-key touch is appended as
        #: its canonical name ("relin", "rot:<step>", "conj") — the
        #: ground truth the static key analysis is differentially tested
        #: against (tests/integration/test_keys_differential.py).
        self.key_trace: Optional[List[str]] = None

    def _trace_key(self, name: str) -> None:
        if self.key_trace is not None:
            self.key_trace.append(name)

    # ------------------------------ level/scale ------------------------ #

    def mod_switch_to(self, ct: Ciphertext, level: int) -> Ciphertext:
        """Drop chain primes without division (level must not increase)."""
        if level > ct.level:
            raise ValueError("cannot mod-switch to a higher level")
        if level == ct.level:
            return ct.copy()
        drop = ct.level - level
        parts = [p.drop_last(drop) for p in ct.parts]
        return Ciphertext(parts, ct.scale, ct.params)

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Divide by the last chain prime; consumes one level."""
        if ct.level == 0:
            raise ValueError("no levels left to rescale")
        dropped = ct.primes[-1]
        parts = [p.rescale() for p in ct.parts]
        return Ciphertext(parts, ct.scale / dropped, ct.params)

    def _match_levels(
        self, a: Ciphertext, b: Ciphertext
    ) -> Tuple[Ciphertext, Ciphertext]:
        if a.stack_size != b.stack_size:
            raise ValueError("operands are stacks of different sizes")
        level = min(a.level, b.level)
        return self.mod_switch_to(a, level), self.mod_switch_to(b, level)

    def _match(self, a: Ciphertext, b: Ciphertext) -> Tuple[Ciphertext, Ciphertext]:
        a, b = self._match_levels(a, b)
        if abs(a.scale - b.scale) > _SCALE_RTOL * max(a.scale, b.scale):
            raise ValueError(
                f"scale mismatch: 2^{np.log2(a.scale):.6f} vs "
                f"2^{np.log2(b.scale):.6f} — rescale first"
            )
        return a, b

    # ------------------------------ add/sub ---------------------------- #

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Hadd: homomorphic addition."""
        a, b = self._match(a, b)
        return Ciphertext(add_parts(a.parts, b.parts), a.scale, a.params)

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return self.add(a, self.negate(b))

    def negate(self, ct: Ciphertext) -> Ciphertext:
        return Ciphertext([-p for p in ct.parts], ct.scale, ct.params)

    def mul_by_i(self, ct: Ciphertext) -> Ciphertext:
        """Multiply every slot by ``i``: every part times ``X^(n/2)``.

        Slot ``k`` evaluates at ``zeta^(5^k)`` and every ``5^k`` is 1 mod
        4, so ``X^(n/2)`` is ``i`` there.  Coefficient ``j`` moves to
        ``j + n/2`` and the wrapped half is negated (one ``negate`` call per
        part): exact, with level and scale unchanged.  NTT-form parts are
        taken to coefficient form first.
        """
        require_single(ct)
        half = self.params.n // 2
        backend = get_backend()
        parts = []
        for part in ct.parts:
            data = part.to_coeff().data
            parts.append(RNSPoly(part.ctx, np.concatenate(
                [backend.negate(data[:, half:], part.primes), data[:, :half]],
                axis=1), part.primes, False))
        return Ciphertext(parts, ct.scale, ct.params)

    # ------------------------------ plaintext ops ---------------------- #

    def _encode_at(self, values, ct: Ciphertext, scale: float = None) -> Plaintext:
        """``values`` encoded over ``ct``'s basis; for a stack, one
        ``(C, 1, n)`` plaintext that broadcasts over it."""
        scale = self.params.scale if scale is None else scale
        coeffs = self.encoder.encode(values, scale)
        poly = self.ring.from_ints(coeffs, primes=ct.primes)
        if ct.stack_size is not None:
            poly = RNSPoly(self.ring, poly.data[:, None], poly.primes, False)
        return Plaintext(poly, scale)

    def add_plain(self, ct: Ciphertext, values) -> Ciphertext:
        """Add unencrypted values (encoded at the ciphertext's own scale)."""
        pt = self._encode_at(values, ct, scale=ct.scale)
        return Ciphertext(add_parts(ct.parts, [pt.poly]), ct.scale, ct.params)

    def mul_plain(self, ct: Ciphertext, values, scale: float = None) -> Ciphertext:
        """Pmult: multiply by unencrypted values (scales multiply)."""
        pt = self._encode_at(values, ct, scale=scale)
        return self.mul_plaintext(ct, pt)

    def mul_plaintext(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        return Ciphertext(plain_mul(ct.parts, pt.poly),
                          ct.scale * pt.scale, ct.params)

    def mul_scalar_int(self, ct: Ciphertext, c: int) -> Ciphertext:
        """Exact small-integer multiply (no scale change, no level cost)."""
        return Ciphertext(
            [p.mul_scalar(c) for p in ct.parts], ct.scale, ct.params
        )

    # ------------------------------ multiplication --------------------- #

    def multiply(
        self, a: Ciphertext, b: Ciphertext, relin: bool = True
    ) -> Ciphertext:
        """Cmult: tensor product (+ relinearization).  Call :meth:`rescale`
        afterwards to bring the scale back down (consumes a level).  Operand
        scales need not match — the product scale is tracked exactly."""
        require_params(self.params, a, b)
        a, b = self._match_levels(a, b)
        if a.size != 2 or b.size != 2:
            raise ValueError("multiply expects relinearized (size-2) inputs")
        return self._tensor(a, a.parts + b.parts, a.scale * b.scale, relin)

    def square(self, ct: Ciphertext, relin: bool = True) -> Ciphertext:
        """``multiply(ct, ct)`` bit for bit, from two forward-transformed
        parts and three products (:func:`~repro.rns.rlwe.tensor`)."""
        require_params(self.params, ct)
        if ct.size != 2:
            raise ValueError("square expects a relinearized (size-2) input")
        return self._tensor(ct, ct.parts, ct.scale * ct.scale, relin)

    def _tensor(self, ct: Ciphertext, parts: List[RNSPoly], scale: float,
                relin: bool) -> Ciphertext:
        """The tensor of ``parts``; relinearized, it stays in NTT form
        until :meth:`relinearize` goes down, else one inverse NTT call
        gives its three parts in coefficient form."""
        primes = ct.primes
        d = tensor(coeff_batch(parts), primes)
        if relin:
            return self.relinearize(Ciphertext(
                unstack(self.ring, d, primes, ntt_form=True), scale,
                ct.params))
        return Ciphertext(
            unstack(self.ring, get_backend().ntt_inverse(d, primes), primes),
            scale, ct.params)

    def relinearize(self, ct: Ciphertext) -> Ciphertext:
        """Reduce a size-3 ciphertext to size 2 using the relin key.

        ``d2`` is raised and switched by the keyswitch building blocks of
        :mod:`repro.rns.keyswitch`, and ``P·(d0, d1)`` (``lift``) is added
        to the switched pair over ``Q·P`` before its one Moddown.  That is
        ``(d0 + k0, d1 + k1)`` bit for bit, because ``ModDown(P·x + y) =
        x + ModDown(y)``.  The parts may be in either form.
        :meth:`multiply` and :meth:`square` hand over the tensor in NTT
        form, so only ``d2`` is inverse-transformed; coefficient-form
        ``(d0, d1)`` take one forward call.  The result is in coefficient
        form.
        """
        require_params(self.params, ct)
        if ct.size == 2:
            return ct.copy()
        if ct.size != 3:
            raise ValueError("relinearize supports size-3 ciphertexts")
        if self.relin_key is None:
            raise ValueError("no relinearization key available")
        key = self.relin_key.levels.get(ct.level)
        if key is None:
            raise ValueError(f"no relinearization key at level {ct.level}")
        self._trace_key("relin")
        primes, special = ct.primes, self.params.special_primes
        extended = primes + special
        switched = switch_raised(
            raise_digits(ct.parts[2].to_coeff(),
                         self.params.digits_at_level(ct.level), special),
            key.key)
        switched = get_backend().pointwise_add(
            switched, lift(ntt_batch(ct.parts[:2]), primes, special),
            extended)
        return Ciphertext(
            unstack(self.ring, mod_down(switched, extended, len(special)),
                    primes),
            ct.scale, ct.params)

    def multiply_rescale(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return self.rescale(self.multiply(a, b))

    # ------------------------------ rotations -------------------------- #

    def _require_galois_keys(self) -> GaloisKey:
        if self.galois_key is None:
            raise ValueError("no Galois keys available")
        return self.galois_key

    def rotate(self, ct: Ciphertext, steps: int) -> Ciphertext:
        """Rotate slots left by ``steps`` (Galois automorphism + keyswitch)."""
        g, _ = self.rotation_key(ct, steps)
        return self.apply_galois(ct, g)

    def conjugate(self, ct: Ciphertext) -> Ciphertext:
        """Complex-conjugate every slot (Galois element 2n-1)."""
        conj = self.apply_galois(ct, 2 * self.params.n - 1)
        self._trace_key("conj")
        return conj

    def _galois_switching_key(self, ct: Ciphertext, g: int) -> SwitchingKey:
        """The key that switches ``ct`` (size 2, these params) after the
        Galois map ``g``, at its level; a missing key raises ValueError."""
        galois_key = self._require_galois_keys()
        require_params(self.params, ct)
        require_single(ct)
        if ct.size != 2:
            raise ValueError("relinearize before applying Galois maps")
        key = galois_key.keys.get((g, ct.level))
        if key is None:
            raise ValueError(f"no Galois key for element {g} at level {ct.level}")
        return key.key

    def rotation_key(self, ct: Ciphertext, steps: int) -> Tuple[int, SwitchingKey]:
        """``(g, key)`` of a rotation of ``ct`` by ``steps``, traced as one
        ``rot:<steps>`` touch once the key is found: :meth:`rotate` and the
        hoisted rotations of :mod:`repro.ckks.linear`, which permute raised
        digits instead of calling :meth:`apply_galois`, both start here."""
        g = pow(5, steps % self.params.slots, 2 * self.params.n)
        key = self._galois_switching_key(ct, g)
        self._trace_key(f"rot:{steps}")
        return g, key

    def apply_galois(self, ct: Ciphertext, g: int) -> Ciphertext:
        """The Galois map ``X -> X^g``, with ``g`` taken mod ``2n``, as the
        key generator files its keys."""
        g = int(g) % (2 * self.params.n)
        key = self._galois_switching_key(ct, g)
        c0 = ct.parts[0].to_coeff().automorphism(g)
        c1 = ct.parts[1].to_coeff().automorphism(g)
        k0, k1 = hybrid_keyswitch(
            self.ring, c1, self.params.digits_at_level(ct.level),
            self.params.special_primes, key)
        return Ciphertext([c0 + k0, k1], ct.scale, ct.params)

    def rotate_batch_hoisted(self, ct: Ciphertext, steps) -> dict:
        """Several rotations of one ciphertext with a shared Modup.

        This is Modup *hoisting* (the BSP-L=n+ variant of Figure 1), by the
        code of the slot transforms' baby steps
        (:class:`repro.ckks.linear.BabySteps`): the digits of ``c1`` are
        raised to ``Q*P`` and forward-transformed once; each rotation then
        permutes them in the NTT domain (``automorphism_ntt``) and takes
        one ``mac`` against its own Galois key, which gives ``P·rot(ct,
        step)`` over ``Q*P``.  The rotations go down together: one inverse
        NTT and one Moddown of their ``(C_ext, S, 2, n)`` stack, after
        every key was found, which equals one call per rotation bit for bit
        (both work row by row and coefficient by coefficient).  Returns
        ``{step: rotated ciphertext}`` in coefficient form, bit for bit what
        a Moddown of the switched pair plus the permuted ``c0`` gives
        (``ModDown(P·x + y) = x + ModDown(y)``).

        Not bit-identical to :meth:`rotate`: the Galois automorphism
        commutes with the digit decomposition exactly, but with Bconv only
        up to a multiple of the digit modulus (the Bconv of a negated
        coefficient differs from the negated Bconv by one).  A permuted
        raising is a valid raising of the rotated polynomial, not bit for
        bit the one that raising the rotated polynomial computes.
        """
        from repro.ckks.linear import BabySteps

        require_single(ct)
        babies = BabySteps(self, ct)
        steps = list(dict.fromkeys(steps))
        if not steps:
            return {}
        down = mod_down(np.stack([babies(step) for step in steps], axis=1),
                        babies.extended, len(babies.special))
        return {step: Ciphertext(unstack(self.ring, down[:, s], ct.primes),
                                 ct.scale, ct.params)
                for s, step in enumerate(steps)}
