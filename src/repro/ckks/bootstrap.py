"""Functional CKKS bootstrapping: ModRaise → CoeffToSlot → EvalMod → SlotToCoeff.

A real, decryption-correct implementation of the pipeline whose *cost* the
performance benchmarks model at paper scale (N = 2^16, L = 44).  It runs at
reduced parameters (N ≤ 2^9-ish) where pure Python is practical:

1. **ModRaise** — reinterpret the level-0 residues over the full chain.
   The phase becomes ``m + q0 * I(X)`` with ``|I| <= (h+1)/2 + 1`` for a
   Hamming-weight-``h`` secret.
2. **CoeffToSlot** — two conjugate-aware linear transforms move the
   polynomial *coefficients* (divided by ``q0``) into the slots of two
   ciphertexts (the coefficient count ``n`` is twice the slot count).
3. **EvalMod** — approximates ``t mod 1`` (as ``(1/2pi) sin(2 pi t)``,
   linearized) via a Taylor cosine base on a shrunk interval followed by
   ``r`` double-angle squarings: ``cos(2 pi (t - 1/4)) = sin(2 pi t)``.
4. **SlotToCoeff** — the inverse transforms (with the ``q0 / 2 pi`` factor
   folded into the matrix constants) reassemble a fresh high-level
   ciphertext encrypting the original slots.
"""

from __future__ import annotations

import numpy as np

from repro.ckks.encoder import CKKSEncoder
from repro.ckks.encryptor import Ciphertext
from repro.ckks.evaluator import CKKSEvaluator
from repro.ckks.linear import BabySteps, SlotLinearTransform
from repro.ckks.params import CKKSParams
from repro.ckks.poly_eval import double_angle, even_poly_eval


class CKKSBootstrapper:
    """Bootstrapping context bound to one parameter set and evaluator.

    Parameters
    ----------
    r:
        Double-angle iterations; the Taylor base works on the interval
        shrunk by ``2**r``.
    taylor_terms:
        Even Taylor terms of the cosine base (degree ``2*(taylor_terms-1)``).
    """

    #: Levels consumed: CtS (1) + square (1) + Horner (taylor_terms - 2)
    #: + r double angles + StC (1).
    def __init__(
        self,
        params: CKKSParams,
        encoder: CKKSEncoder,
        evaluator: CKKSEvaluator,
        r: int = 7,
        taylor_terms: int = 5,
    ):
        self.params = params
        self.encoder = encoder
        self.evaluator = evaluator
        self.r = r
        self.taylor_terms = taylor_terms
        self.q0 = params.base_primes[0]
        n = params.n
        slots = params.slots
        # embedding matrix E[k, j] = zeta^(j * 5^k), zeta = exp(i pi / n)
        rot = np.array([pow(5, k, 2 * n) for k in range(slots)])
        j = np.arange(n)
        e_matrix = np.exp(1j * np.pi * rot[:, None] * j[None, :] / n)
        # CoeffToSlot: t = c / q0 = (Delta / (n q0)) (E^H z + conj(E^H z));
        # each (head, tail) half is a pair (A, conj(A)) for A z + conj(A z)
        a_full = (params.scale / (n * self.q0)) * e_matrix.conj().T
        self.cts = tuple(
            (SlotLinearTransform(a), SlotLinearTransform(np.conj(a)))
            for a in (a_full[:slots, :], a_full[slots:, :])
        )
        # SlotToCoeff: z = (q0 / (2 pi Delta)) E m
        m_full = (self.q0 / (2 * np.pi * params.scale)) * e_matrix
        self.stc = (SlotLinearTransform(m_full[:, :slots]),
                    SlotLinearTransform(m_full[:, slots:]))

        required = self.levels_consumed()
        if params.num_levels < required + 1:
            raise ValueError(
                f"bootstrapping needs at least {required + 1} levels, "
                f"params have {params.num_levels}"
            )

    def levels_consumed(self) -> int:
        # CtS + square + Horner (pmult + taylor_terms-2 ct-mults) + doubles
        # + StC
        return 1 + 1 + (self.taylor_terms - 1) + self.r + 1

    def required_rotations(self) -> set:
        """Rotation steps for which Galois keys must exist."""
        transforms = [lt for pair in self.cts for lt in pair] + list(self.stc)
        return set().union(*(lt.required_rotations() for lt in transforms))

    # ------------------------------------------------------------------ #

    def mod_raise(self, ct: Ciphertext) -> Ciphertext:
        """Reinterpret a level-0 ciphertext over the full chain."""
        if ct.level != 0:
            ct = self.evaluator.mod_switch_to(ct, 0)
        full = tuple(self.params.base_primes)
        parts = []
        for part in ct.parts:
            coeff = part.to_coeff()
            # Level 0 has a single channel mod q0 < 2**42, so the centered
            # lift fits int64 and re-reduction over the full chain is one
            # broadcast — no per-coefficient bigint round trip.
            (q0,) = coeff.primes
            centered = coeff.data[0].astype(np.int64)
            centered[centered > q0 // 2] -= np.int64(q0)
            parts.append(self.evaluator.ring.from_ints(centered, primes=full))
        return Ciphertext(parts, ct.scale, ct.params)

    def coeff_to_slot(self, raised: Ciphertext):
        """Two ciphertexts whose slots hold ``c_j / q0`` (head/tail half).

        Both halves read one conjugate of ``raised`` and one set of baby
        rotations of ``raised`` and of that conjugate.
        """
        ev = self.evaluator
        direct = BabySteps(ev, raised)
        conj = BabySteps(ev, ev.conjugate(raised))
        return tuple(ev.add(lt_a.apply(ev, direct), lt_b.apply(ev, conj))
                     for lt_a, lt_b in self.cts)

    def eval_mod(self, ct: Ciphertext) -> Ciphertext:
        """``sin(2 pi t)`` on the slots, via cosine + double angles."""
        ev = self.evaluator
        slots = self.params.slots
        # theta = (2 pi / 2^r) (t - 1/4); cosine Taylor base in theta^2
        shifted = ev.add_plain(ct, np.full(slots, -0.25))
        a = 2.0 * np.pi / (1 << self.r)
        coeffs = []
        fact = 1.0
        for k in range(self.taylor_terms):
            if k > 0:
                fact *= (2 * k - 1) * (2 * k)
            coeffs.append(((-1) ** k) * (a ** (2 * k)) / fact)
        acc = even_poly_eval(ev, shifted, coeffs)
        for _ in range(self.r):
            acc = double_angle(ev, acc)
        return acc

    def slot_to_coeff(self, head: Ciphertext, tail: Ciphertext) -> Ciphertext:
        """Reassemble the output ciphertext from the two halves.

        The matrix constants were built so the decoded output equals the
        original slot values under the *tracked* scale — no manual scale
        fixups are needed.
        """
        ev = self.evaluator
        lt_head, lt_tail = self.stc
        return ev.add(lt_head.apply(ev, head), lt_tail.apply(ev, tail))

    # ------------------------------------------------------------------ #

    def bootstrap(self, ct: Ciphertext) -> Ciphertext:
        """Refresh an exhausted (level-0) ciphertext to a high level."""
        if abs(ct.scale - self.params.scale) > 1e-6 * self.params.scale:
            raise ValueError(
                "bootstrap expects the ciphertext at the nominal scale")
        raised = self.mod_raise(ct)
        head, tail = self.coeff_to_slot(raised)
        head = self.eval_mod(head)
        tail = self.eval_mod(tail)
        return self.slot_to_coeff(head, tail)
