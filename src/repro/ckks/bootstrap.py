"""Functional CKKS bootstrapping: ModRaise → CoeffToSlot → EvalMod → SlotToCoeff.

A real, decryption-correct implementation of the pipeline whose *cost* the
performance benchmarks model at paper scale (N = 2^16, L = 44).  It runs at
reduced parameters (N ≤ 2^9-ish) where pure Python is practical:

1. **ModRaise** — reinterpret the level-0 residues over the full chain.
   The phase becomes ``m + q0 * I(X)`` with ``|I| <= (h+1)/2 + 1`` for a
   Hamming-weight-``h`` secret.
2. **CoeffToSlot** — move the polynomial *coefficients* (divided by
   ``q0``) into the slots of two ciphertexts, a head and a tail half (the
   coefficient count ``n`` is twice the slot count).  The embedding gives
   ``E[:, n/2 + j] = i E[:, j]``, so the tail's matrix is ``-i`` times the
   head's, ``A``: one transform ``u = A z``, one conjugation and one
   multiply by ``i`` (the monomial ``X^(n/2)``) give both halves.
3. **EvalMod** — approximates ``t mod 1`` (as ``(1/2pi) sin(2 pi t)``,
   linearized) via a Taylor cosine base on a shrunk interval followed by
   ``r`` double-angle squarings: ``cos(2 pi (t - 1/4)) = sin(2 pi t)``.
   Both halves run in one pass, as one :meth:`Ciphertext.stack
   <repro.ckks.encryptor.Ciphertext.stack>`: every multiply,
   relinearization and rescale is one set of kernel calls for the two.
4. **SlotToCoeff** — the inverse transform (with the ``q0 / 2 pi`` factor
   folded into the matrix constants) reassembles a fresh high-level
   ciphertext encrypting the original slots; by the same identity it is
   one transform ``M`` of ``head + i tail``.
"""

from __future__ import annotations

import numpy as np

from repro.ckks.encoder import CKKSEncoder
from repro.ckks.encryptor import Ciphertext
from repro.ckks.evaluator import CKKSEvaluator
from repro.ckks.linear import SlotLinearTransform
from repro.ckks.params import CKKSParams
from repro.ckks.poly_eval import double_angle, even_poly_eval
from repro.rns.rlwe import require_single


def embedding_matrix(n: int) -> np.ndarray:
    """The ``(n/2, n)`` canonical embedding ``E[k, j] = zeta^(j 5^k)``,
    ``zeta = exp(i pi / n)``: slot ``k`` of a polynomial with coefficient
    vector ``c`` is ``(E c)[k]``."""
    rot = np.array([pow(5, k, 2 * n) for k in range(n // 2)])
    j = np.arange(n)
    return np.exp(1j * np.pi * rot[:, None] * j[None, :] / n)


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
        # The head columns E[:, :s] of the embedding.  Every 5^k is 1 mod 4,
        # so zeta^((n/2) 5^k) = i and E[:, s + j] = i E[:, j].
        head = embedding_matrix(n)[:, :slots]
        # CoeffToSlot: t = c / q0 = (Delta / (n q0)) (E^H z + conj(E^H z)).
        # The tail rows of E^H are -i times the head rows A, so with
        # u = A z the head half is u + conj(u) and the tail i (conj(u) - u).
        self.cts = SlotLinearTransform(
            (params.scale / (n * self.q0)) * head.conj().T)
        # SlotToCoeff: z = (q0 / (2 pi Delta)) E m = M (head + i tail)
        self.stc = SlotLinearTransform(
            (self.q0 / (2 * np.pi * params.scale)) * head)

        required = self.levels_consumed()
        if params.num_levels < required + 1:
            raise ValueError(
                f"bootstrapping needs at least {required + 1} levels, "
                f"params have {params.num_levels}"
            )

    def levels_consumed(self) -> int:
        """Levels consumed: CtS (1) + square (1) + Horner (one plaintext
        multiply and ``taylor_terms - 2`` ciphertext multiplies) + ``r``
        double angles + StC (1)."""
        return 1 + 1 + (self.taylor_terms - 1) + self.r + 1

    def required_rotations(self) -> set:
        """Rotation steps for which Galois keys must exist."""
        return self.cts.required_rotations() | self.stc.required_rotations()

    # ------------------------------------------------------------------ #

    def mod_raise(self, ct: Ciphertext) -> Ciphertext:
        """Reinterpret a level-0 ciphertext over the full chain."""
        require_single(ct)
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

        One transform ``u = A z`` and one conjugation of its output:
        ``head = u + conj(u)`` and ``tail = i (conj(u) - u)``.
        """
        ev = self.evaluator
        u = self.cts.apply(ev, raised)
        conj = ev.conjugate(u)
        return ev.add(u, conj), ev.mul_by_i(ev.sub(conj, u))

    def eval_mod(self, ct: Ciphertext) -> Ciphertext:
        """``sin(2 pi t)`` on the slots, via cosine + double angles; ``ct``
        is one ciphertext or a :meth:`Ciphertext.stack
        <repro.ckks.encryptor.Ciphertext.stack>`, by the same ops."""
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
        """Reassemble the output ciphertext from the two halves: one
        transform of ``head + i tail``.

        The matrix constants were built so the decoded output equals the
        original slot values under the *tracked* scale — no manual scale
        fixups are needed.
        """
        ev = self.evaluator
        return self.stc.apply(ev, ev.add(head, ev.mul_by_i(tail)))

    # ------------------------------------------------------------------ #

    def bootstrap(self, ct: Ciphertext) -> Ciphertext:
        """Refresh an exhausted (level-0) ciphertext to a high level."""
        if abs(ct.scale - self.params.scale) > 1e-6 * self.params.scale:
            raise ValueError(
                "bootstrap expects the ciphertext at the nominal scale")
        raised = self.mod_raise(ct)
        halves = self.coeff_to_slot(raised)
        head, tail = self.eval_mod(Ciphertext.stack(halves)).unstack()
        return self.slot_to_coeff(head, tail)
