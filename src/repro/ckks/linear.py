"""Homomorphic slot-space linear transforms (diagonal method + BSGS).

A complex ``s x s`` matrix ``M`` acts on the slot vector of a ciphertext
through the diagonal decomposition

    M z = sum_d diag_d(M) ⊙ rot(z, d),     diag_d(M)[k] = M[k, (k+d) mod s]

with the baby-step/giant-step regrouping (``d = g*i + j``) that cuts the
rotation count from ``s`` to ``~2*sqrt(s)`` — the structure the paper's
bootstrapping and LoLa workloads are built from, and the reason hoisted
rotations matter (Figure 1's BSP-L=44+).

These transforms power the functional CKKS bootstrapping
(:mod:`repro.ckks.bootstrap`) and are usable directly for matrix-vector
workloads.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.ckks.encoder import CKKSEncoder
from repro.ckks.encryptor import Ciphertext
from repro.ckks.evaluator import CKKSEvaluator
from repro.kernels import get_backend
from repro.rns.keyswitch import mod_down, raise_digits, switch_raised
from repro.rns.rlwe import ntt_batch, require_single, unstack
from repro.rns.rns_poly import RNSPoly, channel_rows, reduce_signed


class BabySteps:
    """The NTT-form baby-step rotations of one ciphertext, made on first use.

    Each baby rotation is keyswitched once however many giant groups read
    it.  :meth:`SlotLinearTransform.apply` builds one per transform, and
    :meth:`CKKSEvaluator.rotate_batch_hoisted` reads one directly.

    The rotations are hoisted: the first one raises ``c1``'s digits to
    ``Q*P`` in NTT form (:func:`~repro.rns.keyswitch.raise_digits`), and
    every rotation by ``j`` permutes those raised digits by ``σ_{5^j}`` in
    the NTT domain, switches them with its key and goes down
    (:func:`~repro.rns.keyswitch.mod_down`).  Its ``c0`` part is the same
    permutation of the held NTT-form input.
    """

    def __init__(self, evaluator: CKKSEvaluator, ct: Ciphertext):
        self.evaluator = evaluator
        self.ct = ct
        self._ntt: Dict[int, np.ndarray] = {}
        self._raised = None

    def __call__(self, j: int) -> np.ndarray:
        """Every part of ``rot(ct, j)`` in NTT form, one ``(C, parts, n)``
        batch."""
        batch = self._ntt.get(j)
        if batch is None:
            batch = self._ntt[j] = (self._rotate(j) if j
                                    else ntt_batch(self.ct.parts))
        return batch

    def _rotate(self, j: int) -> np.ndarray:
        ev, ct = self.evaluator, self.ct
        g, key = ev.rotation_key(ct, j)
        special = ev.params.special_primes
        if self._raised is None:
            self._raised = raise_digits(
                ct.parts[1].to_coeff(), ev.params.digits_at_level(ct.level),
                special)
        backend = get_backend()
        primes = ct.primes
        extended = primes + special
        acc = switch_raised(
            backend.automorphism_ntt(self._raised, g, extended), key)
        rotated = backend.ntt_forward(
            mod_down(acc, extended, len(special)), primes)
        rotated[:, 0] = backend.pointwise_add(
            rotated[:, 0], backend.automorphism_ntt(self(0)[:, 0], g, primes),
            primes)
        return rotated


class SlotLinearTransform:
    """A homomorphic ``slots x slots`` complex matrix multiply."""

    def __init__(self, matrix: np.ndarray, giant_step: int = None):
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square (slots x slots)")
        self.matrix = matrix
        self.slots = matrix.shape[0]
        if giant_step is None:
            giant_step = max(1, int(np.sqrt(self.slots)))
        if not 1 <= giant_step <= self.slots:
            raise ValueError("giant_step out of range")
        self.giant_step = giant_step
        # (n, scale) -> (basis, giant groups in NTT form); see _groups
        self._ntt: Dict[Tuple[int, float], tuple] = {}

    # ------------------------------------------------------------------ #

    def diagonal(self, d: int) -> np.ndarray:
        """``diag_d(M)[k] = M[k, (k+d) mod s]``."""
        s = self.slots
        k = np.arange(s)
        return self.matrix[k, (k + d) % s]

    def nonzero_diagonals(self, tol: float = 1e-12):
        return [
            d for d in range(self.slots)
            if np.abs(self.diagonal(d)).max() > tol
        ]

    def required_rotations(self) -> set:
        """Rotation steps the BSGS evaluation needs (for key generation)."""
        g = self.giant_step
        steps = set()
        for d in self.nonzero_diagonals():
            i, j = divmod(d, g)
            steps.add(j)
            steps.add(g * i)
        steps.discard(0)
        return steps

    def _groups(
        self, n: int, scale: float, primes: Tuple[int, ...]
    ) -> Dict[int, Tuple[List[int], np.ndarray]]:
        """``{i: (baby steps j, NTT-form diagonals (C, J, n))}`` per giant
        group, over ``primes``.

        Row ``k`` encodes ``rot(diag_{g*i + j_k}, -g*i)`` at ``scale``.
        Each group is encoded and forward-transformed once per
        ``(n, scale)``, over the basis of first use.  A call over a subset
        of that basis (a lower level) cuts its rows, which is exact because
        each channel transforms independently; any other basis encodes the
        diagonals again and replaces the held form.
        """
        held = self._ntt.get((n, scale))
        if held is not None:
            basis, groups = held
            if basis == primes:
                return groups
            if set(primes) <= set(basis):
                rows = channel_rows(basis, primes)
                return {i: (js, diags[rows])
                        for i, (js, diags) in groups.items()}
        g = self.giant_step
        encoder = CKKSEncoder(n, scale)
        backend = get_backend()
        babies: Dict[int, List[int]] = {}
        for d in self.nonzero_diagonals():
            i, j = divmod(d, g)
            babies.setdefault(i, []).append(j)
        groups = {}
        for i, js in sorted(babies.items()):
            coeffs = np.stack([
                encoder.encode(np.roll(self.diagonal(g * i + j), g * i))
                for j in js])
            groups[i] = (js, backend.ntt_forward(
                reduce_signed(coeffs, primes), primes))
        self._ntt[(n, scale)] = (primes, groups)
        return groups

    # ------------------------------------------------------------------ #

    def apply(self, evaluator: CKKSEvaluator, ct: Ciphertext) -> Ciphertext:
        """BSGS evaluation; consumes one level (diagonal Pmult + rescale).

        ``rot(z, g*i + j) = rot(rot(z, j), g*i)`` and
        ``diag_d ⊙ rot(x, g*i) = rot(rot(diag_d, -g*i) ⊙ x, g*i)``, so the
        baby rotations of the input are shared across all giant groups.

        Each giant group sums its terms in the NTT domain: its diagonals
        are held in NTT form, and its products and their sum are one
        ``mac`` call, ``(u0, u1)`` over ``Q``.  The giant rotations are
        hoisted too (double hoisting): ``u1`` is raised and switched like a
        baby step, but the switched pairs stay over ``Q*P``, where they
        are summed with ``P·σ(u0)`` of every group and ``P·(u0, u1)`` of
        group 0.  The transform then goes down once, which is exact up to
        rounding because ``ModDown(P·x + y) = x + ModDown(y)``.
        """
        params = evaluator.params
        if params.slots != self.slots:
            raise ValueError(
                f"transform is {self.slots} slots, params have "
                f"{params.slots}"
            )
        require_single(ct)
        babies = BabySteps(evaluator, ct)
        primes = ct.primes
        groups = self._groups(params.n, params.scale, primes)
        if not groups:
            raise ValueError("matrix is identically zero")
        backend = get_backend()
        special = params.special_primes
        extended = primes + special
        digits = params.digits_at_level(ct.level)
        ring = evaluator.ring
        # NTT form: terms over Q that enter Q*P times P, and the giant
        # steps' switched pairs over Q*P
        lifted = np.zeros((len(primes), ct.size, params.n), dtype=np.uint64)
        switched = np.zeros((len(extended),) + lifted.shape[1:],
                            dtype=np.uint64)
        for i, (js, diags) in groups.items():
            u = backend.mac(np.stack([babies(j) for j in js], axis=1),
                            diags[:, :, None], primes)
            if not self.giant_step * i:
                lifted = backend.pointwise_add(lifted, u, primes)
                continue
            g, key = evaluator.rotation_key(ct, self.giant_step * i)
            u1 = RNSPoly(ring, backend.ntt_inverse(u[:, 1], primes), primes,
                         False)
            raised = raise_digits(u1, digits, special)
            switched = backend.pointwise_add(switched, switch_raised(
                backend.automorphism_ntt(raised, g, extended), key), extended)
            lifted[:, 0] = backend.pointwise_add(
                lifted[:, 0], backend.automorphism_ntt(u[:, 0], g, primes),
                primes)
        p_product = math.prod(special)
        q_rows = slice(0, len(primes))
        switched[q_rows] = backend.pointwise_add(
            switched[q_rows], backend.mul_channel_scalars(
                lifted, [p_product % q for q in primes], primes), primes)
        result = Ciphertext(
            unstack(ring, mod_down(switched, extended, len(special)), primes),
            ct.scale * params.scale, ct.params)
        return evaluator.rescale(result)


def apply_real_transform(
    evaluator: CKKSEvaluator,
    ct: Ciphertext,
    a_matrix: np.ndarray,
    b_matrix: np.ndarray = None,
    giant_step: int = None,
) -> Ciphertext:
    """Evaluate ``A z + B conj(z)`` on the slot vector.

    Real-linear (conjugate-aware) transforms are what moving real
    polynomial coefficients into complex slots needs.  The bootstrap's
    CoeffToSlot gets its two halves from one transform and one conjugation
    instead (:mod:`repro.ckks.bootstrap`).  ``B = None`` means a plain
    complex-linear transform.
    """
    lt_a = SlotLinearTransform(a_matrix, giant_step)
    out = lt_a.apply(evaluator, ct)
    if b_matrix is not None:
        lt_b = SlotLinearTransform(b_matrix, giant_step)
        out = evaluator.add(
            out, lt_b.apply(evaluator, evaluator.conjugate(ct)))
    return out
