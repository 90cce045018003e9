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

from typing import Dict, List, Tuple

import numpy as np

from repro.ckks.encoder import CKKSEncoder
from repro.ckks.encryptor import Ciphertext
from repro.ckks.evaluator import CKKSEvaluator
from repro.kernels import get_backend
from repro.rns.keyswitch import (SwitchingKey, lift, mod_down, raise_digits,
                                 switch_raised)
from repro.rns.rlwe import ntt_batch, require_single, unstack
from repro.rns.rns_poly import RNSPoly, channel_rows, reduce_signed


class BabySteps:
    """The baby-step rotations of one ciphertext over ``Q*P``, made on
    first use.

    ``babies(j)`` is ``P·rot(ct, j)`` as one NTT-form ``(C_ext, parts, n)``
    batch over :attr:`extended` (``ct.primes`` and the special primes),
    with the keyswitch's rounding still in it: the pair one Moddown turns
    into ``rot(ct, j)``.  :meth:`SlotLinearTransform.apply` sums it into
    giant groups over ``Q*P`` without going down, and
    :meth:`CKKSEvaluator.rotate_batch_hoisted` takes all its rotations
    down in one call.

    ``babies(0)`` is the input lifted by ``P``
    (:func:`~repro.rns.keyswitch.lift`, once).  The rotations are hoisted:
    the first one raises ``c1``'s digits to ``Q*P`` in NTT form
    (:func:`~repro.rns.keyswitch.raise_digits`), and every rotation by
    ``j`` permutes those raised digits by ``σ_{5^j}`` in the NTT domain and
    switches them with its key; its ``c0`` part adds the same permutation
    of the lifted ``c0``.  A baby rotation makes no NTT and no Moddown.
    """

    def __init__(self, evaluator: CKKSEvaluator, ct: Ciphertext):
        self.evaluator = evaluator
        self.ct = ct
        self.special = evaluator.params.special_primes
        self.extended = ct.primes + self.special
        self._ntt: Dict[int, np.ndarray] = {}
        self._raised = None

    def __call__(self, j: int) -> np.ndarray:
        """``P·rot(ct, j)``, every part in NTT form over ``Q*P``, one
        ``(C_ext, parts, n)`` batch."""
        batch = self._ntt.get(j)
        if batch is None:
            batch = self._ntt[j] = (
                self._rotate(j) if j else
                lift(ntt_batch(self.ct.parts), self.ct.primes, self.special))
        return batch

    def _rotate(self, j: int) -> np.ndarray:
        ev, ct = self.evaluator, self.ct
        g, key = ev.rotation_key(ct, j)
        if self._raised is None:
            self._raised = raise_digits(
                ct.parts[1].to_coeff(), ev.params.digits_at_level(ct.level),
                self.special)
        return _rotate_raised(self._raised, self(0)[:, 0], g, key,
                              self.extended)


def _rotate_raised(raised: np.ndarray, c0: np.ndarray, g: int,
                   key: SwitchingKey,
                   extended: Tuple[int, ...]) -> np.ndarray:
    """``P·σ_g`` of a ciphertext over ``Q*P``, in NTT form: its raised
    ``c1`` digits permuted and switched with ``key``, plus ``c0`` (``P``
    times the ciphertext's, over ``Q*P``) permuted."""
    backend = get_backend()
    rotated = switch_raised(backend.automorphism_ntt(raised, g, extended),
                            key)
    rotated[:, 0] = backend.pointwise_add(
        rotated[:, 0], backend.automorphism_ntt(c0, g, extended), extended)
    return rotated


def _group_products(babies: BabySteps, groups: Dict[int, tuple],
                    giants: List[int], n: int):
    """Each giant group's one ``mac`` of its baby steps and diagonals,
    ``P·(u0, u1)`` over ``Q*P``: group 0's as it is (``None`` without a
    group 0), and the ``u0`` and ``u1`` of the groups in ``giants`` as two
    ``(C_ext, G, n)`` batches, column ``k`` for ``giants[k]``.  Each
    distinct baby set is stacked once."""
    backend = get_backend()
    extended = babies.extended
    shape = (len(extended), len(giants), n)
    u0, u1 = np.empty(shape, np.uint64), np.empty(shape, np.uint64)
    batches: Dict[Tuple[int, ...], np.ndarray] = {}
    total = None
    for i, (js, diags) in groups.items():
        js = tuple(js)
        if js not in batches:
            batches[js] = np.stack([babies(j) for j in js], axis=1)
        u = backend.mac(batches[js], diags[:, :, None], extended)
        if i:
            column = giants.index(i)
            u0[:, column], u1[:, column] = u[:, 0], u[:, 1]
        else:
            total = u
    return total, u0, u1


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
        group, over ``primes`` (:meth:`apply` passes the extended basis
        ``Q*P``).

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

        Every keyswitch result stays over ``Q*P`` in NTT form until the
        one Moddown it needs (full double hoisting).  The baby steps are
        ``P·rot(ct, j)`` there (:class:`BabySteps`), stacked once per
        distinct baby set, and the diagonals are held over ``Q*P``, so
        each giant group's products and their sum are one ``mac`` call
        giving ``P·(u0, u1)``.  A giant rotation goes down only with
        ``u1``, which it must raise, and the groups' giant rotations do
        that together: the ``u1`` of every group with a giant rotation
        are one ``(C_ext, G, n)`` batch, which goes down in one
        :func:`~repro.rns.keyswitch.mod_down` and is raised in one
        :func:`~repro.rns.keyswitch.raise_digits` (Moddown and Bconv work
        coefficient by coefficient and the NTT row by row, so the batch
        equals one call per group bit for bit).  Each group then permutes
        its column of raised digits by ``σ_{5^{g*i}}`` and switches it,
        and adds ``P·u0`` permuted by the same ``σ`` over ``Q*P``.  Every
        giant key is fetched before the batch goes down, so a missing one
        raises before any Moddown.  The groups are summed over ``Q*P``
        and the transform goes down once.  ``ModDown(P·x + y) = x +
        ModDown(y)`` exactly, so this differs from going down per
        rotation only in rounding.
        """
        params = evaluator.params
        if params.slots != self.slots:
            raise ValueError(
                f"transform is {self.slots} slots, params have "
                f"{params.slots}"
            )
        require_single(ct)
        primes, special = ct.primes, params.special_primes
        extended = primes + special
        groups = self._groups(params.n, params.scale, extended)
        if not groups:
            raise ValueError("matrix is identically zero")
        backend = get_backend()
        ring = evaluator.ring
        giants = [i for i in groups if i]
        keys = [evaluator.rotation_key(ct, self.giant_step * i)
                for i in giants]
        # the baby steps and their stacks are freed before the giant side
        # goes down and up, where a request's memory peaks
        total, u0, u1 = _group_products(BabySteps(evaluator, ct), groups,
                                        giants, params.n)
        if giants:
            u1 = mod_down(u1, extended, len(special))
            raised = raise_digits(RNSPoly(ring, u1, primes, False),
                                  params.digits_at_level(ct.level), special)
            for column, (g, key) in enumerate(keys):
                u = _rotate_raised(raised[:, :, column], u0[:, column], g,
                                   key, extended)
                total = u if total is None else backend.pointwise_add(
                    total, u, extended)
        result = Ciphertext(
            unstack(ring, mod_down(total, extended, len(special)), primes),
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
