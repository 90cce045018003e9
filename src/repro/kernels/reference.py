"""The limb-at-a-time reference backend.

This is the original per-prime dispatch the repository computed with before
the kernels were batched: every op walks the modulus chain in a Python loop
and calls the scalar-modulus primitives of :mod:`repro.ntmath.modular` (and
the single-prime :class:`repro.poly.ntt.NTTContext`) once per limb.  It is
kept verbatim as the *differential oracle* — the batched backends must be
bit-identical to it on every op — and as the baseline the committed
``BENCH_kernels.json`` speedups are measured against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.kernels.contract import (
    as_primes,
    as_residues,
    check_channel_batch,
    check_mac_operands,
    check_residue_matrix,
    signed_residues,
)
from repro.kernels.plans import automorphism_plan, ntt_automorphism_plan
from repro.ntmath.modular import addmod, invmod, mulmod, negmod, submod
from repro.poly.ntt import get_context


class ReferenceBackend:
    """Per-limb loops over scalar-modulus kernels (differential oracle)."""

    name = "reference"

    # ------------------------------ NTT -------------------------------- #

    def ntt_forward(self, data: np.ndarray, primes: Sequence[int]) -> np.ndarray:
        primes = as_primes(primes)
        data = check_channel_batch(data, primes, signed=True)
        if data.dtype != np.uint64:
            data = signed_residues(data, primes)
        n = data.shape[-1]
        out = np.empty_like(data)
        for i, q in enumerate(primes):
            out[i] = get_context(n, q).forward(data[i])
        return out

    def ntt_inverse(self, data: np.ndarray, primes: Sequence[int]) -> np.ndarray:
        primes = as_primes(primes)
        data = check_channel_batch(data, primes)
        n = data.shape[-1]
        out = np.empty_like(data)
        for i, q in enumerate(primes):
            out[i] = get_context(n, q).inverse(data[i])
        return out

    # ------------------------------ pointwise -------------------------- #

    def pointwise_mul(
        self, a: np.ndarray, b: np.ndarray, primes: Sequence[int]
    ) -> np.ndarray:
        primes = as_primes(primes)
        a = check_channel_batch(a, primes)
        b = as_residues(b)
        out = np.empty_like(a)
        for i, q in enumerate(primes):
            out[i] = mulmod(a[i], b[i], q)
        return out

    def pointwise_add(
        self, a: np.ndarray, b: np.ndarray, primes: Sequence[int]
    ) -> np.ndarray:
        primes = as_primes(primes)
        a = check_channel_batch(a, primes)
        b = as_residues(b)
        out = np.empty_like(a)
        for i, q in enumerate(primes):
            out[i] = addmod(a[i], b[i], q)
        return out

    def pointwise_sub(
        self, a: np.ndarray, b: np.ndarray, primes: Sequence[int]
    ) -> np.ndarray:
        primes = as_primes(primes)
        a = check_channel_batch(a, primes)
        b = as_residues(b)
        out = np.empty_like(a)
        for i, q in enumerate(primes):
            out[i] = submod(a[i], b[i], q)
        return out

    def negate(self, a: np.ndarray, primes: Sequence[int]) -> np.ndarray:
        primes = as_primes(primes)
        a = check_channel_batch(a, primes)
        out = np.empty_like(a)
        for i, q in enumerate(primes):
            out[i] = negmod(a[i], q)
        return out

    def mac(
        self, a: np.ndarray, b: np.ndarray, primes: Sequence[int]
    ) -> np.ndarray:
        primes = as_primes(primes)
        a, b, shape = check_mac_operands(a, b, primes)
        a, b = np.broadcast_to(a, shape), np.broadcast_to(b, shape)
        out = np.zeros(shape[:1] + shape[2:], dtype=np.uint64)
        for i, q in enumerate(primes):
            for t in range(shape[1]):
                out[i] = addmod(out[i], mulmod(a[i, t], b[i, t], q), q)
        return out

    def mul_channel_scalars(
        self, a: np.ndarray, scalars: Sequence[int], primes: Sequence[int]
    ) -> np.ndarray:
        primes = as_primes(primes)
        if len(scalars) != len(primes):
            raise ValueError("need one scalar per channel")
        a = check_channel_batch(a, primes)
        out = np.empty_like(a)
        for i, q in enumerate(primes):
            out[i] = mulmod(a[i], np.uint64(int(scalars[i]) % q), q)
        return out

    def automorphism(
        self, a: np.ndarray, k: int, primes: Sequence[int]
    ) -> np.ndarray:
        primes = as_primes(primes)
        a = check_residue_matrix(a, primes)
        dest, flip = automorphism_plan(a.shape[-1], k)
        out = np.zeros_like(a)
        for i, q in enumerate(primes):
            vals = np.where(flip, negmod(a[i], q), a[i])
            out[i, dest] = vals
        return out

    def automorphism_ntt(
        self, a: np.ndarray, k: int, primes: Sequence[int]
    ) -> np.ndarray:
        primes = as_primes(primes)
        a = check_channel_batch(a, primes)
        index = ntt_automorphism_plan(a.shape[-1], k)
        out = np.empty_like(a)
        for i in range(len(primes)):
            out[i] = a[i][..., index]
        return out

    # ------------------------------ basis changes ---------------------- #

    def bconv(
        self,
        x: np.ndarray,
        source_primes: Sequence[int],
        target_primes: Sequence[int],
    ) -> np.ndarray:
        from repro.rns.basis import get_conversion_table

        source = as_primes(source_primes)
        target = as_primes(target_primes)
        x = check_residue_matrix(x, source)
        table = get_conversion_table(source, target)
        # Step 1 (per input channel): t_i = [x * qhat_i^{-1}]_{q_i}
        t = np.empty_like(x)
        for i, q in enumerate(source):
            t[i] = mulmod(x[i], table.qhat_inv[i], q)
        # Step 2 (per output channel): sum_i t_i * (qhat_i mod p_j) mod p_j.
        # Products are < p_j < 2**42; accumulating them in uint64 is exact
        # for up to 2**22 channels, far beyond any FHE parameter set.
        out = np.empty((len(target), x.shape[1]), dtype=np.uint64)
        for j, p in enumerate(target):
            prods = mulmod(t, table.qhat_mod_target[j][:, None], p)
            out[j] = prods.sum(axis=0, dtype=np.uint64) % np.uint64(p)
        return out

    def modup(
        self,
        x: np.ndarray,
        source_primes: Sequence[int],
        special_primes: Sequence[int],
    ) -> np.ndarray:
        extension = self.bconv(x, source_primes, special_primes)
        return np.concatenate(
            [np.asarray(x, dtype=np.uint64), extension], axis=0
        )

    def moddown(
        self,
        x: np.ndarray,
        source_primes: Sequence[int],
        special_primes: Sequence[int],
    ) -> np.ndarray:
        source = as_primes(source_primes)
        special = as_primes(special_primes)
        x = as_residues(x)
        if x.shape[0] != len(source) + len(special):
            raise ValueError(
                f"expected {len(source) + len(special)} channels, "
                f"got {x.shape[0]}"
            )
        x_q = x[: len(source)]
        x_p = x[len(source):]
        p_product = 1
        for p in special:
            p_product *= p
        converted = self.bconv(x_p, special, source)
        out = np.empty_like(x_q)
        for i, q in enumerate(source):
            p_inv = np.uint64(invmod(p_product % q, q))
            diff = submod(x_q[i], converted[i], q)
            out[i] = mulmod(diff, p_inv, q)
        return out

    def rescale(self, x: np.ndarray, primes: Sequence[int]) -> np.ndarray:
        primes = as_primes(primes)
        x = check_residue_matrix(x, primes)
        if len(primes) < 2:
            raise ValueError("cannot rescale below one remaining channel")
        last = primes[-1]
        x_last = x[-1]
        out = np.empty((len(primes) - 1, x.shape[1]), dtype=np.uint64)
        for i, q in enumerate(primes[:-1]):
            last_inv = np.uint64(invmod(last % q, q))
            diff = submod(x[i], np.mod(x_last, np.uint64(q)), q)
            out[i] = mulmod(diff, last_inv, q)
        return out
