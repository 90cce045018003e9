"""The default batched numpy backend: one 2-D call per op across all limbs.

Every primitive runs as a single vectorized numpy expression over the whole
``(C, n)`` residue matrix — the modulus is broadcast as a ``(C, 1)`` column
(:func:`repro.ntmath.modular.channel_moduli`), so the Python call count per
op is O(1) instead of O(limbs).  Every modular product — in
``pointwise_mul``, ``mul_channel_scalars``, Bconv, Moddown and rescale — is
the one float-quotient multiply of :mod:`repro.ntmath.modular`
(:func:`~repro.ntmath.modular.mulmod_channels`), and additions and
subtractions use its ``np.minimum`` fix-ups.  ``mac`` sums that multiply's
lazy products and reduces each sum once.  The NTT is
:class:`repro.poly.ntt.MultiNTTContext`: constant-geometry stages over the
whole basis with lazy butterflies built on the same multiply, O(log n)
calls per transform; small signed rows at small ring degrees (TFHE's
gadget digits) are instead one exact float64 matrix product,
:class:`repro.poly.ntt.DenseForward`.  Every output is the exact residue,
so results are bit-identical to the per-limb reference backend (enforced
by ``tests/kernels``).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.kernels.contract import (
    Primes,
    as_primes,
    as_residues,
    check_channel_batch,
    check_mac_operands,
    check_residue_matrix,
    signed_residues,
)
from repro.kernels.plans import (
    BCONV_SPLIT_BITS,
    automorphism_plan,
    basis_plan,
    conversion_plan,
    moddown_plan,
    ntt_automorphism_plan,
    rescale_plan,
)
from repro.ntmath.modular import (
    addmod_channels,
    mulmod_channels,
    mulmod_lazy,
    negmod_channels,
    submod_channels,
)
from repro.poly.ntt import (
    dense_forward_fits,
    get_dense_forward,
    get_multi_context,
    signed_magnitude,
)

#: Size of one term of a ``mac`` (its result's element count) from which
#: the terms are accumulated one at a time.  Below it, one expression over
#: all terms costs fewer numpy calls; above it, per-term passes over the
#: result-sized buffers touch less memory than the ``J``-times larger
#: product array.
MAC_PER_TERM_FROM = 3072


def _shaped_moduli(primes: Primes, ndim: int) -> "tuple[np.ndarray, np.ndarray]":
    """Modulus arrays broadcastable against ``(C, ..., n)`` of rank ``ndim``,
    for a basis its caller already normalized with ``as_primes``."""
    plan = basis_plan(primes)
    extra = ndim - 1
    if extra == 1:
        return plan.q_col, plan.q_inv_col
    shape = (len(plan.primes),) + (1,) * extra
    return plan.q_col.reshape(shape), plan.q_inv_col.reshape(shape)


class NumpyBackend:
    """Limb-batched kernels over plain numpy (the default backend)."""

    name = "numpy"

    # ------------------------------ NTT -------------------------------- #

    def ntt_forward(self, data: np.ndarray, primes: Sequence[int]) -> np.ndarray:
        primes = as_primes(primes)
        data = check_channel_batch(data, primes, signed=True)
        n = data.shape[-1]
        if data.dtype != np.uint64:
            if dense_forward_fits(n, signed_magnitude(data), primes):
                return get_dense_forward(n, primes).forward(data)
            data = signed_residues(data, primes)
        return get_multi_context(n, primes).forward(data)

    def ntt_inverse(self, data: np.ndarray, primes: Sequence[int]) -> np.ndarray:
        primes = as_primes(primes)
        data = check_channel_batch(data, primes)
        return get_multi_context(data.shape[-1], primes).inverse(data)

    # ------------------------------ pointwise -------------------------- #

    def pointwise_mul(
        self, a: np.ndarray, b: np.ndarray, primes: Sequence[int]
    ) -> np.ndarray:
        primes = as_primes(primes)
        a = check_channel_batch(a, primes)
        qq, q_inv = _shaped_moduli(primes, a.ndim)
        return mulmod_channels(a, as_residues(b), qq, q_inv)

    def pointwise_add(
        self, a: np.ndarray, b: np.ndarray, primes: Sequence[int]
    ) -> np.ndarray:
        primes = as_primes(primes)
        a = check_channel_batch(a, primes)
        qq, _ = _shaped_moduli(primes, a.ndim)
        return addmod_channels(a, as_residues(b), qq)

    def pointwise_sub(
        self, a: np.ndarray, b: np.ndarray, primes: Sequence[int]
    ) -> np.ndarray:
        primes = as_primes(primes)
        a = check_channel_batch(a, primes)
        qq, _ = _shaped_moduli(primes, a.ndim)
        return submod_channels(a, as_residues(b), qq)

    def negate(self, a: np.ndarray, primes: Sequence[int]) -> np.ndarray:
        primes = as_primes(primes)
        a = check_channel_batch(a, primes)
        qq, _ = _shaped_moduli(primes, a.ndim)
        return negmod_channels(a, qq)

    def mac(
        self, a: np.ndarray, b: np.ndarray, primes: Sequence[int]
    ) -> np.ndarray:
        primes = as_primes(primes)
        a, b, shape = check_mac_operands(a, b, primes)
        qq, q_quot = _shaped_moduli(primes, a.ndim)
        b_quot = np.multiply(b, q_quot, dtype=np.float64)
        out_shape = shape[:1] + shape[2:]
        if math.prod(out_shape) < MAC_PER_TERM_FROM:
            acc = mulmod_lazy(a, b, b_quot, qq).sum(axis=1, dtype=np.uint64)
        else:
            acc = np.empty(out_shape, dtype=np.uint64)
            term, quot = np.empty_like(acc), np.empty_like(acc)
            for t in range(shape[1]):
                # an operand with one term broadcasts it to every term
                i, k = min(t, a.shape[1] - 1), min(t, b.shape[1] - 1)
                mulmod_lazy(a[:, i], b[:, k], b_quot[:, k], qq[:, 0],
                            out=term if t else acc, quot=quot)
                if t:
                    acc += term
        return np.remainder(acc, qq[:, 0], out=acc)

    def mul_channel_scalars(
        self, a: np.ndarray, scalars: Sequence[int], primes: Sequence[int]
    ) -> np.ndarray:
        primes = as_primes(primes)
        if len(scalars) != len(primes):
            raise ValueError("need one scalar per channel")
        a = check_channel_batch(a, primes)
        col = np.array(
            [int(s) % q for s, q in zip(scalars, primes)], dtype=np.uint64
        ).reshape((len(primes),) + (1,) * (a.ndim - 1))
        qq, q_inv = _shaped_moduli(primes, a.ndim)
        return mulmod_channels(a, col, qq, q_inv)

    def automorphism(
        self, a: np.ndarray, k: int, primes: Sequence[int]
    ) -> np.ndarray:
        primes = as_primes(primes)
        a = check_residue_matrix(a, primes)
        plan = basis_plan(primes)
        dest, flip = automorphism_plan(a.shape[-1], k)
        vals = np.where(flip[None, :], negmod_channels(a, plan.q_col), a)
        out = np.zeros_like(a)
        out[:, dest] = vals
        return out

    def automorphism_ntt(
        self, a: np.ndarray, k: int, primes: Sequence[int]
    ) -> np.ndarray:
        primes = as_primes(primes)
        a = check_channel_batch(a, primes)
        return a[..., ntt_automorphism_plan(a.shape[-1], k)]

    # ------------------------------ basis changes ---------------------- #

    def bconv(
        self,
        x: np.ndarray,
        source_primes: Sequence[int],
        target_primes: Sequence[int],
    ) -> np.ndarray:
        source = as_primes(source_primes)
        target = as_primes(target_primes)
        x = check_residue_matrix(x, source)
        if len(source) > 1 << (53 - 2 * BCONV_SPLIT_BITS):
            raise ValueError(
                "source basis too large for the exact-DGEMM Bconv path"
            )
        plan = conversion_plan(source, target)
        # Step 1 (all source channels at once): t_i = [x * qhat_i^{-1}]_{q_i}
        t = mulmod_channels(
            x, plan.qhat_inv_col, plan.src_q_col, plan.src_q_inv_col
        )
        # Step 2 — sum_i t_i * (qhat_i mod p_j) mod p_j — is a matrix
        # product.  Split both factors into 21-bit halves so every partial
        # dot product is an exact float64 integer (half*half < 2**42, summed
        # over <= 2**11 channels stays < 2**53), evaluate the four partials
        # with BLAS matmuls, and recombine exactly mod each target prime.
        split = np.uint64(BCONV_SPLIT_BITS)
        mask = np.uint64((1 << BCONV_SPLIT_BITS) - 1)
        t_hi = (t >> split).astype(np.float64)
        t_lo = (t & mask).astype(np.float64)
        s_hh = (plan.qhat_hi @ t_hi).astype(np.uint64)
        s_mid = (plan.qhat_hi @ t_lo).astype(np.uint64) + (
            plan.qhat_lo @ t_hi
        ).astype(np.uint64)
        s_ll = (plan.qhat_lo @ t_lo).astype(np.uint64)
        p_col, p_inv = plan.tgt_q_col, plan.tgt_q_inv_col
        hh = mulmod_channels(s_hh % p_col, plan.radix_hh_col, p_col, p_inv)
        mid = mulmod_channels(s_mid % p_col, plan.radix_mid_col, p_col, p_inv)
        acc = addmod_channels(hh, mid, p_col)
        return addmod_channels(acc, s_ll % p_col, p_col)

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
        converted = self.bconv(x_p, special, source)
        plan = basis_plan(source)
        diff = submod_channels(x_q, converted, plan.q_col)
        return mulmod_channels(
            diff, moddown_plan(source, special).p_inv_col,
            plan.q_col, plan.q_inv_col,
        )

    def rescale(self, x: np.ndarray, primes: Sequence[int]) -> np.ndarray:
        primes = as_primes(primes)
        x = check_residue_matrix(x, primes)
        if len(primes) < 2:
            raise ValueError("cannot rescale below one remaining channel")
        plan = basis_plan(primes[:-1])
        x_last = x[-1][None, :] % plan.q_col
        diff = submod_channels(x[:-1], x_last, plan.q_col)
        return mulmod_channels(
            diff, rescale_plan(primes).last_inv_col, plan.q_col, plan.q_inv_col
        )
