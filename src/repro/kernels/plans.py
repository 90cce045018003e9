"""Cached per-basis precompute shared by the kernel backends.

Every plan is keyed on the prime tuple(s) it serves and built once per
process (``lru_cache``), so repeated ops over the same CKKS chain pay no
table-construction cost.  Every cache is *bounded* (explicit ``maxsize``):
a service that walks many parameter sets — the serving layer re-plans per
batch shape — must not grow these tables without limit.  The bounds are
far above any real chain (a 44-level dnum-4 chain touches < 100 distinct
bases), so in practice nothing is ever evicted.  The CRT constants themselves come from
:mod:`repro.rns.basis` (one source of truth with the reference math); this
module only reshapes them into the broadcast layouts the batched numpy
kernels consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.kernels.contract import Primes
from repro.ntmath.modular import channel_moduli, invmod
from repro.poly.ntt import bit_reverse_indices


@dataclass(frozen=True)
class BasisPlan:
    """Broadcastable modulus arrays for one basis: ``(C, 1)`` columns."""

    primes: Primes
    q_col: np.ndarray        # (C, 1) uint64
    q_inv_col: np.ndarray    # (C, 1) float64, 1/q biased low (channel_moduli)


@lru_cache(maxsize=1024)
def basis_plan(primes: Primes) -> BasisPlan:
    q_col, q_inv_col = channel_moduli(primes, extra_dims=1)
    return BasisPlan(primes, q_col, q_inv_col)


#: Split point for the exact-DGEMM Bconv: 42-bit residues break into two
#: halves of at most this many bits, so half × half products stay below
#: 2**42 and a dot product over up to 2**11 source channels is an exact
#: float64 integer (< 2**53).
BCONV_SPLIT_BITS = 21


@dataclass(frozen=True)
class ConversionPlan:
    """Eq. (1) constants in batched layout for ``source -> target`` Bconv.

    Step 2 of Bconv is the matrix product ``qhat_mod_target @ t`` reduced
    per target prime.  The plan holds the ``(Q/q_i) mod p_j`` matrix split
    into 21-bit halves as float64 so the kernel can evaluate the four
    partial products with BLAS matmuls whose accumulations are *exact*
    integers (see :data:`BCONV_SPLIT_BITS`), plus the ``2**42 mod p_j`` /
    ``2**21 mod p_j`` columns for the exact recombination.
    """

    source: Primes
    target: Primes
    qhat_inv_col: np.ndarray      # (Cs, 1)  (Q/q_i)^{-1} mod q_i
    qhat_hi: np.ndarray           # (Ct, Cs) float64  (qhat mod p_j) >> 21
    qhat_lo: np.ndarray           # (Ct, Cs) float64  (qhat mod p_j) & (2^21-1)
    src_q_col: np.ndarray         # (Cs, 1)
    src_q_inv_col: np.ndarray     # (Cs, 1) float64
    tgt_q_col: np.ndarray         # (Ct, 1)
    tgt_q_inv_col: np.ndarray     # (Ct, 1) float64
    radix_hh_col: np.ndarray      # (Ct, 1)  2**(2*21) mod p_j
    radix_mid_col: np.ndarray     # (Ct, 1)  2**21 mod p_j


@lru_cache(maxsize=4096)
def conversion_plan(source: Primes, target: Primes) -> ConversionPlan:
    from repro.rns.basis import get_conversion_table

    table = get_conversion_table(source, target)
    src_q_col, src_q_inv_col = channel_moduli(source, extra_dims=1)
    tgt_q_col, tgt_q_inv_col = channel_moduli(target, extra_dims=1)
    qhat = table.qhat_mod_target  # (Ct, Cs) uint64
    split = np.uint64(BCONV_SPLIT_BITS)
    mask = np.uint64((1 << BCONV_SPLIT_BITS) - 1)
    radix_mid = np.array(
        [(1 << BCONV_SPLIT_BITS) % p for p in target], dtype=np.uint64
    )
    radix_hh = np.array(
        [(1 << (2 * BCONV_SPLIT_BITS)) % p for p in target], dtype=np.uint64
    )
    return ConversionPlan(
        source=source,
        target=target,
        qhat_inv_col=table.qhat_inv[:, None],
        qhat_hi=(qhat >> split).astype(np.float64),
        qhat_lo=(qhat & mask).astype(np.float64),
        src_q_col=src_q_col,
        src_q_inv_col=src_q_inv_col,
        tgt_q_col=tgt_q_col,
        tgt_q_inv_col=tgt_q_inv_col,
        radix_hh_col=radix_hh[:, None],
        radix_mid_col=radix_mid[:, None],
    )


@dataclass(frozen=True)
class ModdownPlan:
    """Per-base-channel ``P^{-1} mod q_i`` column for Moddown's final divide."""

    p_inv_col: np.ndarray  # (Cq, 1) uint64


@lru_cache(maxsize=4096)
def moddown_plan(source: Primes, special: Primes) -> ModdownPlan:
    p_product = 1
    for p in special:
        p_product *= p
    p_inv = np.array(
        [invmod(p_product % q, q) for q in source], dtype=np.uint64
    )
    return ModdownPlan(p_inv_col=p_inv[:, None])


@dataclass(frozen=True)
class RescalePlan:
    """Per-remaining-channel ``q_last^{-1} mod q_i`` column for rescale."""

    last_inv_col: np.ndarray  # (C-1, 1) uint64


@lru_cache(maxsize=4096)
def rescale_plan(primes: Primes) -> RescalePlan:
    last = primes[-1]
    last_inv = np.array(
        [invmod(last % q, q) for q in primes[:-1]], dtype=np.uint64
    )
    return RescalePlan(last_inv_col=last_inv[:, None])


@lru_cache(maxsize=4096)
def automorphism_plan(n: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(dest, flip)`` index/sign arrays for the Galois map ``X -> X**k``.

    Coefficient ``i`` moves to ``i*k mod 2n`` with a sign flip when the
    destination exponent lands in ``[n, 2n)``; identical per channel, so the
    plan is shared across the whole limb batch.
    """
    k %= 2 * n
    if k % 2 == 0:
        raise ValueError("automorphism index must be odd")
    idx = (np.arange(n, dtype=np.int64) * k) % (2 * n)
    flip = idx >= n
    dest = np.where(flip, idx - n, idx)
    return dest, flip


@lru_cache(maxsize=4096)
def ntt_automorphism_plan(n: int, k: int) -> np.ndarray:
    """Gather index of the Galois map ``X -> X**k`` (odd ``k``) in NTT form.

    Row ``i`` of the bit-reversed forward NTT holds ``a(psi**e_i)`` with
    ``e_i = 2*br(i) + 1``, and ``(sigma_k a)(psi**e) = a(psi**(e*k))``, so
    ``NTT(sigma_k a)[i] = NTT(a)[br((e_i*k mod 2n - 1) / 2)]``: a
    permutation of the evaluation points with no sign flips, identical per
    channel.
    """
    k %= 2 * n
    if k % 2 == 0:
        raise ValueError("automorphism index must be odd")
    rev = bit_reverse_indices(n)
    return rev[((2 * rev + 1) * k % (2 * n) - 1) // 2]
