"""Precomputed constants for fast base conversion between RNS bases.

A basis is an ordered tuple of primes.  For a source basis
``{q_0 .. q_{L-1}}`` with product ``Q``, equation (1) of the paper needs,
per source channel ``i``:

* ``qhat_inv[i] = (Q / q_i)^{-1} mod q_i``  (applied inside the channel), and
* ``qhat[i] mod p_j = (Q / q_i) mod p_j``    (applied per target channel).

These depend on the *current* chain (CKKS drops primes as levels are
consumed), so tables are built per ``(source, target)`` pair and cached.

Exact conversions live here too.  :func:`crt_centred` lifts residues to
Python integers; :func:`scale_round` computes ``round(t·x/Q_s)`` of the
centred value ``x`` onto other moduli without leaving uint64, through the
mixed-radix digits of ``x`` (BFV's operand lift, scale-and-round and
decryption rounding).
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Sequence, Tuple

import numpy as np

from repro.ntmath.modular import (MAX_FAST_MODULUS_BITS, addmod_channels,
                                  channel_moduli, invmod, mulmod_channels,
                                  mulmod_lazy)


class ConversionTable:
    """Precomputed constants for ``Bconv`` from one basis to another."""

    def __init__(self, source: Tuple[int, ...], target: Tuple[int, ...]):
        self.source = source
        self.target = target
        product = prod(source)
        # per-source-channel (Q/q_i)^{-1} mod q_i
        self.qhat_inv = np.array(
            [invmod(product // q, q) for q in source], dtype=np.uint64
        )
        # qhat_mod_target[j][i] = (Q/q_i) mod p_j
        self.qhat_mod_target = np.array(
            [[(product // q) % p for q in source] for p in target],
            dtype=np.uint64,
        )


@lru_cache(maxsize=4096)
def get_conversion_table(
    source: Tuple[int, ...], target: Tuple[int, ...]
) -> ConversionTable:
    """Cached lookup of conversion constants for a (source, target) pair."""
    return ConversionTable(source, target)


def crt_reconstruct(residues, primes: Sequence[int]) -> list:
    """Exact CRT reconstruction to Python big ints in ``[0, Q)``.

    ``residues`` has shape ``(len(primes), n)``.  Each channel contributes
    ``r_i * [(Q/q_i)^{-1}]_{q_i} * (Q/q_i)`` to one object-dtype
    accumulator, reduced by ``Q`` once at the end.
    """
    primes = [int(q) for q in primes]
    product = 1
    for q in primes:
        product *= q
    residues = np.asarray(residues, dtype=np.uint64)
    if residues.ndim == 1:
        residues = residues[None, :]
    if residues.shape[0] != len(primes):
        raise ValueError("channel count does not match prime count")
    acc = np.zeros(residues.shape[1], dtype=object)
    for row, q in zip(residues, primes):
        qhat = product // q
        acc += row.astype(object) * ((invmod(qhat, q) * qhat) % product)
    return (acc % product).tolist()


def crt_centred(residues, primes: Sequence[int]) -> np.ndarray:
    """Exact CRT lift to the centred range ``(-Q/2, Q/2]``.

    ``residues`` has shape ``(len(primes), ...)``; the result is an
    object-dtype array of Python ints shaped like one channel.
    """
    residues = np.asarray(residues, dtype=np.uint64)
    product = 1
    for q in primes:
        product *= int(q)
    values = np.array(crt_reconstruct(
        residues.reshape(len(primes), -1), primes), dtype=object)
    values[values > product // 2] -= product
    return values.reshape(residues.shape[1:])


class MixedRadixTable:
    """Constants of :func:`scale_round` for one ``(primes, s, t, targets)``.

    Per source channel ``i``: ``m_j^{-1} mod m_i`` for each earlier ``j``, a
    multiple of ``m_i`` of at least ``2**42`` (a digit subtracted from the
    channel never makes it negative), and the mixed-radix digits of
    ``M // 2``, the largest value the centred range keeps positive.  Per low
    channel ``i < s``: ``2t mod m_i`` and ``m_i^{-1} mod 2**64``.  Per
    target ``p``: the weight ``t·m_s···m_{i-1} mod p`` of each high digit
    and ``-t·M/Q_s mod p``.
    """

    def __init__(self, primes: Tuple[int, ...], s: int, t: int,
                 targets: Tuple[int, ...]):
        k = len(primes)
        if not 0 <= s <= k:
            raise ValueError(f"split {s} out of range for {k} primes")
        if not 1 <= t < 1 << 63:
            raise ValueError(f"scale t must be in [1, 2**63), got {t}")
        if k > 63 or any(q % 2 == 0 for q in primes):
            raise ValueError("mixed-radix rounding needs at most 63 odd moduli")
        self.qq, self.q_quot = channel_moduli(primes)
        self.pad = np.array([[-(-(1 << MAX_FAST_MODULUS_BITS) // q) * q]
                             for q in primes], dtype=np.uint64)
        self.inv = [np.array([[invmod(m, q)] for q in primes[j + 1:]],
                             dtype=np.uint64)
                    for j, m in enumerate(primes[:-1])]
        self.inv_quot = [w * self.q_quot[j + 1:]
                         for j, w in enumerate(self.inv)]
        product = prod(primes)
        rest, half = product // 2, []
        for q in primes:
            rest, digit = divmod(rest, q)
            half.append([digit])
        self.half = np.array(half, dtype=np.int64)
        self.powers = np.left_shift(1, np.arange(k, dtype=np.int64))
        self.two_t = np.uint64(2 * t)
        self.two_t_mod = np.array([[2 * t % q] for q in primes[:s]],
                                  dtype=np.uint64)
        self.inv64 = [np.uint64(pow(q, -1, 1 << 64)) for q in primes[:s]]
        self.pp, p_quot = channel_moduli(targets)
        radix = [t * prod(primes[s:i]) for i in range(s, k)]
        self.weights = np.array([[[r % p] for p in targets] for r in radix],
                                dtype=np.uint64).reshape(-1, len(targets), 1)
        self.weights_quot = self.weights * p_quot
        shift = t * (product // prod(primes[:s]))
        self.neg_shift = np.array([[-shift % p] for p in targets],
                                  dtype=np.uint64)


@lru_cache(maxsize=256)
def get_mixed_radix_table(primes: Tuple[int, ...], s: int, t: int,
                          targets: Tuple[int, ...]) -> MixedRadixTable:
    """Cached :class:`MixedRadixTable`; a BFV parameter set uses three."""
    return MixedRadixTable(primes, s, t, targets)


def scale_round(residues, primes: Sequence[int], targets: Sequence[int],
                t: int = 1, s: int = 0) -> np.ndarray:
    """``round(t·x/Q_s) mod p`` for each target ``p``, exactly, in uint64.

    ``residues`` has shape ``(k, ...)`` over ``k`` odd ``primes`` with
    product ``M``; ``x`` is their centred value in ``(-M/2, M/2]`` (that of
    :func:`crt_centred`) and ``Q_s`` the product of the first ``s`` primes.
    The result has shape ``(len(targets), ...)``.  ``s = 0, t = 1`` is the
    exact centred lift of ``x``; ``s = k`` rounds the whole value.  Exact
    for every ``1 <= t < 2**63``, up to 63 primes and 42-bit moduli.

    The steps work on the mixed-radix digits ``v_i < m_i`` of ``X = x mod
    M = Σ v_i·m_0···m_{i-1}``:

    * *Digits.* Step ``j`` subtracts ``v_j`` from every later channel and
      multiplies them by ``m_j^{-1}``; the row left at ``j`` is ``v_j``.
    * *Sign.* ``x < 0`` exactly when ``X > M // 2``: the digits compared
      with those of ``M // 2`` from the top down, as the sign of
      ``Σ sign(v_i - h_i)·2^i``.
    * *Rounding.* With ``T_0 = 0`` and ``T_{i+1} = ⌊(2t·v_i + T_i)/m_i⌋``,
      ``T_s = ⌊2t·X_low/Q_s⌋`` for the low part ``X_low = X mod Q_s``, and
      ``T_s < 2t``.  The remainder of each floor is a modular multiply-add;
      the quotient, below ``2**64``, is the exact difference times
      ``m_i^{-1} mod 2**64``.  ``R = (T_s + 1) >> 1 = ⌊(2t·X_low +
      Q_s)/2Q_s⌋``.
    * *Result.* ``round(t·x/Q_s) = t·W + R - [x < 0]·t·M/Q_s`` with ``W =
      (X - X_low)/Q_s``, as ``M/Q_s`` is an integer.  ``t·W`` is a sum of
      lazy products of the high digits with their weights, each in
      ``[0, 2p)``, reduced once.  ``Q_s`` is odd, so ``t·x/Q_s`` is never a
      half-integer and no tie exists.
    """
    primes = tuple(int(q) for q in primes)
    targets = tuple(int(p) for p in targets)
    residues = np.asarray(residues, dtype=np.uint64)
    k = len(primes)
    if residues.shape[0] != k:
        raise ValueError("channel count does not match prime count")
    table = get_mixed_radix_table(primes, s, int(t), targets)
    qq = table.qq
    v = residues.reshape(k, -1).copy()
    for j in range(k - 1):
        # v_j < 2**42 <= pad: rows stay >= 0, and below 2**44 for the
        # lazy product
        rows, q = v[j + 1:], qq[j + 1:]
        np.add(rows, table.pad[j + 1:], out=rows)
        np.subtract(rows, v[j], out=rows)
        mulmod_lazy(rows, table.inv[j], table.inv_quot[j], q, out=rows)
        np.minimum(rows, rows - q, out=rows)
    negative = table.powers @ np.sign(v.view(np.int64) - table.half) > 0
    pp = table.pp
    out = np.where(negative, table.neg_shift, np.uint64(0))
    if s:
        low = v[:s]
        rems = mulmod_channels(low, table.two_t_mod, qq[:s], table.q_quot[:s])
        prods = table.two_t * low                       # wraps mod 2**64
        floor = np.zeros(v.shape[1], dtype=np.uint64)
        for i in range(s):
            rem = addmod_channels(rems[i], floor % qq[i], qq[i])
            floor = (prods[i] + floor - rem) * table.inv64[i]
        out += ((floor + np.uint64(1)) >> np.uint64(1)) % pp
    if s < k:
        # digits below 2**42 need no reduction mod p for a lazy product
        out += mulmod_lazy(v[s:, None], table.weights, table.weights_quot,
                           pp).sum(axis=0)
    return (out % pp).reshape((len(targets),) + residues.shape[1:])
