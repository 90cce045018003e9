"""Tests for the Bconv tables, CRT reconstruction and the mixed-radix rounding."""

from itertools import islice
from math import prod

import numpy as np
import pytest

from repro.ntmath.modular import MAX_FAST_MODULUS_BITS
from repro.ntmath.primes import generate_ntt_primes, ntt_primes_below
from repro.rns.basis import (
    ConversionTable,
    crt_centred,
    crt_reconstruct,
    get_conversion_table,
    scale_round,
)

PRIMES = generate_ntt_primes(30, 64, 6)


def test_conversion_table_constants():
    source = tuple(PRIMES[:3])
    target = tuple(PRIMES[3:5])
    table = ConversionTable(source, target)
    product = source[0] * source[1] * source[2]
    for i, q in enumerate(source):
        qhat = product // q
        assert (int(table.qhat_inv[i]) * qhat) % q == 1
        for j, p in enumerate(target):
            assert int(table.qhat_mod_target[j][i]) == qhat % p


def test_conversion_table_cached():
    source = tuple(PRIMES[:2])
    target = tuple(PRIMES[2:4])
    assert get_conversion_table(source, target) is get_conversion_table(
        source, target
    )


def test_crt_reconstruct_roundtrip(rng):
    primes = PRIMES[:4]
    product = 1
    for q in primes:
        product *= q
    values = [int(rng.integers(0, 1 << 60)) * 7 + 1 for _ in range(8)]
    values = [v % product for v in values]
    residues = np.array(
        [[v % q for v in values] for q in primes], dtype=np.uint64
    )
    assert crt_reconstruct(residues, primes) == values


def _crt_loop(residues, primes) -> list:
    """The per-coefficient CRT loop, kept as the oracle."""
    from repro.ntmath.modular import invmod

    product = 1
    for q in primes:
        product *= q
    residues = np.atleast_2d(np.asarray(residues, dtype=np.uint64))
    out = [0] * residues.shape[1]
    for i, q in enumerate(primes):
        qhat = product // q
        coeff = (invmod(qhat, q) * qhat) % product
        for k, r in enumerate(residues[i]):
            out[k] = (out[k] + int(r) * coeff) % product
    return out


@pytest.mark.parametrize("channels", [1, 3, 44])
def test_crt_reconstruct_matches_per_coefficient_loop(rng, channels):
    primes = generate_ntt_primes(36, 256, channels)
    residues = np.stack([rng.integers(0, q, 256, dtype=np.uint64)
                         for q in primes])
    residues[:, 0] = 0
    residues[:, 1] = [q - 1 for q in primes]
    got = crt_reconstruct(residues, primes)
    assert got == _crt_loop(residues, primes)
    assert all(type(v) is int for v in got)


def test_crt_reconstruct_single_channel():
    q = PRIMES[0]
    got = crt_reconstruct(np.array([5, 7], dtype=np.uint64), [q])
    assert got == [5, 7]


def test_crt_reconstruct_shape_mismatch():
    with pytest.raises(ValueError):
        crt_reconstruct(np.zeros((2, 4), dtype=np.uint64), PRIMES[:3])


# ------------------------------ scale_round ---------------------------- #

Q4 = tuple(generate_ntt_primes(36, 256, 4))
B4 = tuple(islice(ntt_primes_below(MAX_FAST_MODULUS_BITS, 256), 4))
T42 = next(ntt_primes_below(MAX_FAST_MODULUS_BITS, 32))

#: One prime; BFV's ``Q``; ``Q∪B`` (36-bit primes, then 42-bit ones, as
#: the scale-and-round sees them); and ``B∪Q``, where every digit of a
#: 42-bit channel is subtracted from smaller moduli.
BASES = {"q1": Q4[:1], "q4": Q4, "q4b4": Q4 + B4, "b4q4": B4 + Q4}


def _oracle_round(residues, primes, targets, t, s):
    """``round(t·x/Q_s) mod p`` over Python ints, from :func:`crt_centred`."""
    q_s = prod(primes[:s])
    x = crt_centred(residues, primes).ravel()
    return np.array([[((2 * t * v + q_s) // (2 * q_s)) % p for v in x]
                     for p in targets], dtype=np.uint64)


def _edge_values(primes, t, s, rng):
    """Centred values at the extremes, next to ``±Q_s/2`` and next to
    rounding steps ``x ≈ (j + 1/2)·Q_s/t`` across the whole range."""
    m, q_s = prod(primes), prod(primes[:s])
    values = [0, 1, -1, m - 1, (m - 1) // 2, (m + 1) // 2,
              -((m - 1) // 2)]
    for c in (q_s // 2, -(q_s // 2)):
        values += [c - 1, c, c + 1]
    top = t * m // (2 * q_s)
    steps = [0, 1, -1, -2, top, -top - 1, top - 1, -top]
    steps += [top * int(f) >> 30 for f in rng.integers(-2**30, 2**30, 8)]
    for j in steps:
        edge = (2 * j + 1) * q_s // (2 * t)
        values += [edge - 1, edge, edge + 1]
    return [v for v in values if -(m // 2) <= v <= m // 2]


@pytest.mark.parametrize("basis", BASES.values(), ids=BASES.keys())
@pytest.mark.parametrize("t", [1, 2, 256, 131041, T42, (1 << 63) - 1],
                         ids=["1", "2", "256", "17bit", "42bit", "2^63-1"])
def test_scale_round_matches_the_bigint_oracle(rng, basis, t):
    k = len(basis)
    targets = (2, 257, basis[0], B4[-1], Q4[-1])
    for s in sorted({0, 1, k // 2, k}):
        values = _edge_values(basis, t, s, rng)
        random = np.stack([rng.integers(0, q, 64, dtype=np.uint64)
                           for q in basis])
        edges = np.array([[v % q for v in values] for q in basis],
                         dtype=np.uint64)
        residues = np.concatenate([random, edges], axis=1)
        got = scale_round(residues, basis, targets, t=t, s=s)
        want = _oracle_round(residues, basis, targets, t, s)
        assert got.dtype == np.uint64
        assert np.array_equal(got, want), (k, t, s)


def test_scale_round_keeps_the_batch_shape(rng):
    residues = np.stack([rng.integers(0, q, (3, 2, 8), dtype=np.uint64)
                         for q in Q4])
    got = scale_round(residues, Q4, B4[:2], t=7, s=2)
    assert got.shape == (2, 3, 2, 8)
    want = _oracle_round(residues.reshape(4, -1), Q4, B4[:2], 7, 2)
    assert np.array_equal(got.reshape(2, -1), want)


def test_scale_round_lift_is_the_centred_crt(rng):
    """``s = 0, t = 1`` reduces the centred value itself."""
    residues = np.stack([rng.integers(0, q, 32, dtype=np.uint64)
                         for q in Q4])
    lifted = crt_centred(residues, Q4)
    got = scale_round(residues, Q4, B4)
    assert got.tolist() == [[int(v) % p for v in lifted] for p in B4]


@pytest.mark.parametrize("kwargs", [
    dict(t=0), dict(t=1 << 63), dict(s=-1), dict(s=5),
    dict(targets=(1 << MAX_FAST_MODULUS_BITS) + 15,),
], ids=["t0", "t2^63", "s-1", "s_past_k", "wide_target"])
def test_scale_round_rejects_what_it_is_not_exact_for(kwargs):
    targets = kwargs.pop("targets", 17)
    residues = np.zeros((4, 2), dtype=np.uint64)
    with pytest.raises(ValueError):
        scale_round(residues, Q4, (targets,), **kwargs)


def test_scale_round_rejects_bad_bases():
    with pytest.raises(ValueError, match="odd"):
        scale_round(np.zeros((2, 2), dtype=np.uint64), (2, 17), (5,))
    with pytest.raises(ValueError, match="channel count"):
        scale_round(np.zeros((3, 2), dtype=np.uint64), Q4, (5,))
