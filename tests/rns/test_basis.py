"""Tests for RNS bases and CRT reconstruction."""

import numpy as np
import pytest

from repro.ntmath.primes import generate_ntt_primes
from repro.rns.basis import (
    ConversionTable,
    RNSBasis,
    crt_reconstruct,
    get_conversion_table,
)

PRIMES = generate_ntt_primes(30, 64, 6)


def test_basis_product():
    basis = RNSBasis(PRIMES[:3])
    assert basis.product == PRIMES[0] * PRIMES[1] * PRIMES[2]


def test_basis_rejects_duplicates():
    with pytest.raises(ValueError):
        RNSBasis([17, 17])


def test_basis_rejects_trivial():
    with pytest.raises(ValueError):
        RNSBasis([17, 1])


def test_basis_prefix():
    basis = RNSBasis(PRIMES)
    sub = basis.prefix(2)
    assert sub.primes == tuple(PRIMES[:2])
    with pytest.raises(ValueError):
        basis.prefix(0)
    with pytest.raises(ValueError):
        basis.prefix(len(PRIMES) + 1)


def test_basis_equality_and_hash():
    assert RNSBasis(PRIMES[:2]) == RNSBasis(PRIMES[:2])
    assert RNSBasis(PRIMES[:2]) != RNSBasis(PRIMES[:3])
    assert hash(RNSBasis(PRIMES[:2])) == hash(RNSBasis(PRIMES[:2]))


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
    for j, p in enumerate(target):
        assert int(table.product_mod_target[j]) == product % p


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
