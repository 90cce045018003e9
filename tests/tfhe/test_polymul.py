"""Tests for the exact CRT-NTT negacyclic multiplier."""

import numpy as np
import pytest

from repro.tfhe.polymul import get_torus_ntt
from repro.tfhe.torus import to_centered_int64
from tests.oracles import negacyclic_mul_reference

N = 256


@pytest.fixture(scope="module")
def ntt():
    return get_torus_ntt(N)


def test_single_multiply_matches_reference(ntt, rng):
    u = rng.integers(-128, 128, N, dtype=np.int64)
    v = rng.integers(0, 1 << 32, N, dtype=np.int64).astype(np.uint32)
    assert np.array_equal(ntt.multiply(u, v), negacyclic_mul_reference(u, v))


def test_multiply_by_one(ntt, rng):
    v = rng.integers(0, 1 << 32, N, dtype=np.int64).astype(np.uint32)
    u = np.zeros(N, dtype=np.int64)
    u[0] = 1
    assert np.array_equal(ntt.multiply(u, v), v)


def test_multiply_by_monomial_rotates(ntt, rng):
    v = rng.integers(0, 1 << 32, N, dtype=np.int64).astype(np.uint32)
    u = np.zeros(N, dtype=np.int64)
    u[1] = 1  # X
    got = ntt.multiply(u, v)
    expected = np.empty_like(v)
    expected[1:] = v[:-1]
    expected[0] = np.uint32(-v[-1].astype(np.int64) % (1 << 32))
    assert np.array_equal(got, expected)


def test_mul_sum_accumulates(ntt, rng):
    rows = 6
    u = rng.integers(-64, 64, (rows, N), dtype=np.int64)
    v = rng.integers(0, 1 << 32, (rows, N), dtype=np.int64).astype(np.uint32)
    spec = ntt.spectrum(np.stack([to_centered_int64(r) for r in v]))
    got = ntt.mul_sum(u, spec)
    expected = np.zeros(N, dtype=np.uint32)
    for j in range(rows):
        expected = expected + negacyclic_mul_reference(u[j], v[j])
    assert np.array_equal(got, expected)


def test_mul_sum_shape_validation(ntt, rng):
    u = rng.integers(-4, 4, (3, N), dtype=np.int64)
    v = rng.integers(0, 1 << 32, (2, N), dtype=np.int64).astype(np.uint32)
    spec = ntt.spectrum(np.stack([to_centered_int64(r) for r in v]))
    with pytest.raises(ValueError):
        ntt.mul_sum(u, spec)


def test_large_gadget_base_exact(ntt, rng):
    """Set-II-sized digits (|u| up to 2^22) stay exact."""
    u = rng.integers(-(1 << 22), 1 << 22, N, dtype=np.int64)
    v = rng.integers(0, 1 << 32, N, dtype=np.int64).astype(np.uint32)
    # independent exact reference via Python big ints
    uu = [int(x) for x in u]
    vv = [int(x) for x in to_centered_int64(v)]
    expected = [0] * N
    for i in range(N):
        for j in range(N):
            k = i + j
            if k < N:
                expected[k] += uu[i] * vv[j]
            else:
                expected[k - N] -= uu[i] * vv[j]
    expected = np.array([e % (1 << 32) for e in expected], dtype=np.uint32)
    assert np.array_equal(ntt.multiply(u, v), expected)


def test_extreme_torus_values(ntt):
    u = np.full(N, 127, dtype=np.int64)
    v = np.full(N, 0xFFFFFFFF, dtype=np.uint32)
    assert np.array_equal(ntt.multiply(u, v), negacyclic_mul_reference(u, v))


def test_cached_instances():
    assert get_torus_ntt(N) is get_torus_ntt(N)


def test_crt_primes_large_enough(ntt):
    # worst-case accumulated magnitude (set II): 2 rows * N * Bg/2 * 2^31
    worst = 2 * 2048 * (1 << 22) * (1 << 31)
    assert ntt.product // 2 > worst
