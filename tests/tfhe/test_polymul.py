"""Tests for the exact torus NTT negacyclic multiplier, in both key layouts:
the split key on one prime and the whole key on two primes."""

import numpy as np
import pytest

from repro.tfhe.params import PARAM_SET_I, PARAM_SET_II, TEST_PARAMS
from repro.tfhe.polymul import WORST_CASE_BOUND, TorusNTT, get_torus_ntt
from repro.tfhe.torus import to_centered_int64
from tests.oracles import negacyclic_mul_reference

N = 256


@pytest.fixture(scope="module")
def ntt():
    return get_torus_ntt(N)


def _multiply(ntt, u, v):
    """One negacyclic product of small-int ``u`` and Torus32 ``v``: the
    spectrum of ``v`` as one row, and ``u`` as one digit row against it."""
    spec = ntt.spectrum(to_centered_int64(v)[None, :])
    return ntt.mul_sum(np.asarray(u, dtype=np.int64)[None, :], spec)


def test_single_multiply_matches_reference(ntt, rng):
    u = rng.integers(-128, 128, N, dtype=np.int64)
    v = rng.integers(0, 1 << 32, N, dtype=np.int64).astype(np.uint32)
    assert np.array_equal(_multiply(ntt, u, v), negacyclic_mul_reference(u, v))


def test_multiply_by_one(ntt, rng):
    v = rng.integers(0, 1 << 32, N, dtype=np.int64).astype(np.uint32)
    u = np.zeros(N, dtype=np.int64)
    u[0] = 1
    assert np.array_equal(_multiply(ntt, u, v), v)


def test_multiply_by_monomial_rotates(ntt, rng):
    v = rng.integers(0, 1 << 32, N, dtype=np.int64).astype(np.uint32)
    u = np.zeros(N, dtype=np.int64)
    u[1] = 1  # X
    got = _multiply(ntt, u, v)
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
    assert np.array_equal(_multiply(ntt, u, v), expected)


def test_extreme_torus_values(ntt):
    u = np.full(N, 127, dtype=np.int64)
    v = np.full(N, 0xFFFFFFFF, dtype=np.uint32)
    assert np.array_equal(_multiply(ntt, u, v), negacyclic_mul_reference(u, v))


def test_cached_instances():
    assert get_torus_ntt(N) is get_torus_ntt(N)


def test_crt_primes_large_enough(ntt):
    # worst-case accumulated magnitude (set II): 2 rows * N * Bg/2 * 2^31
    worst = 2 * 2048 * (1 << 22) * (1 << 31)
    assert ntt.product // 2 > worst


# ------------------- the two key layouts, against the oracle ------------- #

SETS = {"test": TEST_PARAMS, "set_i": PARAM_SET_I, "set_ii": PARAM_SET_II}


@pytest.mark.parametrize("name, split", [
    ("test", True), ("set_i", True), ("set_ii", False)])
def test_layout_of_each_parameter_set(name, split):
    params = SETS[name]
    n = params.ring_degree
    ntt = get_torus_ntt(n, params.digit_row_bound)
    assert ntt.split is split
    assert ntt.primes == ((ntt.p1,) if split else (ntt.p1, ntt.p2))
    # binary-key products split at every degree; no bound is the worst case
    assert get_torus_ntt(n, 1).split
    assert not get_torus_ntt(n).split


def _oracle_row_sums(u, keys):
    """``sum_j u[j] (*) keys[s, j]`` per spectrum ``s`` and batch row."""
    rows, n = u.shape[0], u.shape[-1]
    flat = u.reshape(rows, -1, n)
    out = []
    for key in keys:
        acc = np.zeros((flat.shape[1], n), dtype=np.uint32)
        for j in range(rows):
            for b in range(flat.shape[1]):
                acc[b] += negacyclic_mul_reference(flat[j, b], key[j])
        out.append(acc.reshape(u.shape[1:]))
    return out


@pytest.mark.parametrize("name, bound", [
    ("test", "digits"), ("test", "worst"), ("set_i", "digits"),
    ("set_i", "worst"), ("set_ii", "digits")])
@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("extreme", [False, True])
def test_digit_rows_match_oracle(name, bound, batch, extreme, rng):
    """An external product's row sums, on random inputs and at the bound:
    every digit at ``-Bg/2`` and every key coefficient at ``-2**31``."""
    params = SETS[name]
    n, rows, half = params.ring_degree, 2 * params.decomp_length, params.bg >> 1
    ntt = (get_torus_ntt(n, params.digit_row_bound) if bound == "digits"
           else get_torus_ntt(n))
    shape = (rows,) + ((batch,) if batch > 1 else ()) + (n,)
    if extreme:
        u = np.full(shape, -half, dtype=np.int64)
        keys = np.full((2, rows, n), 1 << 31, dtype=np.uint32)
    else:
        u = rng.integers(-half, half, shape, dtype=np.int64)
        keys = rng.integers(0, 1 << 32, (2, rows, n),
                            dtype=np.int64).astype(np.uint32)
    specs = [ntt.spectrum(to_centered_int64(k)) for k in keys]
    got = ntt.mul_sum_multi(u, specs)
    for g, e in zip(got, _oracle_row_sums(u, keys)):
        assert np.array_equal(g, e)


@pytest.mark.parametrize("name", SETS)
@pytest.mark.parametrize("extreme", [False, True])
def test_binary_key_products_match_oracle(name, extreme, rng):
    """The TRLWE products by the ring key take the split key at every
    degree, including ``PARAM_SET_II``'s."""
    n = SETS[name].ring_degree
    ntt = get_torus_ntt(n, 1)
    assert ntt.split
    if extreme:
        key = np.ones(n, dtype=np.int64)
        v = np.full(n, 1 << 31, dtype=np.uint32)
    else:
        key = rng.integers(0, 2, n, dtype=np.int64)
        v = rng.integers(0, 1 << 32, n, dtype=np.int64).astype(np.uint32)
    assert np.array_equal(_multiply(ntt, key, v),
                          negacyclic_mul_reference(key, v))


@pytest.mark.parametrize("bound", [TEST_PARAMS.digit_row_bound,
                                   WORST_CASE_BOUND])
def test_digits_above_the_bound_are_rejected(bound, rng):
    ntt = get_torus_ntt(N, bound)
    rows = 6
    spec = ntt.spectrum(rng.integers(-(1 << 31), 1 << 31, (rows, N),
                                     dtype=np.int64))
    top = ntt.bound // rows
    u = np.full((rows, N), -top, dtype=np.int64)
    ntt.mul_sum(u, spec)                      # at the bound: accepted
    u[2, 7] = top + 1
    with pytest.raises(ValueError, match="bound"):
        ntt.mul_sum(u, spec)


def test_digit_at_int64_min_is_rejected():
    """``np.abs`` wraps ``-2**63`` to itself; the bound check must not."""
    ntt = get_torus_ntt(N, TEST_PARAMS.digit_row_bound)
    spec = ntt.spectrum(np.zeros((1, N), dtype=np.int64))
    u = np.zeros((1, N), dtype=np.int64)
    u[0, 5] = np.iinfo(np.int64).min
    with pytest.raises(ValueError, match="bound"):
        ntt.mul_sum(u, spec)


@pytest.mark.parametrize("bound", [TEST_PARAMS.digit_row_bound,
                                   WORST_CASE_BOUND])
@pytest.mark.parametrize("value", [1 << 31, -(1 << 31) - 1])
def test_spectrum_rejects_values_outside_torus32(bound, value):
    ntt = get_torus_ntt(N, bound)
    values = np.full((1, N), -(1 << 31), dtype=np.int64)
    ntt.spectrum(values)
    values[0, 3] = value
    with pytest.raises(ValueError, match="Torus32"):
        ntt.spectrum(values)


@pytest.mark.parametrize("bound", [0, 1 << 40])
def test_bound_out_of_range_is_rejected(bound):
    with pytest.raises(ValueError, match="bound"):
        TorusNTT(N, bound)
