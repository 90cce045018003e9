"""Tests for the negacyclic NTT."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ntmath.primes import generate_ntt_prime
from repro.poly.ntt import NTTContext, bit_reverse_indices, get_context
from tests.oracles import (
    negacyclic_convolve_reference,
    negacyclic_eval_points,
    ntt_multiply,
)


def test_bit_reverse_indices_small():
    assert bit_reverse_indices(8).tolist() == [0, 4, 2, 6, 1, 5, 3, 7]
    assert bit_reverse_indices(2).tolist() == [0, 1]


def test_bit_reverse_is_involution():
    rev = bit_reverse_indices(64)
    assert np.array_equal(rev[rev], np.arange(64))


def test_bit_reverse_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        bit_reverse_indices(12)


@pytest.mark.parametrize("n", [4, 16, 64, 256, 1024])
def test_forward_inverse_roundtrip(n, rng):
    q = generate_ntt_prime(36, n)
    ctx = NTTContext(n, q)
    a = rng.integers(0, q, n, dtype=np.uint64)
    assert np.array_equal(ctx.inverse(ctx.forward(a)), a)


def test_roundtrip_large(rng):
    n = 8192
    q = generate_ntt_prime(36, n)
    ctx = get_context(n, q)
    a = rng.integers(0, q, n, dtype=np.uint64)
    assert np.array_equal(ctx.inverse(ctx.forward(a)), a)


def test_batched_transform_matches_individual(rng):
    n = 64
    q = generate_ntt_prime(36, n)
    ctx = NTTContext(n, q)
    batch = rng.integers(0, q, (5, n), dtype=np.uint64)
    fwd = ctx.forward(batch)
    for i in range(5):
        assert np.array_equal(fwd[i], ctx.forward(batch[i]))


def test_multidim_batch_shape(rng):
    n = 32
    q = generate_ntt_prime(36, n)
    ctx = NTTContext(n, q)
    batch = rng.integers(0, q, (2, 3, n), dtype=np.uint64)
    assert ctx.forward(batch).shape == (2, 3, n)
    assert np.array_equal(ctx.inverse(ctx.forward(batch)), batch)


@pytest.mark.parametrize("n", [8, 32, 128])
def test_multiply_matches_schoolbook(n, rng):
    q = generate_ntt_prime(36, n)
    ctx = NTTContext(n, q)
    a = rng.integers(0, q, n, dtype=np.uint64)
    b = rng.integers(0, q, n, dtype=np.uint64)
    got = ntt_multiply(ctx, a, b)
    expected = negacyclic_convolve_reference(a, b, q)
    assert np.array_equal(got, expected)


def test_multiply_by_x_shifts(rng):
    """Multiplying by X must rotate coefficients with a sign wrap."""
    n = 16
    q = generate_ntt_prime(36, n)
    ctx = NTTContext(n, q)
    a = rng.integers(0, q, n, dtype=np.uint64)
    x = np.zeros(n, dtype=np.uint64)
    x[1] = 1
    got = ntt_multiply(ctx, a, x)
    expected = np.roll(a, 1)
    expected[0] = (q - int(a[-1])) % q
    assert np.array_equal(got, expected)


def test_negacyclic_wraparound_sign():
    """X^(n-1) * X = X^n = -1 in the negacyclic ring."""
    n = 8
    q = generate_ntt_prime(36, n)
    ctx = NTTContext(n, q)
    a = np.zeros(n, dtype=np.uint64)
    a[n - 1] = 1
    x = np.zeros(n, dtype=np.uint64)
    x[1] = 1
    got = ntt_multiply(ctx, a, x)
    expected = np.zeros(n, dtype=np.uint64)
    expected[0] = q - 1
    assert np.array_equal(got, expected)


def test_forward_is_linear(rng):
    n = 64
    q = generate_ntt_prime(36, n)
    ctx = NTTContext(n, q)
    a = rng.integers(0, q, n, dtype=np.uint64)
    b = rng.integers(0, q, n, dtype=np.uint64)
    from repro.ntmath.modular import addmod

    assert np.array_equal(
        ctx.forward(addmod(a, b, q)), addmod(ctx.forward(a), ctx.forward(b), q)
    )


def test_spectrum_evaluates_at_odd_psi_powers(rng):
    """Natural-order spectrum entry k is the evaluation at psi^(2k+1)."""
    n = 16
    q = generate_ntt_prime(36, n)
    ctx = NTTContext(n, q)
    a = rng.integers(0, q, n, dtype=np.uint64)
    spectrum = ctx.to_natural_order(ctx.forward(a))
    points = negacyclic_eval_points(ctx)
    for k in range(n):
        x = int(points[k])
        val = 0
        for coeff in a[::-1]:
            val = (val * x + int(coeff)) % q
        assert int(spectrum[k]) == val


def test_context_rejects_bad_modulus():
    with pytest.raises(ValueError):
        NTTContext(16, 101)  # 100 is not divisible by 2n = 32


def test_context_rejects_bad_degree():
    q = generate_ntt_prime(20, 16)
    with pytest.raises(ValueError):
        NTTContext(12, q)


def test_forward_rejects_wrong_length(rng):
    n = 16
    q = generate_ntt_prime(20, n)
    ctx = NTTContext(n, q)
    with pytest.raises(ValueError):
        ctx.forward(np.zeros(8, dtype=np.uint64))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_multiply_commutative_property(data):
    n = 16
    q = generate_ntt_prime(20, n)
    ctx = get_context(n, q)
    coeffs = st.lists(
        st.integers(min_value=0, max_value=q - 1), min_size=n, max_size=n
    )
    a = np.array(data.draw(coeffs), dtype=np.uint64)
    b = np.array(data.draw(coeffs), dtype=np.uint64)
    assert np.array_equal(ntt_multiply(ctx, a, b), ntt_multiply(ctx, b, a))
