"""Property-based tests (hypothesis) for RNS compose/decompose round-trips.

Random integer polynomials, random prime chains: decomposing into RNS
residues and CRT-reconstructing must be the identity on ``[0, Q)`` (and on
the centered range), the NTT form change must round-trip bit-exactly, and
RNS ring arithmetic must agree with exact big-int arithmetic mod ``Q``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ntmath.primes import generate_ntt_primes
from repro.rns.rns_poly import RNSRing
from tests.oracles import negacyclic_convolve_reference

N = 16
DEGREES = st.sampled_from([8, 16, 32])
PRIME_BITS = st.sampled_from([20, 28, 36])
CHAIN_LEN = st.integers(2, 4)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _ring(n, bits, count):
    return RNSRing(n, generate_ntt_primes(bits, n, count))


def _product(primes):
    total = 1
    for q in primes:
        total *= q
    return total


@settings(max_examples=25, deadline=None)
@given(n=DEGREES, bits=PRIME_BITS, count=CHAIN_LEN, seed=SEEDS)
def test_compose_decompose_roundtrip(n, bits, count, seed):
    """residues -> CRT lift is the identity on uniform values in [0, Q)."""
    ring = _ring(n, bits, count)
    big_q = _product(ring.primes)
    rng = np.random.default_rng(seed)
    # uniform big ints in [0, Q) assembled from 32-bit limbs
    coeffs = []
    for _ in range(n):
        v = 0
        while v.bit_length() < big_q.bit_length() + 32:
            v = (v << 32) | int(rng.integers(0, 2**32))
        coeffs.append(v % big_q)
    poly = ring.from_ints(coeffs)
    assert poly.to_bigint_coeffs() == coeffs


@settings(max_examples=25, deadline=None)
@given(n=DEGREES, bits=PRIME_BITS, count=CHAIN_LEN, seed=SEEDS)
def test_centered_compose_decompose_roundtrip(n, bits, count, seed):
    """Signed coefficients survive decompose -> centered-CRT recompose."""
    ring = _ring(n, bits, count)
    big_q = _product(ring.primes)
    rng = np.random.default_rng(seed)
    half = (big_q - 1) // 2
    bound = min(half, 2**60)
    coeffs = [int(v) for v in rng.integers(-bound, bound + 1, size=n)]
    poly = ring.from_ints(coeffs)
    assert poly.to_centered_bigints() == coeffs


@settings(max_examples=20, deadline=None)
@given(n=DEGREES, bits=PRIME_BITS, count=CHAIN_LEN, seed=SEEDS)
def test_ntt_form_roundtrip(n, bits, count, seed):
    ring = _ring(n, bits, count)
    poly = ring.sample_uniform(np.random.default_rng(seed))
    back = poly.to_ntt().to_coeff()
    assert np.array_equal(back.data, poly.data)
    assert back.primes == poly.primes and not back.ntt_form


@settings(max_examples=15, deadline=None)
@given(bits=PRIME_BITS, count=CHAIN_LEN, seed=SEEDS)
def test_ring_product_matches_bigint_convolution(bits, count, seed):
    """RNS channel-wise product == big-int negacyclic product mod each q_i."""
    ring = _ring(N, bits, count)
    rng = np.random.default_rng(seed)
    a = ring.sample_uniform(rng)
    b = ring.sample_uniform(rng)
    prod = a * b
    a_big = np.array(a.to_bigint_coeffs(), dtype=object)
    b_big = np.array(b.to_bigint_coeffs(), dtype=object)
    for i, q in enumerate(ring.primes):
        expected = negacyclic_convolve_reference(a_big % q, b_big % q, q)
        assert np.array_equal(prod.data[i], expected)


@settings(max_examples=20, deadline=None)
@given(n=DEGREES, bits=PRIME_BITS, count=CHAIN_LEN, seed=SEEDS)
def test_modup_bconv_overshoot_contract(n, bits, count, seed):
    """Modup keeps the original channels bit-exact; the new channels hold
    ``x + alpha*Q`` for one integer overshoot ``0 <= alpha < L`` *shared by
    every target channel* (the documented approximate-Bconv contract)."""
    primes = generate_ntt_primes(bits, n, count + 2)
    base, special = primes[:count], primes[count:]
    ring = RNSRing(n, primes)
    rng = np.random.default_rng(seed)
    vals = rng.integers(-50, 51, size=n)
    poly = ring.from_ints(vals, primes=tuple(base))
    up = poly.modup(tuple(special))
    assert up.primes == tuple(base) + tuple(special)
    assert np.array_equal(up.data[:count], poly.data)
    big_q = _product(base)
    lifted = RNSRing(n, base).from_ints(vals).to_bigint_coeffs()
    for j in range(n):
        candidates = {
            tuple((int(lifted[j]) + alpha * big_q) % p for p in special)
            for alpha in range(count + 1)
        }
        got = tuple(int(up.data[count + i, j]) for i in range(len(special)))
        assert got in candidates, (j, got)
