"""Property-based tests (hypothesis) for the NTT substrate.

Random power-of-two ring degrees and random NTT-friendly primes across the
full supported modulus range (20–42 bits): forward/inverse round-trips,
NTT products against the exact O(N^2) negacyclic reference, the stacked
multi-modulus transform against the per-channel one, and the float-assisted
Barrett ``mulmod`` against Python big-int arithmetic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ntmath.modular import mulmod
from repro.ntmath.primes import generate_ntt_prime
from repro.poly.ntt import get_context, get_multi_context
from tests.oracles import negacyclic_convolve_reference, ntt_multiply

#: Degrees kept small enough for the O(N^2) reference cross-check.
DEGREES = st.sampled_from([8, 16, 32, 64])
PRIME_BITS = st.sampled_from([20, 24, 28, 32, 36, 40, 42])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _ring(n, bits, offset):
    q = generate_ntt_prime(bits, n, seed_offset=offset)
    return q, get_context(n, q)


@settings(max_examples=30, deadline=None)
@given(n=DEGREES, bits=PRIME_BITS, offset=st.integers(0, 2), seed=SEEDS)
def test_ntt_intt_roundtrip(n, bits, offset, seed):
    q, ctx = _ring(n, bits, offset)
    a = np.random.default_rng(seed).integers(0, q, size=n, dtype=np.uint64)
    assert np.array_equal(ctx.inverse(ctx.forward(a)), a)


@settings(max_examples=25, deadline=None)
@given(n=DEGREES, bits=PRIME_BITS, seed=SEEDS)
def test_ntt_forward_is_linear(n, bits, seed):
    q, ctx = _ring(n, bits, 0)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, q, size=n, dtype=np.uint64)
    b = rng.integers(0, q, size=n, dtype=np.uint64)
    lhs = ctx.forward((a.astype(object) + b.astype(object)) % q)
    rhs = (ctx.forward(a).astype(object) + ctx.forward(b).astype(object)) % q
    assert np.array_equal(lhs.astype(np.uint64), rhs.astype(np.uint64))


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([8, 16, 32]), bits=PRIME_BITS, seed=SEEDS)
def test_ntt_multiply_matches_naive_convolution(n, bits, seed):
    """NTT negacyclic product == schoolbook O(N^2) product mod (X^N + 1)."""
    q, ctx = _ring(n, bits, 0)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, q, size=n, dtype=np.uint64)
    b = rng.integers(0, q, size=n, dtype=np.uint64)
    assert np.array_equal(
        ntt_multiply(ctx, a, b), negacyclic_convolve_reference(a, b, q))


@settings(max_examples=20, deadline=None)
@given(
    n=DEGREES,
    bits=PRIME_BITS,
    count=st.integers(2, 4),
    seed=SEEDS,
    batch=st.integers(1, 3),
)
def test_multi_context_matches_per_channel(n, bits, count, seed, batch):
    """The stacked multi-modulus NTT is bit-exact vs per-prime transforms."""
    primes = tuple(
        generate_ntt_prime(bits, n, seed_offset=i) for i in range(count))
    multi = get_multi_context(n, primes)
    rng = np.random.default_rng(seed)
    data = np.stack([
        rng.integers(0, q, size=(batch, n), dtype=np.uint64) for q in primes
    ])
    fwd = multi.forward(data)
    for i, q in enumerate(primes):
        assert np.array_equal(fwd[i], get_context(n, q).forward(data[i]))
    assert np.array_equal(multi.inverse(fwd), data)


@settings(max_examples=40, deadline=None)
@given(bits=st.integers(2, 42), seed=SEEDS)
def test_mulmod_matches_bigint_reference(bits, seed):
    """Float-assisted Barrett mulmod == exact big-int product, including the
    adversarial corners (operands near q-1, products near multiples of q)."""
    rng = np.random.default_rng(seed)
    q = int(rng.integers(2, 2**bits)) | 1
    if q <= 2:
        q = 3
    a = rng.integers(0, q, size=64, dtype=np.uint64)
    b = rng.integers(0, q, size=64, dtype=np.uint64)
    # splice in boundary operands
    a[:4] = [q - 1, q - 1, 0, 1]
    b[:4] = [q - 1, 1, q - 1, q - 1]
    got = mulmod(a, b, q)
    expected = [(int(x) * int(y)) % q for x, y in zip(a, b)]
    assert got.tolist() == expected
