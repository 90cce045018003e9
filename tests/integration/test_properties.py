"""Property-based tests (hypothesis) on the core algebraic invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ntmath.primes import generate_ntt_primes
from repro.rns.rns_poly import RNSRing
from repro.tfhe.torus import to_centered_int64
from repro.tfhe.trgsw import gadget_decompose

N = 16
PRIMES = generate_ntt_primes(30, N, 3)
RING = RNSRing(N, PRIMES)


def _poly(draw, lo=-50, hi=50):
    coeffs = draw(st.lists(st.integers(lo, hi), min_size=N, max_size=N))
    return RING.from_ints(coeffs)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_ring_addition_commutative_associative(data):
    a, b, c = _poly(data.draw), _poly(data.draw), _poly(data.draw)
    assert np.array_equal((a + b).data, (b + a).data)
    assert np.array_equal(((a + b) + c).data, (a + (b + c)).data)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_ring_multiplication_commutative(data):
    a, b = _poly(data.draw), _poly(data.draw)
    assert np.array_equal((a * b).data, (b * a).data)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_ring_distributivity(data):
    a, b, c = _poly(data.draw), _poly(data.draw), _poly(data.draw)
    lhs = (a * (b + c)).data
    rhs = ((a * b) + (a * c)).data
    assert np.array_equal(lhs, rhs)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), k=st.sampled_from([3, 5, 7, 9, 31]))
def test_automorphism_is_multiplicative(data, k):
    a, b = _poly(data.draw), _poly(data.draw)
    lhs = (a * b).automorphism(k).data
    rhs = (a.automorphism(k) * b.automorphism(k)).data
    assert np.array_equal(lhs, rhs)


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(st.integers(0, (1 << 32) - 1), min_size=8, max_size=8),
    bg_bit=st.sampled_from([4, 8, 16]),
    length=st.integers(1, 3),
)
def test_gadget_decomposition_property(values, bg_bit, length):
    """Reconstruction error bounded by 2^(32 - l*bg) for every input."""
    if bg_bit * length > 32:
        length = 32 // bg_bit
    poly = np.array(values, dtype=np.uint32)
    digits = gadget_decompose(poly, bg_bit, length)
    half = 1 << (bg_bit - 1)
    assert digits.min() >= -half and digits.max() < half
    recon = np.zeros(len(values), dtype=np.int64)
    for i in range(length):
        recon += digits[i] << (32 - (i + 1) * bg_bit)
    err = np.abs(to_centered_int64(
        (recon % (1 << 32)).astype(np.uint32) - poly))
    assert err.max() <= 1 << (32 - length * bg_bit)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_crt_consistency_of_ring_ops(data):
    """RNS channel-wise ops equal big-integer ring ops (CRT isomorphism)."""
    a, b = _poly(data.draw, -20, 20), _poly(data.draw, -20, 20)
    product = (a * b).to_centered_bigints()
    av = a.to_centered_bigints()
    bv = b.to_centered_bigints()
    expected = [0] * N
    for i in range(N):
        for j in range(N):
            k = i + j
            if k < N:
                expected[k] += av[i] * bv[j]
            else:
                expected[k - N] -= av[i] * bv[j]
    assert product == expected


@settings(max_examples=25, deadline=None)
@given(
    slots=st.lists(
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        min_size=8, max_size=8,
    )
)
def test_ckks_encode_decode_property(slots):
    from repro.ckks.encoder import CKKSEncoder

    encoder = CKKSEncoder(16, float(1 << 30))
    z = np.array(slots)
    back = encoder.decode(encoder.encode(z))
    assert np.abs(back - z).max() < 1e-5


@settings(max_examples=25, deadline=None)
@given(
    mults=st.lists(
        st.tuples(st.integers(0, (1 << 30) - 1), st.integers(0, (1 << 30) - 1)),
        min_size=1, max_size=8,
    )
)
def test_metaop_mac_equals_formula(mults):
    """Lane-0 of a Meta-OP equals the direct multiply-accumulate formula."""
    from repro.metaop.meta_op import AccessPattern, MetaOp, MetaOpExecutor

    q = PRIMES[0]
    n = len(mults)
    a = np.zeros((n, 8), dtype=object)
    b = np.zeros((n, 8), dtype=object)
    for c, (x, y) in enumerate(mults):
        a[c, 0] = x % q
        b[c, 0] = y % q
    ex = MetaOpExecutor(j=8)
    out = ex.execute(MetaOp(8, n, AccessPattern.DNUM_GROUP), a, b, q)
    expected = sum((x % q) * (y % q) for x, y in mults) % q
    assert int(out[0]) == expected
