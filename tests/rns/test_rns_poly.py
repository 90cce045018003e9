"""Tests for the RNSPoly container and its ring/basis operations."""

import numpy as np
import pytest

from repro.ntmath.primes import generate_ntt_primes
from repro.rns.rns_poly import RNSRing

N = 32
PRIMES = generate_ntt_primes(30, N, 6)


@pytest.fixture
def ring():
    return RNSRing(N, PRIMES)


def test_zero_and_shapes(ring):
    z = ring.zero()
    assert z.num_channels == len(PRIMES)
    assert np.all(z.data == 0)
    z2 = ring.zero(primes=PRIMES[:2])
    assert z2.num_channels == 2


def test_ring_rejects_duplicate_primes():
    with pytest.raises(ValueError):
        RNSRing(N, [PRIMES[0], PRIMES[0]])


def test_from_ints_consistent_channels(ring):
    values = list(range(-16, 16))
    p = ring.from_ints(values)
    for i, q in enumerate(PRIMES):
        assert p.data[i].tolist() == [v % q for v in values]


def test_from_ints_int64_path_matches_object_path(ring, rng):
    edge = (1 << 62) - 1
    values = rng.integers(-edge, edge, N, dtype=np.int64)
    values[:6] = [0, -1, 1, edge, -edge, -(1 << 62)]
    fast = ring.from_ints(values)
    exact = ring.from_ints(values.astype(object))
    assert fast.data.dtype == np.uint64
    assert np.array_equal(fast.data, exact.data)
    assert fast.primes == exact.primes and not fast.ntt_form
    for i, q in enumerate(PRIMES):
        assert fast.data[i].tolist() == [int(v) % q for v in values]
    narrow = values.astype(np.int32)
    assert np.array_equal(ring.from_ints(narrow).data,
                          ring.from_ints(narrow.astype(object)).data)


def test_from_ints_list_with_unbounded_ints_stays_exact(ring):
    """A Python list never goes through a numpy integer dtype: numpy
    would infer float64 for ``[-1, 2**63]`` and round silently."""
    values = [-1, 1 << 63, -(1 << 80) - 3, (1 << 64) + 5] + list(range(N - 4))
    p = ring.from_ints(values)
    for i, q in enumerate(PRIMES):
        assert p.data[i].tolist() == [v % q for v in values]


def test_from_ints_wrong_length(ring):
    with pytest.raises(ValueError):
        ring.from_ints([1, 2, 3])
    with pytest.raises(ValueError):
        ring.from_ints(np.arange(3, dtype=np.int64))


def test_sample_ternary_range(ring, rng):
    """Every channel holds the same coefficients in {-1, 0, 1}."""
    coeffs = ring.sample_ternary(rng).to_centered_bigints()
    assert set(coeffs) <= {-1, 0, 1}


def test_sample_ternary_hamming_weight(ring, rng):
    coeffs = ring.sample_ternary(rng, hamming_weight=8).to_centered_bigints()
    assert set(coeffs) <= {-1, 0, 1}
    assert sum(c != 0 for c in coeffs) == 8
    with pytest.raises(ValueError):
        ring.sample_ternary(rng, hamming_weight=N + 1)


def test_sample_error_small(ring, rng):
    coeffs = ring.sample_error(rng, sigma=3.2).to_centered_bigints()
    assert max(abs(c) for c in coeffs) < 40  # ~12 sigma, astronomically safe


def test_add_sub_roundtrip(ring, rng):
    a = ring.sample_uniform(rng)
    b = ring.sample_uniform(rng)
    assert np.array_equal(((a + b) - b).data, a.data)


def test_neg(ring, rng):
    a = ring.sample_uniform(rng)
    assert np.all((a + (-a)).data == 0)


def test_form_mismatch_raises(ring, rng):
    a = ring.sample_uniform(rng)
    b = ring.sample_uniform(rng).to_ntt()
    with pytest.raises(ValueError):
        _ = a + b


def test_basis_mismatch_raises(ring, rng):
    a = ring.sample_uniform(rng)
    b = ring.sample_uniform(rng, primes=PRIMES[:3])
    with pytest.raises(ValueError):
        _ = a + b


def test_ntt_roundtrip(ring, rng):
    a = ring.sample_uniform(rng)
    assert np.array_equal(a.to_ntt().to_coeff().data, a.data)
    assert a.to_ntt().ntt_form and not a.to_ntt().to_coeff().ntt_form


def test_mul_matches_bigint_convolution(ring, rng):
    """RNS product agrees with exact negacyclic convolution over Z_Q."""
    a = ring.from_ints(rng.integers(-100, 100, N))
    b = ring.from_ints(rng.integers(-100, 100, N))
    prod = (a.to_ntt() * b.to_ntt()).to_coeff()
    got = prod.to_centered_bigints()
    av = [int(v) for v in a.to_centered_bigints()]
    bv = [int(v) for v in b.to_centered_bigints()]
    expected = [0] * N
    for i in range(N):
        for j in range(N):
            k = i + j
            if k < N:
                expected[k] += av[i] * bv[j]
            else:
                expected[k - N] -= av[i] * bv[j]
    assert got == expected


def test_mul_in_coeff_form_auto_transforms(ring, rng):
    a = ring.from_ints(rng.integers(-5, 5, N))
    b = ring.from_ints(rng.integers(-5, 5, N))
    via_coeff = a * b
    via_ntt = (a.to_ntt() * b.to_ntt()).to_coeff()
    assert np.array_equal(via_coeff.data, via_ntt.data)
    assert not via_coeff.ntt_form


def test_mul_scalar(ring, rng):
    a = ring.sample_uniform(rng)
    doubled = a.mul_scalar(2)
    assert np.array_equal(doubled.data, (a + a).data)
    neg = a.mul_scalar(-1)
    assert np.array_equal(neg.data, (-a).data)


def test_mul_channel_scalars(ring, rng):
    a = ring.sample_uniform(rng)
    scalars = [2] * len(PRIMES)
    assert np.array_equal(a.mul_channel_scalars(scalars).data, (a + a).data)
    with pytest.raises(ValueError):
        a.mul_channel_scalars([1, 2])


def test_automorphism_consistent_across_channels(ring, rng):
    a = ring.from_ints(rng.integers(-50, 50, N))
    rotated = a.automorphism(5)
    # applying the automorphism to the big-int lift must match
    vals = a.to_centered_bigints()
    expected = [0] * N
    for i in range(N):
        idx = (i * 5) % (2 * N)
        sign = 1
        if idx >= N:
            idx -= N
            sign = -1
        expected[idx] += sign * vals[i]
    assert rotated.to_centered_bigints() == expected


@pytest.fixture
def one_prime_ring():
    return RNSRing(N, PRIMES[:1])


def test_automorphism_composition(one_prime_ring, rng):
    a = one_prime_ring.sample_uniform(rng)
    g1, g2 = 3, 5
    assert np.array_equal(a.automorphism(g1).automorphism(g2).data,
                          a.automorphism((g1 * g2) % (2 * N)).data)


def test_automorphism_identity(one_prime_ring, rng):
    a = one_prime_ring.sample_uniform(rng)
    assert np.array_equal(a.automorphism(1).data, a.data)


def test_automorphism_is_ring_homomorphism(one_prime_ring, rng):
    a = one_prime_ring.sample_uniform(rng)
    b = one_prime_ring.sample_uniform(rng)
    k = 2 * N - 1  # conjugation-like map
    assert np.array_equal((a * b).automorphism(k).data,
                          (a.automorphism(k) * b.automorphism(k)).data)


def test_automorphism_rejects_even(ring):
    with pytest.raises(ValueError):
        ring.zero(primes=PRIMES[:1]).automorphism(2)


def test_automorphism_requires_coeff_form(ring, rng):
    a = ring.sample_uniform(rng).to_ntt()
    with pytest.raises(ValueError):
        a.automorphism(3)


def test_drop_last(ring, rng):
    a = ring.sample_uniform(rng)
    dropped = a.drop_last(2)
    assert dropped.primes == tuple(PRIMES[:-2])
    assert np.array_equal(dropped.data, a.data[:-2])
    with pytest.raises(ValueError):
        a.drop_last(len(PRIMES))


@pytest.mark.parametrize("ntt_form", [False, True])
def test_restrict_selects_any_subset_in_any_order(ring, rng, ntt_form):
    a = ring.sample_uniform(rng)
    a = a.to_ntt() if ntt_form else a
    for size in range(1, len(PRIMES) + 1):
        want = tuple(int(q) for q in rng.permutation(PRIMES)[:size])
        got = a.restrict(want)
        assert (got.primes, got.ntt_form) == (want, ntt_form)
        for row, q in zip(got.data, want):
            assert np.array_equal(row, a.data[PRIMES.index(q)])
        # cutting the NTT form equals transforming the cut
        cut = a.to_coeff().restrict(want)
        assert np.array_equal(a.to_ntt().restrict(want).data,
                              cut.to_ntt().data)
    got = a.restrict(PRIMES[:2])
    got.data[:] = 0
    assert a.data[:2].any()  # a fresh copy


def test_restrict_rejects_a_missing_prime(ring, rng):
    a = ring.sample_uniform(rng, primes=PRIMES[:3])
    with pytest.raises(ValueError, match="no channel"):
        a.restrict(PRIMES[2:4])


def test_rescale_reduces_channels(ring, rng):
    a = ring.sample_uniform(rng)
    rescaled = a.rescale()
    assert rescaled.num_channels == len(PRIMES) - 1
    with pytest.raises(ValueError):
        a.to_ntt().rescale()


def test_modup_moddown_roundtrip_value(ring, rng):
    """modup to QP then moddown(after scaling by P) returns the original."""
    base = PRIMES[:4]
    special = PRIMES[4:6]
    sub = RNSRing(N, PRIMES)
    a = sub.sample_uniform(rng, primes=base)
    p_product = int(special[0]) * int(special[1])
    up = a.modup(special)
    assert up.primes == tuple(base) + tuple(special)
    scaled = up.mul_scalar(p_product)
    down = scaled.moddown(len(special))
    assert down.primes == tuple(base)
    assert np.array_equal(down.data, a.data)


def test_modup_requires_coeff_form(ring, rng):
    a = ring.sample_uniform(rng, primes=PRIMES[:3]).to_ntt()
    with pytest.raises(ValueError):
        a.modup(PRIMES[3:5])


def test_bigint_roundtrip(ring, rng):
    vals = [int(v) for v in rng.integers(-1000, 1000, N)]
    a = ring.from_ints(vals)
    assert a.to_centered_bigints() == vals


def test_copy_is_independent(ring, rng):
    a = ring.sample_uniform(rng)
    b = a.copy()
    b.data[0][0] = (int(b.data[0][0]) + 1) % PRIMES[0]
    assert not np.array_equal(a.data, b.data)
