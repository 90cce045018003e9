"""Tests for CKKS parameter generation."""

import pytest

from repro.ckks.params import CKKSParams
from repro.ntmath.primes import is_prime


@pytest.fixture(scope="module")
def params():
    return CKKSParams(n=256, num_levels=4, dnum=2, hamming_weight=16)


def test_chain_lengths(params):
    assert len(params.base_primes) == params.num_levels + 1
    assert len(params.special_primes) == params.alpha


def test_alpha_is_ceil(params):
    assert params.alpha == -(-(params.num_levels + 1) // params.dnum)


def test_primes_are_ntt_friendly(params):
    for q in params.all_primes:
        assert is_prime(q)
        assert (q - 1) % (2 * params.n) == 0


def test_primes_distinct(params):
    assert len(set(params.all_primes)) == len(params.all_primes)


def test_special_primes_dominate_digits(params):
    """P must exceed every digit product (hybrid keyswitch noise bound)."""
    p = params.p_product
    for level in range(params.num_levels + 1):
        for digit in params.digits_at_level(level):
            product = 1
            for q in digit:
                product *= q
            assert p > product


def test_scale_primes_near_scale(params):
    for q in params.base_primes[1:]:
        assert abs(q - params.scale) / params.scale < 0.01


def test_digits_partition_chain(params):
    for level in range(params.num_levels + 1):
        digits = params.digits_at_level(level)
        flattened = tuple(q for d in digits for q in d)
        assert flattened == params.primes_at_level(level)
        for digit in digits:
            assert 1 <= len(digit) <= params.alpha


def test_primes_at_level_bounds(params):
    with pytest.raises(ValueError):
        params.primes_at_level(-1)
    with pytest.raises(ValueError):
        params.primes_at_level(params.num_levels + 1)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        CKKSParams(n=100, num_levels=2)
    with pytest.raises(ValueError):
        CKKSParams(n=256, num_levels=0)
    with pytest.raises(ValueError):
        CKKSParams(n=256, num_levels=2, dnum=5)
    with pytest.raises(ValueError):
        CKKSParams(n=256, num_levels=2, scale_bits=41)


@pytest.mark.parametrize("weight", [0, -1, 9])
def test_rejects_a_hamming_weight_outside_one_to_n(weight):
    """A weight of 0 would draw an all-zero secret, and one above ``n``
    would fail late, inside key generation."""
    with pytest.raises(ValueError, match="hamming weight"):
        CKKSParams(n=8, num_levels=1, dnum=1, hamming_weight=weight)


@pytest.mark.parametrize("weight", [None, 1, 8])
def test_accepts_a_dense_secret_or_a_weight_in_one_to_n(weight):
    assert CKKSParams(n=8, num_levels=1, dnum=1,
                      hamming_weight=weight).hamming_weight == weight


def test_rejects_a_p_chain_it_cannot_build():
    """The special primes are drawn near ``2**first_prime_bits``; with
    the scale primes at the same width the pool of ``alpha + 2`` holds
    too few primes outside the base chain."""
    with pytest.raises(ValueError, match="P chain"):
        CKKSParams(n=128, num_levels=3, dnum=1, scale_bits=40,
                   first_prime_bits=40)


def test_dnum_one_single_digit():
    p = CKKSParams(n=256, num_levels=3, dnum=1, hamming_weight=16)
    assert p.alpha == 4
    assert len(p.digits_at_level(3)) == 1


def test_dnum_max_per_prime_digits():
    p = CKKSParams(n=256, num_levels=3, dnum=4, hamming_weight=16)
    assert p.alpha == 1
    assert len(p.digits_at_level(3)) == 4
    assert all(len(d) == 1 for d in p.digits_at_level(3))


def test_describe_mentions_structure(params):
    text = params.describe()
    assert "L=4" in text and "dnum=2" in text
