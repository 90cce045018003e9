"""Tests for the 4-step NTT and its slot-partition properties."""

import numpy as np
import pytest

from repro.ntmath.primes import generate_ntt_prime
from repro.poly.fourstep import FourStepNTT
from repro.poly.ntt import NTTContext
from tests.oracles import ntt_multiply


@pytest.mark.parametrize("n1,n2", [(4, 4), (8, 4), (16, 16), (32, 8)])
def test_roundtrip(n1, n2, rng):
    n = n1 * n2
    q = generate_ntt_prime(36, n)
    four = FourStepNTT(n1, n2, q)
    a = rng.integers(0, q, n, dtype=np.uint64)
    assert np.array_equal(four.inverse(four.forward(a)), a)


@pytest.mark.parametrize("n1,n2", [(4, 4), (8, 8), (16, 4)])
def test_matches_direct_ntt_as_multiset(n1, n2, rng):
    """The 4-step spectrum contains exactly the same evaluations as the
    direct NTT (they are permutations of each other)."""
    n = n1 * n2
    q = generate_ntt_prime(36, n)
    four = FourStepNTT(n1, n2, q)
    direct = NTTContext(n, q)
    a = rng.integers(0, q, n, dtype=np.uint64)
    got = sorted(four.forward(a).tolist())
    expected = sorted(direct.forward(a).tolist())
    assert got == expected


def test_natural_order_evaluations(rng):
    """4-step output index k holds the evaluation at psi^(2k+1)."""
    n1 = n2 = 4
    n = n1 * n2
    q = generate_ntt_prime(30, n)
    four = FourStepNTT(n1, n2, q)
    a = rng.integers(0, q, n, dtype=np.uint64)
    spec = four.forward(a)
    for k in range(n):
        x = pow(four.psi, 2 * k + 1, q)
        val = 0
        for coeff in a[::-1]:
            val = (val * x + int(coeff)) % q
        assert int(spec[k]) == val


def test_pointwise_multiply_through_fourstep(rng):
    """Multiplication via 4-step forward/inverse equals the NTT product."""
    n1, n2 = 8, 8
    n = n1 * n2
    q = generate_ntt_prime(36, n)
    four = FourStepNTT(n1, n2, q)
    direct = NTTContext(n, q)
    a = rng.integers(0, q, n, dtype=np.uint64)
    b = rng.integers(0, q, n, dtype=np.uint64)
    from repro.ntmath.modular import mulmod

    prod = four.inverse(mulmod(four.forward(a), four.forward(b), q))
    assert np.array_equal(prod, ntt_multiply(direct, a, b))


def test_paper_configuration_16384():
    """N=16384 = 128 x 128 decomposition from Section 5.3 constructs."""
    q = generate_ntt_prime(36, 16384)
    four = FourStepNTT(128, 128, q)
    assert four.n == 16384
    assignment = four.slot_assignment(128)
    # each unit owns a contiguous block of 128 slots (Figure 5(b))
    assert assignment[0] == 0 and assignment[127] == 0
    assert assignment[128] == 1
    counts = np.bincount(assignment)
    assert np.all(counts == 128)


def test_slot_assignment_validates_divisibility():
    q = generate_ntt_prime(30, 16)
    four = FourStepNTT(4, 4, q)
    with pytest.raises(ValueError):
        four.slot_assignment(5)


def test_rejects_bad_shapes():
    q = generate_ntt_prime(30, 16)
    with pytest.raises(ValueError):
        FourStepNTT(3, 4, q)
    four = FourStepNTT(4, 4, q)
    with pytest.raises(ValueError):
        four.forward(np.zeros(8, dtype=np.uint64))


def test_asymmetric_split_roundtrip_large(rng):
    """A 1024-point transform split 128 x 8 (per-unit working set style)."""
    q = generate_ntt_prime(36, 1024)
    four = FourStepNTT(128, 8, q)
    a = rng.integers(0, q, 1024, dtype=np.uint64)
    assert np.array_equal(four.inverse(four.forward(a)), a)
