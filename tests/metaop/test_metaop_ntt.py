"""Tests for the full NTT executed purely through Meta-OP operations."""

import numpy as np
import pytest

from repro.metaop.metaop_ntt import MetaOpNTT
from repro.ntmath.modular import mulmod
from repro.ntmath.primes import generate_ntt_prime
from repro.poly.ntt import get_context
from tests.oracles import ntt_multiply


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 512])
def test_metaop_ntt_bit_exact(n, rng):
    """Whole negacyclic NTTs — every power-of-two size class (8^a, 2*8^a,
    4*8^a) — computed only with (M8A8)_nR8 core operations, bit-exact
    against the production NTT."""
    q = generate_ntt_prime(36, n)
    a = rng.integers(0, q, n, dtype=np.uint64)
    mo = MetaOpNTT(n, q)
    got = mo.forward(a)
    ctx = get_context(n, q)
    expected = ctx.to_natural_order(ctx.forward(a))
    assert np.array_equal(got, expected)


def test_metaop_ntt_tally_scales(rng):
    """The executor really accounts every core operation."""
    n, q = 64, generate_ntt_prime(36, 64)
    mo = MetaOpNTT(n, q)
    mo.forward(rng.integers(0, q, n, dtype=np.uint64))
    tally = mo.executor.tally
    # weighting: n/8 elementwise ops; butterflies: 2 radix-8 levels of n/8
    assert tally.meta_ops == n // 8 + 2 * (n // 8)
    assert tally.raw_mults > 0
    assert tally.core_cycles == (n // 8) * 3 + 2 * (n // 8) * 5


def test_metaop_ntt_supports_polynomial_multiplication(rng):
    """Forward via Meta-OPs + pointwise + production inverse = negacyclic
    product: the Meta-OP machine is a drop-in NTT engine."""
    n, q = 64, generate_ntt_prime(36, 64)
    a = rng.integers(0, q, n, dtype=np.uint64)
    b = rng.integers(0, q, n, dtype=np.uint64)
    ctx = get_context(n, q)
    mo = MetaOpNTT(n, q)
    # meta-op spectra are natural-order; convert to the bit-reversed order
    # the production inverse expects
    rev = ctx._rev
    fa = np.empty(n, dtype=np.uint64)
    fb = np.empty(n, dtype=np.uint64)
    fa[rev] = mo.forward(a)
    fb[rev] = mo.forward(b)
    prod = ctx.inverse(mulmod(fa, fb, q))
    assert np.array_equal(prod, ntt_multiply(ctx, a, b))


def test_metaop_ntt_validation():
    q = generate_ntt_prime(36, 64)
    with pytest.raises(ValueError):
        MetaOpNTT(60, q)
    with pytest.raises(ValueError):
        MetaOpNTT(64, 97)
    mo = MetaOpNTT(64, q)
    with pytest.raises(ValueError):
        mo.forward(np.zeros(32, dtype=np.uint64))


def test_mult_overhead_near_ten_percent(rng):
    """The executed raw-mult count shows the ~10% Meta-OP NTT overhead of
    Section 4.2 (weighting pass excluded — it exists in both executions)."""
    from repro.poly.radix import ntt_mult_count_radix2

    n, q = 512, generate_ntt_prime(36, 512)
    mo = MetaOpNTT(n, q)
    mo.forward(rng.integers(0, q, n, dtype=np.uint64))
    weighting_mults = (n // 8) * 24          # (M8A8)_1R8 per 8 coefficients
    butterfly_mults = mo.executor.tally.raw_mults - weighting_mults
    overhead = butterfly_mults / ntt_mult_count_radix2(n) - 1
    assert 0.08 < overhead < 0.12