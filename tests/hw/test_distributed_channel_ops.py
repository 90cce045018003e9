"""Tests for distributed Bconv / DecompPolyMult (Table 4 locality rows)."""

import numpy as np
import pytest

from repro.hw.config import AlchemistConfig
from repro.hw.distributed import DistributedChannelOps
from repro.kernels import get_backend
from repro.ntmath.modular import mulmod
from repro.ntmath.primes import generate_ntt_primes

CFG = AlchemistConfig(num_units=16)
N = 64
PRIMES = generate_ntt_primes(30, N, 6)


@pytest.fixture
def dops():
    return DistributedChannelOps(CFG, N)


def test_scatter_gather_roundtrip(dops, rng):
    matrix = rng.integers(0, PRIMES[0], (3, N), dtype=np.uint64)
    pieces = dops.scatter_channels(matrix)
    assert len(pieces) == 16
    assert pieces[0].shape == (3, N // 16)
    assert np.array_equal(dops.gather_channels(pieces), matrix)


def test_scatter_validates_shape(dops):
    with pytest.raises(ValueError):
        dops.scatter_channels(np.zeros(N, dtype=np.uint64))
    with pytest.raises(ValueError):
        DistributedChannelOps(CFG, 17)


def test_distributed_bconv_matches_global(dops, rng):
    """Bconv over per-unit slot slices equals the global kernel — the
    channel access pattern is unit-local under slot partitioning."""
    source, target = PRIMES[:3], PRIMES[3:5]
    x = np.stack([rng.integers(0, q, N, dtype=np.uint64) for q in source])
    got = dops.bconv(x, source, target)
    expected = get_backend().bconv(x, source, target)
    assert np.array_equal(got, expected)


def test_distributed_decomp_matches_global(dops, rng):
    """The evk accumulation equals the global multiply-accumulate — the
    dnum-group access pattern is unit-local under slot partitioning."""
    q = PRIMES[0]
    dnum = 4
    digits = rng.integers(0, q, (dnum, N), dtype=np.uint64)
    evk = rng.integers(0, q, (dnum, N), dtype=np.uint64)
    got = dops.decomp_poly_mult(digits, evk, q)
    prods = mulmod(digits, evk, q)
    expected = prods.sum(axis=0, dtype=np.uint64) % np.uint64(q)
    assert np.array_equal(got, expected)


def test_paper_geometry():
    """128 units, N = 65536: 512 slots per unit (the Table 7 setting)."""
    dops = DistributedChannelOps(AlchemistConfig(), 65536)
    assert dops.slots_per_unit == 512
