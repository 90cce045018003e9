"""Tests for the distributed 4-step NTT (Section 5.3, executable)."""

import numpy as np
import pytest

from repro.hw.config import AlchemistConfig
from repro.hw.distributed import DistributedFourStepNTT
from repro.ntmath.primes import generate_ntt_prime
from repro.poly.fourstep import FourStepNTT
from repro.poly.ntt import NTTContext
from tests.oracles import ntt_multiply

UNITS = 16
N = UNITS * UNITS
CFG = AlchemistConfig(num_units=UNITS)
Q = generate_ntt_prime(36, N)


@pytest.fixture
def dntt():
    return DistributedFourStepNTT(CFG, N, Q)


def test_requires_square_factorization():
    with pytest.raises(ValueError):
        DistributedFourStepNTT(CFG, 2 * N, Q)


def test_scatter_gather_roundtrip(dntt, rng):
    poly = rng.integers(0, Q, N, dtype=np.uint64)
    locals_ = dntt.scatter(poly)
    assert len(locals_) == UNITS
    for u, block in enumerate(locals_):
        assert np.array_equal(block, poly[u * UNITS : (u + 1) * UNITS])
    assert np.array_equal(dntt.gather(locals_), poly)


def test_scatter_validates_length(dntt):
    with pytest.raises(ValueError):
        dntt.scatter(np.zeros(N + 1, dtype=np.uint64))


def test_forward_matches_centralized_fourstep(dntt, rng):
    poly = rng.integers(0, Q, N, dtype=np.uint64)
    spectrum = dntt.spectrum_natural_order(dntt.forward(dntt.scatter(poly)))
    reference = FourStepNTT(UNITS, UNITS, Q).forward(poly)
    assert np.array_equal(spectrum, reference)


def test_forward_inverse_roundtrip(dntt, rng):
    poly = rng.integers(0, Q, N, dtype=np.uint64)
    back = dntt.gather(dntt.inverse(dntt.forward(dntt.scatter(poly))))
    assert np.array_equal(back, poly)


def test_distributed_multiply_matches_direct(dntt, rng):
    a = rng.integers(0, Q, N, dtype=np.uint64)
    b = rng.integers(0, Q, N, dtype=np.uint64)
    got = dntt.multiply_polynomials(a, b)
    expected = ntt_multiply(NTTContext(N, Q), a, b)
    assert np.array_equal(got, expected)


def test_transpose_accounting(dntt, rng):
    """A forward transform uses exactly 2 global transposes; a full
    multiply (2 forward + 1 inverse) uses 6; pointwise ops use none."""
    poly = rng.integers(0, Q, N, dtype=np.uint64)
    spec = dntt.forward(dntt.scatter(poly))
    assert dntt.transposes_performed == 2
    dntt.pointwise_multiply(spec, spec)
    assert dntt.transposes_performed == 2  # pointwise is fully local
    dntt.inverse(spec)
    assert dntt.transposes_performed == 4
    # each transpose moves the full polynomial in and out of the RF
    assert dntt.words_through_transpose_rf == 4 * 2 * N


def test_local_compute_never_exceeds_unit_slice(dntt, rng):
    """The locality assertion fires if a step is handed non-local data."""
    with pytest.raises(AssertionError):
        dntt._local_matvec(dntt.four.col_matrix,
                           np.zeros(2 * UNITS, dtype=np.uint64))


def test_pointwise_layout_agnostic(dntt, rng):
    """Multiplying two transposed-layout spectra and inverting equals the
    coefficient-domain negacyclic product — the layout trick that lets the
    hardware skip two transposes per multiply."""
    a = rng.integers(0, Q, N, dtype=np.uint64)
    b = rng.integers(0, Q, N, dtype=np.uint64)
    fa = dntt.forward(dntt.scatter(a))
    fb = dntt.forward(dntt.scatter(b))
    prod = dntt.gather(dntt.inverse(dntt.pointwise_multiply(fa, fb)))
    assert np.array_equal(prod, ntt_multiply(NTTContext(N, Q), a, b))


def test_paper_configuration_shape():
    """The paper's actual geometry: 128 units, N = 16384."""
    cfg = AlchemistConfig()  # 128 units
    q = generate_ntt_prime(36, 16384)
    d = DistributedFourStepNTT(cfg, 16384, q)
    assert d.four.n1 == d.four.n2 == 128
    rng = np.random.default_rng(1)
    poly = rng.integers(0, q, 16384, dtype=np.uint64)
    back = d.gather(d.inverse(d.forward(d.scatter(poly))))
    assert np.array_equal(back, poly)
