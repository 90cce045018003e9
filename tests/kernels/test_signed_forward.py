"""``ntt_forward`` of signed integers, and the uint64-only operands of every
other kernel.

A signed input is taken mod each channel's prime, so both backends must
return exactly the uint64 forward of ``x mod q_i``.  The numpy backend
transforms small signed rows at small ring degrees as one float64 matrix
product (:class:`repro.poly.ntt.DenseForward`) and everything else through
``np.mod`` and the butterflies; the cases below sit on both sides of its
exactness and size rules.
"""

import numpy as np
import pytest

from repro.kernels import backend_scope, get_backend
from repro.ntmath.primes import generate_ntt_prime, generate_ntt_primes
from repro.poly import ntt as ntt_module
from repro.poly.ntt import (
    DENSE_EXACT_BELOW,
    DENSE_MAX_BYTES,
    DenseForward,
    dense_forward_fits,
    get_dense_forward,
    signed_magnitude,
)
from repro.tfhe.params import PARAM_SET_II, TEST_PARAMS
from repro.tfhe.polymul import get_torus_ntt

BACKENDS = ["numpy", "reference"]


def _mod_forward(x, primes):
    """The oracle: Python-integer residues, then the uint64 forward on the
    per-limb reference backend."""
    res = np.array([[int(v) % q for v in row]
                    for q, row in zip(primes, x.reshape(len(primes), -1))],
                   dtype=np.uint64).reshape(x.shape)
    with backend_scope("reference") as ref:
        return ref.ntt_forward(res, primes)


def _forward(name, x, primes):
    with backend_scope(name) as backend:
        return backend.ntt_forward(x, primes)


@pytest.fixture
def dense_calls(monkeypatch):
    """Count the dense transforms the numpy backend runs."""
    calls = []
    real = ntt_module.DenseForward.forward

    def counted(self, x):
        calls.append(x.shape)
        return real(self, x)

    monkeypatch.setattr(ntt_module.DenseForward, "forward", counted)
    return calls


# ------------------------------ the signed forward ----------------------- #

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n", [8, 256, 1024])
@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("batch", [(), (6,), (6, 3)])
def test_signed_digits_equal_mod_then_forward(backend, n, count, batch, rng):
    """Random gadget digits, with and without batch axes, at degrees on
    both sides of the size rule."""
    primes = tuple(generate_ntt_primes(36, n, count))
    x = rng.integers(-128, 128, (count,) + batch + (n,), dtype=np.int64)
    before = x.copy()
    got = _forward(backend, x, primes)
    assert got.dtype == np.uint64 and got.shape == x.shape
    assert np.array_equal(got, _mod_forward(x, primes))
    assert np.array_equal(x, before)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("digit", [-128, 127])
def test_extreme_digits(backend, digit):
    n = TEST_PARAMS.ring_degree
    primes = get_torus_ntt(n, TEST_PARAMS.digit_row_bound).primes
    x = np.full((1, 6, n), digit, dtype=np.int64)
    assert np.array_equal(_forward(backend, x, primes),
                          _mod_forward(x, primes))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("over", [False, True])
def test_at_the_exactness_rule(backend, over, dense_calls):
    """The largest magnitude the rule admits, and one more: every value at
    that magnitude, the sign alternating by row."""
    n = 256
    primes = (generate_ntt_prime(36, n, seed_offset=0),)
    top = (DENSE_EXACT_BELOW - 1) // (n * primes[0]) + over
    assert dense_forward_fits(n, top, primes) is not over
    x = np.full((1, 4, n), top, dtype=np.int64)
    x[:, 1::2] = -top
    assert np.array_equal(_forward(backend, x, primes),
                          _mod_forward(x, primes))
    dense = 1 if backend == "numpy" and not over else 0
    assert len(dense_calls) == dense


@pytest.mark.parametrize("backend", BACKENDS)
def test_int64_min_takes_the_fallback(backend, dense_calls):
    n = 16
    primes = tuple(generate_ntt_primes(36, n, 2))
    x = np.zeros((2, n), dtype=np.int64)
    x[:, 0] = np.iinfo(np.int64).min
    x[:, 1] = -1
    assert signed_magnitude(x) == 1 << 63
    assert np.array_equal(_forward(backend, x, primes),
                          _mod_forward(x, primes))
    assert dense_calls == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_narrow_signed_dtypes(backend):
    n = 16
    primes = (generate_ntt_prime(36, n, seed_offset=0),)
    x = np.arange(-n // 2, n // 2, dtype=np.int8)[None, :]
    assert np.array_equal(_forward(backend, x, primes),
                          _mod_forward(x.astype(np.int64), primes))


def test_the_rules_at_the_shipped_shapes():
    """TEST_PARAMS digit rows take the dense path; PARAM_SET_II digit rows
    and the split key's halves do not."""
    test = get_torus_ntt(TEST_PARAMS.ring_degree, TEST_PARAMS.digit_row_bound)
    assert dense_forward_fits(test.n, TEST_PARAMS.bg >> 1, test.primes)
    assert not dense_forward_fits(test.n, 1 << 15, test.channels)
    two = get_torus_ntt(PARAM_SET_II.ring_degree,
                        PARAM_SET_II.digit_row_bound)
    assert len(two.primes) == 2
    assert not dense_forward_fits(two.n, PARAM_SET_II.bg >> 1, two.primes)
    # the size rule alone: one prime up to n = 512, two up to n = 256
    q = (generate_ntt_prime(36, 1024, seed_offset=0),)
    assert dense_forward_fits(512, 1, q)
    assert not dense_forward_fits(1024, 1, q)
    assert dense_forward_fits(256, 1, q + q)
    assert not dense_forward_fits(512, 1, q + q)


def test_external_product_digits_are_dense(dense_calls, rng):
    """One external product on TEST_PARAMS: the digit rows' one forward is
    dense; the key spectra fall back to the butterflies."""
    n, rows = TEST_PARAMS.ring_degree, 2 * TEST_PARAMS.decomp_length
    ntt = get_torus_ntt(n, TEST_PARAMS.digit_row_bound)
    with backend_scope("numpy"):
        keys = [ntt.spectrum(rng.integers(-(1 << 31), 1 << 31, (rows, n),
                                          dtype=np.int64)) for _ in range(2)]
        assert dense_calls == []
        u = rng.integers(-128, 128, (rows, 3, n), dtype=np.int64)
        ntt.mul_sum_multi(u, keys)
    assert dense_calls == [(1, rows, 3, n)]


def test_dense_reduction_at_multiples_of_q():
    """``floor(r * (1/q))`` can fall one short of ``m`` at ``r = m * q``
    exactly, leaving ``r - k * q = q``; the reduction must still return
    0 there, and ``q - 1`` and 1 on either side.  A matrix of ``q`` and 1
    makes ``r`` every multiple ``m * q`` below ``2**52`` plus ``d``."""
    q = generate_ntt_prime(36, 2, seed_offset=11)
    dense = DenseForward(2, (q,))
    dense.matrices = np.array([[[q, q], [0, 1]]], dtype=np.float64)
    top = DENSE_EXACT_BELOW // q - 1
    m = np.arange(-top, top + 1, dtype=np.int64)
    # this prime's float 1/q lies far enough below 1/q to fall short
    short = np.floor(m * float(q) * (1.0 / q)) < m
    assert short.any()
    for d in (-1, 0, 1):
        x = np.stack([m, np.full_like(m, d)], axis=-1)[None]
        out = dense.forward(x)
        assert np.array_equal(out[..., 0], np.zeros_like(out[..., 0]))
        assert np.all(out[..., 1] == np.uint64(d % q))


def test_dense_cache_is_bounded():
    maxsize = get_dense_forward.cache_info().maxsize
    assert maxsize is not None
    n = 4
    primes = generate_ntt_primes(20, n, maxsize + 2)
    for q in primes:
        dense = get_dense_forward(n, (q,))
        assert dense.matrices.shape == (1, n, n)
        assert dense.matrices.nbytes <= DENSE_MAX_BYTES
    assert get_dense_forward.cache_info().currsize == maxsize


# ------------------------------ uint64 everywhere else ------------------- #

N = 16
PRIMES = tuple(generate_ntt_primes(36, N, 3))
R = np.arange(3 * N, dtype=np.uint64).reshape(3, N)

#: Every kernel but ``ntt_forward``, with ``x`` in one operand's place.
OPS = {
    "ntt_inverse": lambda b, x: b.ntt_inverse(x, PRIMES),
    "pointwise_mul": lambda b, x: b.pointwise_mul(x, R, PRIMES),
    "pointwise_mul_rhs": lambda b, x: b.pointwise_mul(R, x, PRIMES),
    "pointwise_add": lambda b, x: b.pointwise_add(x, R, PRIMES),
    "pointwise_add_rhs": lambda b, x: b.pointwise_add(R, x, PRIMES),
    "pointwise_sub": lambda b, x: b.pointwise_sub(x, R, PRIMES),
    "pointwise_sub_rhs": lambda b, x: b.pointwise_sub(R, x, PRIMES),
    "negate": lambda b, x: b.negate(x, PRIMES),
    "mac": lambda b, x: b.mac(x[:, None], R[:, None], PRIMES),
    "mac_rhs": lambda b, x: b.mac(R[:, None], x[:, None], PRIMES),
    "mul_channel_scalars": lambda b, x: b.mul_channel_scalars(
        x, [1, 2, 3], PRIMES),
    "automorphism": lambda b, x: b.automorphism(x, 3, PRIMES),
    "automorphism_ntt": lambda b, x: b.automorphism_ntt(x, 3, PRIMES),
    "bconv": lambda b, x: b.bconv(x, PRIMES, PRIMES[:1]),
    "modup": lambda b, x: b.modup(x[:2], PRIMES[:2], PRIMES[2:]),
    "moddown": lambda b, x: b.moddown(x, PRIMES[:2], PRIMES[2:]),
    "rescale": lambda b, x: b.rescale(x, PRIMES),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("dtype", [np.int64, np.float64, np.uint32])
def test_operands_that_are_not_uint64_raise(backend, op, dtype):
    with backend_scope(backend) as b:
        OPS[op](b, R)                       # the uint64 operands work
        with pytest.raises(TypeError, match="dtype"):
            OPS[op](b, R.astype(dtype))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dtype", [np.float64, np.uint32, np.bool_])
def test_ntt_forward_takes_no_other_dtype(backend, dtype):
    """A float ``0.5`` is not truncated to ``0``, nor is any other dtype
    cast: only uint64 residues and signed integers are taken."""
    with backend_scope(backend) as b:
        with pytest.raises(TypeError, match="dtype"):
            b.ntt_forward(np.full((3, N), 0.5).astype(dtype), PRIMES)


@pytest.mark.parametrize("backend", BACKENDS)
def test_minus_one_is_q_minus_one(backend):
    """An int64 ``-1`` is the residue ``q - 1``, not ``2**64 - 1``."""
    x = np.zeros((3, N), dtype=np.int64)
    x[:, 0] = -1
    with backend_scope(backend):
        got = get_backend().ntt_forward(x, PRIMES)
    want = np.zeros((3, N), dtype=np.uint64)
    want[:, 0] = np.array(PRIMES, dtype=np.uint64) - np.uint64(1)
    assert np.array_equal(got, _forward("reference", want, PRIMES))
    assert int(got.max()) < max(PRIMES)
