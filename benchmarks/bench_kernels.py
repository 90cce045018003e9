"""Microbenchmarks of the functional Python kernels (pytest-benchmark).

These time the *software* substrate itself — NTT, Bconv, CKKS operator
pipeline, TFHE CMux — which is what the paper's CPU baseline column
measures (at much larger parameters).  They also guard against performance
regressions in the vectorized kernels.

The ``*_paper`` benchmarks run the RNS basis-change kernels at the paper's
chain scale (L = 44, dnum = 4 -> 45 base + 12 special primes) through the
active kernel backend (:mod:`repro.kernels`) — select one with
``REPRO_KERNEL_BACKEND=reference pytest ...`` to time the per-limb
baseline instead of the batched default.

This file is also the producer of the committed ``BENCH_kernels.json``
golden: ``PYTHONPATH=src python benchmarks/bench_kernels.py -o
BENCH_kernels.json`` delegates to :mod:`repro.kernels.bench`, which times
every kernel under both backends and records speedups + bit-identity.
"""

import sys

import numpy as np
import pytest

from repro.ckks.encoder import CKKSEncoder
from repro.ckks.params import CKKSParams
from repro.kernels import get_backend
from repro.ntmath.modular import mulmod
from repro.ntmath.primes import generate_ntt_prime, generate_ntt_primes
from repro.poly.ntt import get_context
from repro.tfhe.params import PARAM_SET_I, TEST_PARAMS
from repro.tfhe.polymul import get_torus_ntt


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="module")
def paper_chain(rng):
    """Residue matrices over the paper chain (45 base + 12 special primes)."""
    params = CKKSParams(n=256, num_levels=44, dnum=4)
    base = tuple(params.base_primes)
    special = tuple(params.special_primes)
    digit = tuple(params.digits_at_level(params.num_levels)[0])
    complement = tuple(q for q in base + special if q not in digit)

    def residues(primes):
        return np.stack(
            [rng.integers(0, q, params.n, dtype=np.uint64) for q in primes])

    return {
        "base": base, "special": special,
        "digit": digit, "complement": complement,
        "x_base": residues(base),
        "x_digit": residues(digit),
        "x_full": residues(base + special),
    }


def test_bench_mulmod_1m(benchmark, rng):
    q = generate_ntt_prime(36, 1024)
    a = rng.integers(0, q, 1 << 20, dtype=np.uint64)
    b = rng.integers(0, q, 1 << 20, dtype=np.uint64)
    out = benchmark(mulmod, a, b, q)
    assert out.shape == a.shape


def test_bench_ntt_forward_4096(benchmark, rng):
    n = 4096
    q = generate_ntt_prime(36, n)
    ctx = get_context(n, q)
    a = rng.integers(0, q, n, dtype=np.uint64)
    spec = benchmark(ctx.forward, a)
    assert spec.shape == (n,)


def test_bench_ntt_roundtrip_batch(benchmark, rng):
    n = 1024
    q = generate_ntt_prime(36, n)
    ctx = get_context(n, q)
    batch = rng.integers(0, q, (16, n), dtype=np.uint64)

    def roundtrip():
        return ctx.inverse(ctx.forward(batch))

    out = benchmark(roundtrip)
    assert np.array_equal(out, batch)


def test_bench_bconv(benchmark, rng):
    primes = generate_ntt_primes(30, 1024, 8)
    source, target = primes[:6], primes[6:]
    x = np.stack([rng.integers(0, q, 4096, dtype=np.uint64) for q in source])
    out = benchmark(get_backend().bconv, x, source, target)
    assert out.shape == (2, 4096)


def test_bench_bconv_paper(benchmark, paper_chain):
    c = paper_chain
    out = benchmark(
        get_backend().bconv, c["x_base"], c["base"], c["special"])
    assert out.shape == (len(c["special"]), c["x_base"].shape[-1])


def test_bench_modup_paper(benchmark, paper_chain):
    c = paper_chain
    out = benchmark(
        get_backend().modup, c["x_digit"], c["digit"], c["complement"])
    assert out.shape == (len(c["base"]) + len(c["special"]),
                         c["x_digit"].shape[-1])


def test_bench_moddown_paper(benchmark, paper_chain):
    c = paper_chain
    out = benchmark(
        get_backend().moddown, c["x_full"], c["base"], c["special"])
    assert out.shape == (len(c["base"]), c["x_full"].shape[-1])


def test_bench_ckks_encode(benchmark, rng):
    encoder = CKKSEncoder(4096, float(1 << 30))
    z = rng.normal(size=2048)
    coeffs = benchmark(encoder.encode, z)
    assert coeffs.shape == (4096,)


def test_bench_tfhe_external_product(benchmark, rng):
    from repro.tfhe.trgsw import TrgswKey, trgsw_encrypt
    from repro.tfhe.trlwe import TrlweKey, trlwe_encrypt
    from repro.tfhe.torus import encode_message

    key = TrlweKey.generate(TEST_PARAMS, rng)
    gsw = trgsw_encrypt(1, TrgswKey(key), rng)
    msg = encode_message(np.ones(TEST_PARAMS.ring_degree, dtype=np.int64), 4)
    sample = trlwe_encrypt(msg, key, rng)
    out = benchmark(gsw.external_product, sample)
    assert out.a.shape == (TEST_PARAMS.ring_degree,)


def test_bench_torus_ntt_mul_sum(benchmark, rng):
    """One external product's row sums at ``PARAM_SET_I``: the split key
    on one prime, the layout its blind rotation runs."""
    ntt = get_torus_ntt(PARAM_SET_I.ring_degree, PARAM_SET_I.digit_row_bound)
    rows = 2 * PARAM_SET_I.decomp_length
    u = rng.integers(-64, 64, (rows, 1024), dtype=np.int64)
    v = rng.integers(-(1 << 31), 1 << 31, (rows, 1024), dtype=np.int64)
    spec = ntt.spectrum(v)
    out = benchmark(ntt.mul_sum, u, spec)
    assert out.shape == (1024,)


def test_bench_cycle_sim_bootstrapping(benchmark, simulator):
    """Time of simulating a full bootstrapping program (sim speed itself)."""
    from repro.compiler.ckks_programs import bootstrapping_program

    program = bootstrapping_program()
    report = benchmark(simulator.run, program)
    assert report.cycles > 0


if __name__ == "__main__":
    # producer mode: regenerate the committed kernel-throughput golden
    from repro.kernels.bench import main

    sys.exit(main())
