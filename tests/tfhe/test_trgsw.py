"""Tests for gadget decomposition, external product, and CMux."""

import numpy as np
import pytest

from repro.tfhe.params import TEST_PARAMS
from repro.tfhe.torus import TORUS_MODULUS, encode_message, to_centered_int64
from repro.tfhe.trgsw import TrgswKey, gadget_decompose, trgsw_encrypt
from repro.tfhe.trlwe import TrlweKey, trlwe_decrypt_phase, trlwe_encrypt


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(23)
    ring_key = TrlweKey.generate(TEST_PARAMS, rng)
    gsw_key = TrgswKey(ring_key)
    return ring_key, gsw_key, rng


def test_gadget_decompose_reconstructs(rng):
    params = TEST_PARAMS
    poly = rng.integers(0, 1 << 32, params.ring_degree, dtype=np.int64).astype(
        np.uint32
    )
    digits = gadget_decompose(poly, params.bg_bit, params.decomp_length)
    half = params.bg // 2
    assert digits.min() >= -half and digits.max() < half
    recon = np.zeros(params.ring_degree, dtype=np.int64)
    for i in range(params.decomp_length):
        recon += digits[i] << (32 - (i + 1) * params.bg_bit)
    err = np.abs(to_centered_int64((recon % (1 << 32)).astype(np.uint32) - poly))
    bound = 1 << (32 - params.decomp_length * params.bg_bit)
    assert err.max() <= bound


def test_gadget_decompose_zero():
    digits = gadget_decompose(
        np.zeros(16, dtype=np.uint32), TEST_PARAMS.bg_bit, TEST_PARAMS.decomp_length
    )
    assert np.all(digits == 0)


def test_gadget_decompose_exact_gadget_values():
    """Decomposing g_i itself yields the unit digit at position i."""
    params = TEST_PARAMS
    for i in range(params.decomp_length):
        poly = np.zeros(16, dtype=np.uint32)
        poly[0] = np.uint32(1 << (32 - (i + 1) * params.bg_bit))
        digits = gadget_decompose(poly, params.bg_bit, params.decomp_length)
        assert digits[i][0] == 1
        others = [j for j in range(params.decomp_length) if j != i]
        for j in others:
            assert digits[j][0] == 0


def test_external_product_by_one(setup):
    ring_key, gsw_key, rng = setup
    n = TEST_PARAMS.ring_degree
    msg = encode_message(np.arange(n) % 4, 4)
    c = trlwe_encrypt(msg, ring_key, rng)
    gsw_one = trgsw_encrypt(1, gsw_key, rng)
    out = gsw_one.external_product(c)
    err = np.abs(to_centered_int64(trlwe_decrypt_phase(out, ring_key) - msg))
    assert err.max() < TORUS_MODULUS // 64


def test_external_product_by_zero(setup):
    ring_key, gsw_key, rng = setup
    n = TEST_PARAMS.ring_degree
    msg = encode_message(np.arange(n) % 4, 4)
    c = trlwe_encrypt(msg, ring_key, rng)
    gsw_zero = trgsw_encrypt(0, gsw_key, rng)
    out = gsw_zero.external_product(c)
    phase = trlwe_decrypt_phase(out, ring_key)
    assert np.abs(to_centered_int64(phase)).max() < TORUS_MODULUS // 64


def test_cmux_selects(setup):
    ring_key, gsw_key, rng = setup
    n = TEST_PARAMS.ring_degree
    m0 = encode_message(np.zeros(n, dtype=np.int64), 4)
    m1 = encode_message(np.ones(n, dtype=np.int64), 4)
    c0 = trlwe_encrypt(m0, ring_key, rng)
    c1 = trlwe_encrypt(m1, ring_key, rng)
    for bit, expected in ((0, m0), (1, m1)):
        sel = trgsw_encrypt(bit, gsw_key, rng)
        out = sel.cmux(c0, c1)
        err = np.abs(
            to_centered_int64(trlwe_decrypt_phase(out, ring_key) - expected)
        )
        assert err.max() < TORUS_MODULUS // 64, bit


def test_cmux_chain_noise_growth(setup):
    """CMux noise grows additively — a chain of 10 stays decryptable."""
    ring_key, gsw_key, rng = setup
    n = TEST_PARAMS.ring_degree
    msg = encode_message(np.ones(n, dtype=np.int64), 4)
    acc = trlwe_encrypt(msg, ring_key, rng)
    one = trgsw_encrypt(1, gsw_key, rng)
    for _ in range(10):
        acc = one.cmux(acc, acc.monomial_mul(0))  # identity-ish selection
    err = np.abs(to_centered_int64(trlwe_decrypt_phase(acc, ring_key) - msg))
    assert err.max() < TORUS_MODULUS // 32


def test_spectra_cached_after_first_product(setup):
    ring_key, gsw_key, rng = setup
    gsw = trgsw_encrypt(1, gsw_key, rng)
    assert gsw.spectra_a is not None and gsw.spectra_b is not None
    assert gsw.spectra_a.shape == (
        2,
        2 * TEST_PARAMS.decomp_length,
        TEST_PARAMS.ring_degree,
    )


@pytest.mark.parametrize("seeded", [False, True])
def test_trgsw_batch_is_the_samples_of_calls_in_order(setup, seeded):
    """A batch across block boundaries (the samples whose ``2l`` rows fill
    :data:`BLOCK_ROWS`, 16 at ``l = 3``) gives the rows and spectra of one
    call per message, bit for bit, with or without seed-expanded masks."""
    from repro.seedexp import SeedExpander
    from repro.tfhe.trlwe import BLOCK_ROWS

    _, gsw_key, _ = setup
    per_block = BLOCK_ROWS // (2 * TEST_PARAMS.decomp_length)
    bits = [1, 0, 1, 1, 0] * (per_block // 4 + 1)
    expander = SeedExpander(4) if seeded else None
    prefixes = [f"test/{i}" for i in range(len(bits))] if seeded else None
    one, batch = np.random.default_rng(0x3C), np.random.default_rng(0x3C)
    calls = [trgsw_encrypt(bit, gsw_key, one, expander=expander,
                           stream_prefix=prefixes[i] if seeded else None)
             for i, bit in enumerate(bits)]
    got = trgsw_encrypt(bits, gsw_key, batch, expander=expander,
                        stream_prefix=prefixes)
    assert len(got) == len(bits) > per_block
    for want, have in zip(calls, got):
        for r_want, r_have in zip(want.rows, have.rows):
            assert np.array_equal(r_want.a, r_have.a)
            assert np.array_equal(r_want.b, r_have.b)
        assert np.array_equal(want.spectra_a, have.spectra_a)
        assert np.array_equal(want.spectra_b, have.spectra_b)
    assert one.integers(1 << 62) == batch.integers(1 << 62)


def test_precomputed_spectra_equal_the_encryption_spectra(setup):
    """Spectra computed again from the rows equal those the encryption
    made for its block."""
    _, gsw_key, rng = setup
    sample = trgsw_encrypt([1, 0, 1], gsw_key, rng)[2]
    spectra_a, spectra_b = sample.spectra_a.copy(), sample.spectra_b.copy()
    sample.precompute_spectra()
    assert np.array_equal(sample.spectra_a, spectra_a)
    assert np.array_equal(sample.spectra_b, spectra_b)
