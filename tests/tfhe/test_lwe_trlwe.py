"""Tests for LWE and TRLWE encryption, arithmetic, and sample extraction."""

import hashlib

import numpy as np
import pytest

from repro.tfhe.lwe import LweKey, LweSample, lwe_decrypt_phase, lwe_encrypt
from repro.tfhe.params import TEST_PARAMS
from repro.tfhe.torus import TORUS_MODULUS, encode_message, to_centered_int64
from repro.tfhe.trlwe import (
    TrlweKey,
    TrlweSample,
    negacyclic_monomial_mul,
    trlwe_decrypt_phase,
    trlwe_encrypt,
)
from tests.oracles import negacyclic_mul_reference


def _phase_err(phase, mu):
    d = (int(phase) - int(mu)) % TORUS_MODULUS
    return min(d, TORUS_MODULUS - d)


@pytest.fixture(scope="module")
def keys():
    rng = np.random.default_rng(11)
    return LweKey.generate(TEST_PARAMS, rng), TrlweKey.generate(TEST_PARAMS, rng), rng


def test_lwe_encrypt_decrypt(keys):
    lwe_key, _, rng = keys
    mu = int(encode_message(1, 4))
    for _ in range(10):
        ct = lwe_encrypt(mu, lwe_key, rng)
        assert _phase_err(lwe_decrypt_phase(ct, lwe_key), mu) < TORUS_MODULUS // 64


def test_lwe_homomorphic_add(keys):
    lwe_key, _, rng = keys
    mu1 = int(encode_message(1, 8))
    mu2 = int(encode_message(2, 8))
    ct = lwe_encrypt(mu1, lwe_key, rng) + lwe_encrypt(mu2, lwe_key, rng)
    expected = (mu1 + mu2) % TORUS_MODULUS
    assert _phase_err(lwe_decrypt_phase(ct, lwe_key), expected) < TORUS_MODULUS // 64


def test_lwe_sub_and_neg(keys):
    lwe_key, _, rng = keys
    mu = int(encode_message(3, 8))
    ct = lwe_encrypt(mu, lwe_key, rng)
    neg_phase = lwe_decrypt_phase(-ct, lwe_key)
    assert _phase_err(neg_phase, (-mu) % TORUS_MODULUS) < TORUS_MODULUS // 64
    diff = ct - ct
    assert _phase_err(lwe_decrypt_phase(diff, lwe_key), 0) < TORUS_MODULUS // 64


def test_lwe_scaled(keys):
    lwe_key, _, rng = keys
    mu = TORUS_MODULUS // 16
    ct = lwe_encrypt(mu, lwe_key, rng).scaled(3)
    assert _phase_err(lwe_decrypt_phase(ct, lwe_key), 3 * mu) < TORUS_MODULUS // 32


def test_lwe_trivial_is_noiseless(keys):
    lwe_key, _, _ = keys
    mu = 123456789
    ct = LweSample.trivial(mu, lwe_key.dim)
    assert lwe_decrypt_phase(ct, lwe_key) == mu


def test_lwe_add_constant(keys):
    lwe_key, _, rng = keys
    ct = lwe_encrypt(0, lwe_key, rng).add_constant(999)
    assert _phase_err(lwe_decrypt_phase(ct, lwe_key), 999) < TORUS_MODULUS // 64


def test_lwe_dimension_mismatch(keys):
    lwe_key, _, _ = keys
    bad = LweSample.trivial(0, lwe_key.dim + 1)
    with pytest.raises(ValueError):
        lwe_decrypt_phase(bad, lwe_key)


def test_trlwe_encrypt_decrypt(keys):
    _, ring_key, rng = keys
    n = TEST_PARAMS.ring_degree
    msg = encode_message(np.arange(n) % 4, 4)
    ct = trlwe_encrypt(msg, ring_key, rng)
    phase = trlwe_decrypt_phase(ct, ring_key)
    err = np.abs(to_centered_int64(phase - msg))
    assert err.max() < TORUS_MODULUS // 64


def test_trlwe_trivial(keys):
    _, ring_key, _ = keys
    n = TEST_PARAMS.ring_degree
    msg = encode_message(np.ones(n, dtype=np.int64), 4)
    ct = TrlweSample.trivial(msg)
    assert np.array_equal(trlwe_decrypt_phase(ct, ring_key), msg)


def test_trlwe_add_sub(keys):
    _, ring_key, rng = keys
    n = TEST_PARAMS.ring_degree
    m1 = encode_message(np.ones(n, dtype=np.int64), 8)
    m2 = encode_message(2 * np.ones(n, dtype=np.int64), 8)
    c = trlwe_encrypt(m1, ring_key, rng) + trlwe_encrypt(m2, ring_key, rng)
    phase = trlwe_decrypt_phase(c, ring_key)
    err = np.abs(to_centered_int64(phase - (m1 + m2)))
    assert err.max() < TORUS_MODULUS // 64


def test_monomial_mul_wraps_sign():
    n = 8
    poly = np.arange(1, n + 1, dtype=np.uint32)
    rotated = negacyclic_monomial_mul(poly, 1)
    assert rotated[0] == np.uint32(-np.int64(poly[-1]) % (1 << 32))
    assert np.array_equal(rotated[1:], poly[:-1])
    # X^(2n) is the identity
    assert np.array_equal(negacyclic_monomial_mul(poly, 2 * n), poly)
    # X^n = -1
    assert np.array_equal(
        negacyclic_monomial_mul(poly, n),
        (-poly.astype(np.int64) % (1 << 32)).astype(np.uint32),
    )


def test_trlwe_monomial_mul_homomorphic(keys):
    _, ring_key, rng = keys
    n = TEST_PARAMS.ring_degree
    msg = encode_message(np.arange(n) % 4, 4)
    ct = trlwe_encrypt(msg, ring_key, rng).monomial_mul(3)
    phase = trlwe_decrypt_phase(ct, ring_key)
    expected = negacyclic_monomial_mul(msg, 3)
    err = np.abs(to_centered_int64(phase - expected))
    assert err.max() < TORUS_MODULUS // 64


def test_sample_extract_coefficient_zero(keys):
    _, ring_key, rng = keys
    n = TEST_PARAMS.ring_degree
    msg = encode_message(np.arange(n) % 4, 4)
    ct = trlwe_encrypt(msg, ring_key, rng)
    extracted = ct.extract_lwe(0)
    lwe_key = ring_key.extracted_lwe_key()
    phase = lwe_decrypt_phase(extracted, lwe_key)
    assert _phase_err(phase, int(msg[0])) < TORUS_MODULUS // 64


@pytest.mark.parametrize("index", [1, 7, 100])
def test_sample_extract_other_coefficients(keys, index):
    _, ring_key, rng = keys
    n = TEST_PARAMS.ring_degree
    msg = encode_message(np.arange(n) % 8, 8)
    ct = trlwe_encrypt(msg, ring_key, rng)
    extracted = ct.extract_lwe(index)
    phase = lwe_decrypt_phase(extracted, ring_key.extracted_lwe_key())
    assert _phase_err(phase, int(msg[index])) < TORUS_MODULUS // 64


def test_sample_extract_bad_index(keys):
    _, ring_key, rng = keys
    n = TEST_PARAMS.ring_degree
    ct = TrlweSample.trivial(np.zeros(n, dtype=np.uint32))
    with pytest.raises(ValueError):
        ct.extract_lwe(n)


def test_trlwe_rejects_wrong_message_length(keys):
    _, ring_key, rng = keys
    with pytest.raises(ValueError):
        trlwe_encrypt(np.zeros(7, dtype=np.uint32), ring_key, rng)


def test_public_key_encryption(keys):
    from repro.tfhe.lwe import LwePublicKey

    lwe_key, _, rng = keys
    pk = LwePublicKey.generate(lwe_key, rng)
    assert pk.rows.shape == (2 * TEST_PARAMS.lwe_dim, lwe_key.dim + 1)
    mu = int(encode_message(1, 4))
    for _ in range(5):
        ct = pk.encrypt(mu, rng)
        err = _phase_err(lwe_decrypt_phase(ct, lwe_key), mu)
        # subset-sum noise is sqrt(count) fresh noises: still far below 1/4
        assert err < TORUS_MODULUS // 32


def test_public_key_gate_compatible(keys):
    """Public-key encryptions feed the homomorphic pipeline unchanged."""
    from repro.tfhe.lwe import LwePublicKey

    lwe_key, _, rng = keys
    pk = LwePublicKey.generate(lwe_key, rng)
    mu1 = int(encode_message(1, 8))
    mu2 = int(encode_message(2, 8))
    summed = pk.encrypt(mu1, rng) + pk.encrypt(mu2, rng)
    err = _phase_err(lwe_decrypt_phase(summed, lwe_key), (mu1 + mu2))
    assert err < TORUS_MODULUS // 16


def test_public_key_custom_count(keys):
    from repro.tfhe.lwe import LwePublicKey

    lwe_key, _, rng = keys
    pk = LwePublicKey.generate(lwe_key, rng, count=16)
    assert pk.rows.shape[0] == 16


def _pair_of_generators(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


@pytest.mark.parametrize("seeded", [False, True])
def test_lwe_batch_is_the_samples_of_calls_in_order(keys, seeded):
    """A batch of ``k`` messages draws and computes exactly what ``k``
    calls in order do, bit for bit, with or without seed-expanded masks."""
    from repro.seedexp import SeedExpander

    lwe_key, _, _ = keys
    expander = SeedExpander(9) if seeded else None
    mus = [0, 1, (1 << 32) - 1, -5, 1 << 31, 12345]
    streams = [f"test/{i}" for i in range(len(mus))] if seeded else None
    one, batch = _pair_of_generators(0x1B)
    calls = [lwe_encrypt(mu, lwe_key, one, expander=expander,
                         stream=streams[i] if seeded else None)
             for i, mu in enumerate(mus)]
    got = lwe_encrypt(np.array(mus), lwe_key, batch, expander=expander,
                      stream=streams)
    assert got.a.shape == (len(mus), lwe_key.dim) and got.b.shape == (len(mus),)
    assert np.array_equal(got.a, np.stack([c.a for c in calls]))
    assert np.array_equal(got.b, np.array([c.b for c in calls]))
    assert got.b.dtype == np.uint32 and type(calls[0].b) is np.uint32
    assert one.integers(1 << 62) == batch.integers(1 << 62)
    if seeded:
        assert calls[2].seed_meta == (9, "test/2")


def test_lwe_encrypt_needs_one_stream_per_message(keys):
    from repro.seedexp import SeedExpander

    lwe_key, _, rng = keys
    with pytest.raises(ValueError, match="stream"):
        lwe_encrypt(0, lwe_key, rng, expander=SeedExpander(1))
    with pytest.raises(ValueError, match="2 stream labels for 3"):
        lwe_encrypt(np.zeros(3, dtype=np.int64), lwe_key, rng,
                    expander=SeedExpander(1), stream=["a", "b"])


def test_trlwe_batch_is_the_samples_of_calls_in_order(keys):
    """A batch across block boundaries (:data:`BLOCK_ROWS` rows each)
    equals the samples of one call per message, bit for bit."""
    from repro.tfhe.trlwe import BLOCK_ROWS

    _, ring_key, _ = keys
    k = 2 * BLOCK_ROWS + 5
    n = TEST_PARAMS.ring_degree
    messages = encode_message(np.arange(k * n).reshape(k, n) % 8, 8)
    one, batch = _pair_of_generators(0x2B)
    calls = [trlwe_encrypt(m, ring_key, one) for m in messages]
    got = trlwe_encrypt(messages, ring_key, batch)
    assert np.array_equal(got.a, np.stack([c.a for c in calls]))
    assert np.array_equal(got.b, np.stack([c.b for c in calls]))
    assert one.integers(1 << 62) == batch.integers(1 << 62)
    phase = trlwe_decrypt_phase(TrlweSample(got.a[-1], got.b[-1]), ring_key)
    assert np.abs(to_centered_int64(phase - messages[-1])).max() < 1 << 20


def test_trlwe_phase_of_a_batch_is_the_phases_row_by_row(keys):
    """A batch across block boundaries takes one phase per row, bit for
    bit the phase of that row taken alone."""
    from repro.tfhe.trlwe import BLOCK_ROWS

    _, ring_key, rng = keys
    k = 2 * BLOCK_ROWS + 5
    n = TEST_PARAMS.ring_degree
    messages = encode_message(np.arange(k * n).reshape(k, n) % 8, 8)
    batch = trlwe_encrypt(messages, ring_key, rng)
    phases = trlwe_decrypt_phase(batch, ring_key)
    assert phases.shape == (k, n) and phases.dtype == np.uint32
    rows = [trlwe_decrypt_phase(TrlweSample(a, b), ring_key)
            for a, b in zip(batch.a, batch.b)]
    assert np.array_equal(phases, np.stack(rows))
    assert np.abs(to_centered_int64(phases - messages)).max() < 1 << 20


@pytest.mark.parametrize("shape", [(512,), (3, 512), (257,)])
def test_trlwe_phase_rejects_a_sample_of_another_degree(keys, shape):
    _, ring_key, _ = keys
    sample = TrlweSample(np.ones(shape, np.uint32), np.ones(shape, np.uint32))
    with pytest.raises(ValueError, match="256 coefficients"):
        trlwe_decrypt_phase(sample, ring_key)


def test_trlwe_phase_of_one_sample_is_pinned():
    """One ``(N,)`` sample's phase: ``b`` minus the exact product, and the
    digest it had when the phase was one ``TorusNTT.multiply``."""
    rng = np.random.default_rng(0x1F)
    ring_key = TrlweKey.generate(TEST_PARAMS, rng)
    n = TEST_PARAMS.ring_degree
    msg = encode_message(np.arange(n) % 4, 4)
    ct = trlwe_encrypt(msg, ring_key, rng)
    phase = trlwe_decrypt_phase(ct, ring_key)
    assert phase.shape == (n,) and phase.dtype == np.uint32
    assert np.array_equal(
        phase, ct.b - negacyclic_mul_reference(ring_key.key, ct.a))
    assert hashlib.sha256(phase.tobytes()).hexdigest() == (
        "f5c5880dde6df7511f73090d1f7211fcd2feaaf4fce7b138915566f38318c51d")
