"""Round-trip tests for key/ciphertext serialization."""

import numpy as np
import pytest

from repro import serialization as ser
from repro.ckks.encryptor import CKKSDecryptor, CKKSEncryptor
from repro.ckks.params import CKKSParams
from repro.tfhe.lwe import LweKey, lwe_decrypt_phase, lwe_encrypt
from repro.tfhe.params import TEST_PARAMS

PARAMS = CKKSParams(n=128, num_levels=3, dnum=2, hamming_weight=16)


@pytest.fixture(scope="module")
def stack(ckks128_keys):
    s = ckks128_keys
    assert s.params == PARAMS
    encryptor = CKKSEncryptor(
        PARAMS, s.encoder, s.rng, public_key=s.keygen.public_key())
    decryptor = CKKSDecryptor(PARAMS, s.encoder, s.keygen.secret_key())
    return s.encoder, s.keygen, encryptor, decryptor, s.rng


def test_params_roundtrip():
    data = ser.params_to_dict(PARAMS)
    back = ser.params_from_dict(data)
    assert back.all_primes == PARAMS.all_primes  # deterministic regeneration
    assert back.scale == PARAMS.scale


def test_params_kind_check():
    with pytest.raises(ValueError):
        ser.params_from_dict({"kind": "something_else"})


def test_ciphertext_roundtrip(stack, tmp_path):
    _, _, encryptor, decryptor, rng = stack
    z = rng.normal(size=PARAMS.slots)
    ct = encryptor.encrypt_values(z)
    path = tmp_path / "ct.npz"
    ser.save_ciphertext(path, ct)
    loaded = ser.load_ciphertext(path)
    assert loaded.scale == ct.scale
    assert loaded.level == ct.level
    for orig, back in zip(ct.parts, loaded.parts):
        assert np.array_equal(orig.data, back.data)
    assert np.abs(decryptor.decrypt(loaded) - z).max() < 1e-4


def test_ciphertext_at_lower_level(stack, tmp_path):
    _, _, encryptor, decryptor, rng = stack
    z = rng.normal(size=PARAMS.slots)
    ct = encryptor.encrypt_values(z, level=1)
    path = tmp_path / "ct1.npz"
    ser.save_ciphertext(path, ct)
    loaded = ser.load_ciphertext(path)
    assert loaded.level == 1
    assert np.abs(decryptor.decrypt(loaded) - z).max() < 1e-4


def test_secret_key_roundtrip(stack, tmp_path):
    encoder, keygen, encryptor, _, rng = stack
    path = tmp_path / "sk.npz"
    ser.save_secret_key(path, keygen.secret_key())
    loaded = ser.load_secret_key(path)
    # decrypt with the reloaded key
    decryptor = CKKSDecryptor(PARAMS, encoder, loaded)
    z = rng.normal(size=PARAMS.slots)
    assert np.abs(
        decryptor.decrypt(encryptor.encrypt_values(z)) - z).max() < 1e-4


def test_public_key_roundtrip(stack, tmp_path):
    encoder, keygen, _, decryptor, rng = stack
    path = tmp_path / "pk.npz"
    ser.save_public_key(path, keygen.public_key())
    loaded = ser.load_public_key(path)
    encryptor = CKKSEncryptor(
        PARAMS, encoder, np.random.default_rng(1), public_key=loaded)
    z = rng.normal(size=PARAMS.slots)
    assert np.abs(
        decryptor.decrypt(encryptor.encrypt_values(z)) - z).max() < 1e-4


def test_wrong_blob_kind(stack, tmp_path):
    _, keygen, _, _, _ = stack
    path = tmp_path / "sk.npz"
    ser.save_secret_key(path, keygen.secret_key())
    with pytest.raises(ValueError):
        ser.load_ciphertext(path)


def test_lwe_roundtrip(tmp_path):
    rng = np.random.default_rng(0x7F)
    key = LweKey.generate(TEST_PARAMS, rng)
    mu = 1 << 29
    sample = lwe_encrypt(mu, key, rng)

    key_path = tmp_path / "lwe_key.npz"
    ser.save_lwe_key(key_path, key)
    sample_path = tmp_path / "lwe.npz"
    ser.save_lwe_sample(sample_path, sample, TEST_PARAMS)

    loaded_key = ser.load_lwe_key(key_path)
    loaded_sample, loaded_params = ser.load_lwe_sample(sample_path)
    assert loaded_params == TEST_PARAMS
    assert np.array_equal(loaded_key.key, key.key)
    phase = lwe_decrypt_phase(loaded_sample, loaded_key)
    err = abs(int(phase) - mu)
    assert min(err, (1 << 32) - err) < (1 << 32) // 64


def test_tfhe_params_roundtrip():
    back = ser.tfhe_params_from_dict(ser.tfhe_params_to_dict(TEST_PARAMS))
    assert back == TEST_PARAMS


# --------------------- evaluation-key structures ------------------------ #


def test_relin_key_roundtrip(stack, tmp_path):
    """Bit-exact pairs at every level, and the reloaded key relinearizes
    to the identical ciphertext."""
    from repro.ckks.evaluator import CKKSEvaluator

    encoder, keygen, encryptor, decryptor, rng = stack
    relin = keygen.relin_key()
    path = tmp_path / "relin.npz"
    ser.save_relin_key(path, relin)
    loaded = ser.load_relin_key(path)

    assert sorted(loaded.levels) == sorted(relin.levels)
    for level, skl in relin.levels.items():
        got = loaded.levels[level]
        assert got.level == skl.level and len(got.pairs) == len(skl.pairs)
        for (b0, a0), (b1, a1) in zip(skl.pairs, got.pairs):
            assert b1.primes == b0.primes and b1.ntt_form == b0.ntt_form
            np.testing.assert_array_equal(b0.data, b1.data)
            np.testing.assert_array_equal(a0.data, a1.data)

    ct = encryptor.encrypt_values(rng.normal(size=PARAMS.slots))
    want = CKKSEvaluator(PARAMS, encoder, relin_key=relin).square(ct)
    got = CKKSEvaluator(PARAMS, encoder, relin_key=loaded).square(ct)
    for p0, p1 in zip(want.parts, got.parts):
        np.testing.assert_array_equal(p0.data, p1.data)


def test_galois_key_roundtrip_with_conjugation(stack, tmp_path):
    """Rotation + conjugation keys reload bit-exact, inventory intact —
    the 2n-1 element stays labeled "conj", never folded into a rot."""
    _, keygen, _, _, _ = stack
    gk = keygen.rotation_key([1, 2])
    gk.keys.update(keygen.conjugation_key().keys)
    path = tmp_path / "galois.npz"
    ser.save_galois_key(path, gk)
    loaded = ser.load_galois_key(path)

    assert loaded.galois_elements() == gk.galois_elements()
    assert loaded.inventory() == ["rot:1", "rot:2", "conj"]
    for (g, level), skl in gk.keys.items():
        got = loaded.keys[(g, level)]
        for (b0, a0), (b1, a1) in zip(skl.pairs, got.pairs):
            assert b1.primes == b0.primes and b1.ntt_form == b0.ntt_form
            np.testing.assert_array_equal(b0.data, b1.data)
            np.testing.assert_array_equal(a0.data, a1.data)


def test_switching_key_words_anchor_the_static_sizing(stack):
    """Ground-truth anchor for the ALC8xx byte model: a real switching
    key at level L holds exactly digits * 2 * extended * n residue words
    — the element count `CKKSWorkload.evk_bytes` multiplies by the HBM
    word width.  At the paper's Table 7 shape the same formula gives the
    134.5 MB/key figure the analysis reports."""
    from repro.compiler.ckks_programs import WORD_BYTES, CKKSWorkload

    _, keygen, _, _, _ = stack
    wl = CKKSWorkload(n=PARAMS.n, num_levels=PARAMS.num_levels,
                      dnum=PARAMS.dnum)
    relin = keygen.relin_key()
    for level, skl in relin.levels.items():
        words = sum(b.data.size + a.data.size for b, a in skl.pairs)
        assert words == wl.evk_bytes(level) / WORD_BYTES, (
            f"level {level}: stored {words} words, "
            f"model says {wl.evk_bytes(level) / WORD_BYTES}")
    assert CKKSWorkload().evk_bytes(44) == 134_479_872
