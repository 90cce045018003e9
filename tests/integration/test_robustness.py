"""Failure-injection tests: the schemes must fail *visibly* when misused.

Cryptographic code that silently returns plausible garbage is dangerous;
these tests pin down the failure modes — wrong keys, corrupted data,
exhausted noise budgets — and assert they are loud (exceptions) or at
least unmistakable (garbage far outside tolerance).
"""

import numpy as np
import pytest

from repro.bfv import (
    BFVDecryptor,
    BFVEncoder,
    BFVEncryptor,
    BFVEvaluator,
    BFVKeyGenerator,
    BFVParams,
)
from repro.ckks.encryptor import CKKSDecryptor, CKKSEncryptor
from repro.ckks.evaluator import CKKSEvaluator
from repro.ckks.keys import CKKSKeyGenerator
from repro.ckks.params import CKKSParams

PARAMS = CKKSParams(n=128, num_levels=3, dnum=2, hamming_weight=16)


@pytest.fixture(scope="module")
def ckks_stack(ckks128_keys):
    s = ckks128_keys
    assert s.params == PARAMS
    rng = np.random.default_rng(0xF00)
    encryptor = CKKSEncryptor(
        PARAMS, s.encoder, rng, public_key=s.keygen.public_key())
    decryptor = CKKSDecryptor(PARAMS, s.encoder, s.keygen.secret_key())
    evaluator = CKKSEvaluator(
        PARAMS, s.encoder, relin_key=s.keygen.relin_key())
    return s.encoder, encryptor, decryptor, evaluator, rng


def test_wrong_key_decrypts_garbage(ckks_stack):
    encoder, encryptor, _, _, rng = ckks_stack
    other = CKKSKeyGenerator(PARAMS, np.random.default_rng(0xBAD))
    wrong_decryptor = CKKSDecryptor(PARAMS, encoder, other.secret_key())
    z = rng.normal(size=PARAMS.slots)
    got = wrong_decryptor.decrypt(encryptor.encrypt_values(z))
    # garbage is enormous relative to the message
    assert np.abs(got - z).max() > 1e3


def test_corrupted_ciphertext_decrypts_garbage(ckks_stack):
    _, encryptor, decryptor, _, rng = ckks_stack
    z = rng.normal(size=PARAMS.slots)
    ct = encryptor.encrypt_values(z)
    ct.parts[0].data[0, 5] = (int(ct.parts[0].data[0, 5]) + 12345) % \
        ct.primes[0]
    got = decryptor.decrypt(ct)
    assert np.abs(got - z).max() > 1e-3  # visibly wrong


def test_mismatched_ring_parts_rejected(ckks_stack):
    _, encryptor, _, _, rng = ckks_stack
    from repro.ckks.encryptor import Ciphertext

    z = rng.normal(size=PARAMS.slots)
    ct = encryptor.encrypt_values(z)
    with pytest.raises(ValueError):
        Ciphertext([ct.parts[0], ct.parts[1].drop_last(1)],
                   ct.scale, ct.params)


def test_deep_circuit_without_levels_raises(ckks_stack):
    _, encryptor, _, evaluator, rng = ckks_stack
    z = 0.5 * rng.normal(size=PARAMS.slots)
    ct = encryptor.encrypt_values(z)
    for _ in range(PARAMS.num_levels):
        ct = evaluator.multiply_rescale(ct, ct)
    with pytest.raises(ValueError):
        evaluator.multiply_rescale(ct, ct)  # level 0: no rescale possible


def test_bfv_noise_budget_exhaustion():
    """Squaring until the budget hits zero must corrupt the plaintext —
    and the budget API must predict it."""
    rng = np.random.default_rng(0xE8)
    params = BFVParams(n=32, num_primes=2, dnum=1, hamming_weight=8)
    encoder = BFVEncoder(params.n, params.plain_modulus)
    keygen = BFVKeyGenerator(params, rng)
    encryptor = BFVEncryptor(params, rng, keygen.public_key(), encoder)
    decryptor = BFVDecryptor(params, keygen.secret_key(), encoder)
    evaluator = BFVEvaluator(params, relin_key=keygen.relin_key())

    values = rng.integers(0, params.plain_modulus, params.n)
    ct = encryptor.encrypt_values(values)
    expected = values.copy()
    correct_while_budgeted = True
    failed_after_exhaustion = False
    for _ in range(8):
        budget_before = decryptor.noise_budget_bits(ct)
        ct = evaluator.multiply(ct, ct)
        expected = (expected * expected) % params.plain_modulus
        ok = np.array_equal(decryptor.decrypt_values(ct), expected)
        if budget_before > 40 and not ok:
            correct_while_budgeted = False
        if decryptor.noise_budget_bits(ct) == 0.0:
            failed_after_exhaustion = not ok
            break
    assert correct_while_budgeted
    assert failed_after_exhaustion


def test_tfhe_amplified_noise_breaks_decoding():
    """Scaling an LWE sample amplifies its noise; a large enough factor
    destroys the message — the reason gates re-encode via bootstrapping."""
    from repro.tfhe.gates import MU
    from repro.tfhe.lwe import LweKey, lwe_decrypt_phase, lwe_encrypt
    from repro.tfhe.params import TEST_PARAMS
    from repro.tfhe.torus import TORUS_MODULUS

    rng = np.random.default_rng(0x2E)
    key = LweKey.generate(TEST_PARAMS, rng)
    # noise std ~ 1e-6 of the torus; x 2^21 pushes it past the 1/8 encoding
    sample = lwe_encrypt(MU, key, rng).scaled(1 << 21)
    phase = lwe_decrypt_phase(sample, key)
    expected = (MU << 21) % TORUS_MODULUS
    err = abs(int(phase) - expected)
    err = min(err, TORUS_MODULUS - err)
    assert err > TORUS_MODULUS // 64  # the amplified noise is destructive


def test_serialized_file_tampering(tmp_path, ckks_stack):
    from repro import serialization as ser

    _, encryptor, _, _, rng = ckks_stack
    ct = encryptor.encrypt_values(rng.normal(size=PARAMS.slots))
    path = tmp_path / "ct.npz"
    ser.save_ciphertext(path, ct)
    raw = path.read_bytes()
    (tmp_path / "bad.npz").write_bytes(raw[: len(raw) // 2])
    with pytest.raises(Exception):
        ser.load_ciphertext(tmp_path / "bad.npz")
