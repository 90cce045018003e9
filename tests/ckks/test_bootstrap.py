"""Tests for functional CKKS bootstrapping (reduced parameters).

One shared pipeline run (bootstrapping at n=128 takes a few seconds in
pure Python); the individual tests assert different properties of the
same refreshed ciphertext plus the stage-level behaviours.
"""

import numpy as np
import pytest

from repro.ckks.bootstrap import CKKSBootstrapper
from repro.ckks.encoder import CKKSEncoder
from repro.ckks.encryptor import CKKSDecryptor, CKKSEncryptor
from repro.ckks.evaluator import CKKSEvaluator
from repro.ckks.keys import CKKSKeyGenerator
from repro.ckks.params import CKKSParams

PARAMS = CKKSParams(n=128, num_levels=16, dnum=2, hamming_weight=16)


@pytest.fixture(scope="module")
def pipeline():
    rng = np.random.default_rng(0xB007)
    encoder = CKKSEncoder(PARAMS.n, PARAMS.scale)
    keygen = CKKSKeyGenerator(PARAMS, rng)
    evaluator = CKKSEvaluator(PARAMS, encoder, relin_key=keygen.relin_key())
    boot = CKKSBootstrapper(PARAMS, encoder, evaluator, r=7, taylor_terms=5)
    gk = keygen.rotation_key(boot.required_rotations())
    gk.keys.update(keygen.conjugation_key().keys)
    evaluator.galois_key = gk
    encryptor = CKKSEncryptor(
        PARAMS, encoder, rng, public_key=keygen.public_key())
    decryptor = CKKSDecryptor(PARAMS, encoder, keygen.secret_key())
    return encryptor, decryptor, evaluator, boot, rng


@pytest.fixture(scope="module")
def refreshed(pipeline):
    encryptor, decryptor, evaluator, boot, rng = pipeline
    z = rng.uniform(-1, 1, PARAMS.slots)
    ct = encryptor.encrypt_values(z, level=0)
    return z, ct, boot.bootstrap(ct)


def test_levels_consumed_accounting(pipeline):
    _, _, _, boot, _ = pipeline
    assert boot.levels_consumed() == 14  # 1 + 1 + 4 + 7 + 1


def test_bootstrap_raises_level(refreshed):
    z, ct_in, ct_out = refreshed
    assert ct_in.level == 0
    assert ct_out.level == PARAMS.num_levels - 14
    assert ct_out.level >= 2


def test_bootstrap_preserves_message(pipeline, refreshed):
    _, decryptor, _, _, _ = pipeline
    z, _, ct_out = refreshed
    err = np.abs(decryptor.decrypt(ct_out) - z).max()
    assert err < 2e-2


def test_bootstrapped_ciphertext_is_usable(pipeline, refreshed):
    """The point of bootstrapping: multiplications work again."""
    encryptor, decryptor, evaluator, _, rng = pipeline
    z, _, ct_out = refreshed
    w = rng.uniform(-1, 1, PARAMS.slots)
    product = evaluator.rescale(evaluator.mul_plain(ct_out, w))
    err = np.abs(decryptor.decrypt(product) - z * w).max()
    assert err < 3e-2


def test_mod_raise_structure(pipeline):
    encryptor, decryptor, _, boot, rng = pipeline
    z = rng.uniform(-1, 1, PARAMS.slots)
    ct = encryptor.encrypt_values(z, level=0)
    raised = boot.mod_raise(ct)
    assert raised.level == PARAMS.num_levels
    # the raised ciphertext still decrypts to z: the q0*I term decodes to
    # multiples of q0/scale in coefficient space, which perturbs slots, so
    # only the mod-q0 structure is preserved — check via explicit reduction
    phase = decryptor.decrypt_poly(raised).to_centered_bigints()
    q0 = PARAMS.base_primes[0]
    reduced = [((c + q0 // 2) % q0) - q0 // 2 for c in phase]
    got = boot.encoder.decode_bigints(reduced, scale=ct.scale)
    assert np.abs(got - z).max() < 1e-4


def test_coeff_to_slot_recovers_coefficients(pipeline):
    encryptor, decryptor, _, boot, rng = pipeline
    z = rng.uniform(-1, 1, PARAMS.slots)
    ct = encryptor.encrypt_values(z, level=0)
    coeffs = np.array(
        [float(c) for c in decryptor.decrypt_poly(ct).to_centered_bigints()])
    head, tail = boot.coeff_to_slot(boot.mod_raise(ct))
    q0 = PARAMS.base_primes[0]
    got_head = decryptor.decrypt(head).real * q0
    got_tail = decryptor.decrypt(tail).real * q0
    # slots now hold the (mod-raised) coefficients; compare mod q0
    for got, expected in ((got_head, coeffs[: PARAMS.slots]),
                          (got_tail, coeffs[PARAMS.slots :])):
        diff = (got - expected) / q0
        assert np.abs(diff - np.round(diff)).max() < 1e-3


def test_coeff_to_slot_shares_conjugate_and_baby_steps(pipeline):
    """Both halves read one conjugate of the raised ciphertext and one set
    of baby rotations of it and of its conjugate: 1 conjugation, 2 x 7
    baby and 4 x 7 giant rotations (BSGS 8 x 8 over 64 slots)."""
    encryptor, _, evaluator, boot, rng = pipeline
    ct = encryptor.encrypt_values(rng.uniform(-1, 1, PARAMS.slots), level=0)
    raised = boot.mod_raise(ct)
    evaluator.key_trace = []
    try:
        boot.coeff_to_slot(raised)
        trace = list(evaluator.key_trace)
    finally:
        evaluator.key_trace = None
    babies = [f"rot:{j}" for j in range(1, 8)]
    assert trace.count("conj") == 1
    assert sorted(k for k in trace if k in babies) == sorted(babies * 2)
    assert len(trace) == 1 + 2 * 7 + 4 * 7


def test_eval_mod_computes_sine(pipeline):
    """EvalMod on directly-encrypted values approximates sin(2 pi t)."""
    encryptor, decryptor, _, boot, rng = pipeline
    t = rng.uniform(-4, 4, PARAMS.slots)
    ct = encryptor.encrypt_values(t)  # fresh, top level
    out = boot.eval_mod(ct)
    got = decryptor.decrypt(out).real
    assert np.abs(got - np.sin(2 * np.pi * t)).max() < 1e-3


def test_bootstrap_rejects_wrong_scale(pipeline):
    encryptor, _, evaluator, boot, rng = pipeline
    z = rng.uniform(-1, 1, PARAMS.slots)
    ct = evaluator.mul_plain(encryptor.encrypt_values(z, level=1), z)
    with pytest.raises(ValueError):
        boot.bootstrap(ct)  # scale is Delta^2


def test_bootstrapper_rejects_shallow_params():
    shallow = CKKSParams(n=128, num_levels=6, dnum=2, hamming_weight=16)
    encoder = CKKSEncoder(shallow.n, shallow.scale)
    evaluator = CKKSEvaluator(shallow, encoder)
    with pytest.raises(ValueError):
        CKKSBootstrapper(shallow, encoder, evaluator)
