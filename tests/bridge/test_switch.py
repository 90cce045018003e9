"""Tests for the CKKS → TFHE ciphertext switching bridge."""

import numpy as np
import pytest

from repro import ckks, tfhe
from repro.bridge import CKKSToTFHEBridge
from repro.ckks.linear import SlotLinearTransform
from repro.tfhe.lwe import lwe_decrypt_phase
from repro.tfhe.torus import TORUS_MODULUS

PARAMS = ckks.CKKSParams(n=128, num_levels=3, dnum=2, hamming_weight=16)


@pytest.fixture(scope="module")
def setup(tfhe_kit):
    rng = np.random.default_rng(0xB81D6E)
    encoder = ckks.CKKSEncoder(PARAMS.n, PARAMS.scale)
    keygen = ckks.CKKSKeyGenerator(PARAMS, rng)
    sk = keygen.secret_key()
    evaluator = ckks.CKKSEvaluator(
        PARAMS, encoder, relin_key=keygen.relin_key())
    encryptor = ckks.CKKSEncryptor(
        PARAMS, encoder, rng, public_key=keygen.public_key())
    decryptor = ckks.CKKSDecryptor(PARAMS, encoder, sk)
    kit = tfhe_kit  # session-shared bootstrapping kit (the expensive part)
    bridge = CKKSToTFHEBridge(PARAMS, sk, kit, rng)
    evaluator.galois_key = keygen.rotation_key(
        SlotLinearTransform(bridge.stc_matrix).required_rotations())
    return encryptor, decryptor, evaluator, bridge, kit, rng


def test_gain_targets_gate_encoding(setup):
    _, _, _, bridge, _, _ = setup
    assert bridge.gain * PARAMS.scale / bridge.q0 == pytest.approx(1 / 8)


def test_slots_to_coefficients(setup):
    """After the bridge transform, coefficient j = gain*Delta*z_j."""
    encryptor, decryptor, evaluator, bridge, _, rng = setup
    z = rng.uniform(-1, 1, PARAMS.slots)
    stc = bridge.slots_to_coefficients(evaluator, encryptor.encrypt_values(z))
    assert stc.level == 0
    coeffs = decryptor.decrypt_poly(stc).to_centered_bigints()
    expected_scale = bridge.gain * stc.scale
    got = np.array([float(c) for c in coeffs[: PARAMS.slots]]) / expected_scale
    assert np.abs(got - z).max() < 1e-3


def test_extract_lwe_phase(setup):
    """Extraction preserves the coefficient value as an LWE phase mod q0."""
    encryptor, decryptor, evaluator, bridge, _, rng = setup
    z = rng.uniform(-1, 1, PARAMS.slots)
    stc = bridge.slots_to_coefficients(evaluator, encryptor.encrypt_values(z))
    sk_vec = np.array(
        [int(v) for v in decryptor.secret_key.s.data[0]], dtype=object)
    q0 = bridge.q0
    half = q0 // 2
    sk_vec = np.where(sk_vec > half, sk_vec - q0, sk_vec)
    for slot in (0, 3, PARAMS.slots - 1):
        sample = bridge.extract_lwe_mod_q0(stc, slot)
        phase = (int(sample.b) - int(
            sum(int(a) * int(s) for a, s in zip(sample.a, sk_vec)))) % q0
        phase = phase - q0 if phase > half else phase
        expected = bridge.gain * stc.scale * z[slot]
        assert abs(phase - expected) < q0 / 1e5, slot


def test_extract_validations(setup):
    encryptor, _, evaluator, bridge, _, rng = setup
    ct = encryptor.encrypt_values(np.ones(PARAMS.slots))  # top level
    with pytest.raises(ValueError):
        bridge.extract_lwe_mod_q0(ct, 0)
    stc = bridge.slots_to_coefficients(evaluator, ct)
    with pytest.raises(ValueError):
        bridge.extract_lwe_mod_q0(stc, PARAMS.n)


def test_switched_lwe_phase_on_torus(setup):
    """The switched LWE decrypts (under the TFHE key) to z/8 on the torus."""
    encryptor, _, evaluator, bridge, kit, rng = setup
    z = rng.uniform(-1, 1, PARAMS.slots)
    ct = encryptor.encrypt_values(z)
    stc = bridge.slots_to_coefficients(evaluator, ct)
    for slot in range(4):
        lwe = bridge.switch_slot(evaluator, ct, slot, stc_ct=stc)
        phase = lwe_decrypt_phase(lwe, kit.lwe_key)
        got = phase / TORUS_MODULUS
        got = got - 1 if got > 0.5 else got
        assert abs(got - z[slot] / 8) < 0.01, slot


def test_encrypted_sign_end_to_end(setup):
    """The paper's hybrid story: CKKS arithmetic, TFHE comparison — with a
    real ciphertext switch in between."""
    encryptor, _, evaluator, bridge, kit, rng = setup
    gates = tfhe.TFHEGates(kit)
    z = np.array([0.8, -0.7, 0.3, -0.2, 0.55, -0.91]
                 .__add__([0.0] * (PARAMS.slots - 6)))
    ct = encryptor.encrypt_values(z)
    stc = bridge.slots_to_coefficients(evaluator, ct)
    for slot in range(6):
        bit = bridge.encrypted_sign(evaluator, ct, slot, stc_ct=stc)
        assert gates.decrypt_bit(bit) == (z[slot] > 0), slot


def _sign_margin(kit, bridge):
    """The smallest slot value whose torus image clears 4 standard
    deviations of the sign bootstrap's modulus-switch rounding."""
    torus_per_slot = bridge.gain * PARAMS.scale / bridge.q0
    return 4 * np.sqrt(kit.params.modswitch_variance()) / torus_per_slot


def test_switch_after_ckks_computation(setup):
    """Switch the *result* of homomorphic CKKS arithmetic.

    The sign bootstrap rounds its input to multiples of ``1/2N``, so a
    slot is signed reliably only when its value clears a few standard
    deviations of that rounding; the first four slots of the draw that
    clear four are checked."""
    encryptor, _, evaluator, bridge, kit, rng = setup
    gates = tfhe.TFHEGates(kit)
    x = rng.uniform(-0.7, 0.7, PARAMS.slots)
    y = rng.uniform(-0.7, 0.7, PARAMS.slots)
    diff = evaluator.sub(encryptor.encrypt_values(x),
                         encryptor.encrypt_values(y))
    # scale the difference into the bridge's [-1, 1] domain
    half = evaluator.rescale(evaluator.mul_plain(
        diff, np.full(PARAMS.slots, 0.5)))
    stc = bridge.slots_to_coefficients(evaluator, half)
    slots = np.flatnonzero(
        np.abs(0.5 * (x - y)) > _sign_margin(kit, bridge))[:4]
    assert len(slots) == 4
    for slot in slots:
        bit = bridge.encrypted_sign(evaluator, half, slot, stc_ct=stc)
        assert gates.decrypt_bit(bit) == (x[slot] > y[slot]), slot


def test_sign_just_above_the_rounding_margin(setup):
    """A slot value just above the 4-sigma modulus-switch margin is
    signed correctly in each of 10 fresh encryptions, either sign."""
    encryptor, _, evaluator, bridge, kit, rng = setup
    gates = tfhe.TFHEGates(kit)
    v = 1.05 * _sign_margin(kit, bridge)
    z = np.zeros(PARAMS.slots)
    z[:2] = v, -v
    for _ in range(10):
        ct = encryptor.encrypt_values(z)
        stc = bridge.slots_to_coefficients(evaluator, ct)
        for slot in (0, 1):
            bit = bridge.encrypted_sign(evaluator, ct, slot, stc_ct=stc)
            assert gates.decrypt_bit(bit) == (z[slot] > 0), slot


def test_bridge_rejects_non_ternary_secret(setup):
    _, _, _, _, kit, rng = setup
    fake = ckks.CKKSKeyGenerator(PARAMS, np.random.default_rng(5))
    sk = fake.secret_key()
    sk.s.data[0][0] = 12345  # corrupt one channel entry
    with pytest.raises(ValueError):
        CKKSToTFHEBridge(PARAMS, sk, kit, rng)


def test_extract_rejects_a_stack(setup):
    encryptor, _, evaluator, bridge, _, rng = setup
    pair = [evaluator.mod_switch_to(encryptor.encrypt_values(
        rng.uniform(-1, 1, PARAMS.slots)), 0) for _ in range(2)]
    with pytest.raises(ValueError, match="not a stack"):
        bridge.extract_lwe_mod_q0(ckks.Ciphertext.stack(pair), 0)
