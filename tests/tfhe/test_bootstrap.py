"""Tests for blind rotation, programmable bootstrapping and gates."""

import pytest

from repro.tfhe.bootstrap import (
    make_lut_test_polynomial,
    make_sign_test_polynomial,
)
from repro.tfhe.gates import MU, TFHEGates
from repro.tfhe.lwe import LweSample, lwe_decrypt_phase
from repro.tfhe.torus import TORUS_MODULUS, encode_message


@pytest.fixture(scope="module")
def kit(tfhe_kit):
    return tfhe_kit


@pytest.fixture(scope="module")
def gates(kit):
    return TFHEGates(kit)


def _phase_err(phase, mu):
    d = (int(phase) - int(mu)) % TORUS_MODULUS
    return min(d, TORUS_MODULUS - d)


def test_gate_bootstrap_sign(kit):
    """PBS with the constant test vector recovers the sign of the phase."""
    for sign in (+1, -1):
        mu_in = (sign * MU) % TORUS_MODULUS
        ct = kit.encrypt(mu_in)
        out = kit.gate_bootstrap(ct, MU)
        phase = lwe_decrypt_phase(out, kit.lwe_key)
        expected = MU if sign > 0 else (TORUS_MODULUS - MU)
        assert _phase_err(phase, expected) < TORUS_MODULUS // 32


def test_bootstrap_refreshes_noise(kit):
    """Output noise is independent of (large) input noise."""
    mu = MU
    noisy = kit.encrypt(mu)
    # artificially inflate noise to ~1/32 of the torus: still decodable sign
    noisy = noisy.add_constant(TORUS_MODULUS // 32)
    out = kit.gate_bootstrap(noisy, MU)
    phase = lwe_decrypt_phase(out, kit.lwe_key)
    assert _phase_err(phase, MU) < TORUS_MODULUS // 32


def test_programmable_lut(kit):
    """PBS can evaluate an arbitrary function on the phase.

    Inputs are offset by half a message step so no message sits on the
    negacyclic wrap boundary at phase 0.
    """
    space = 8  # messages 0..3 in the upper half torus only
    half_step = TORUS_MODULUS // (2 * space)
    tv = make_lut_test_polynomial(
        kit.params, lambda phase: ((int(phase * space) * 3) % 4) / space
    )
    for m in range(4):
        mu = (int(encode_message(m, space)) + half_step) % TORUS_MODULUS
        ct = kit.encrypt(mu)
        out = kit.programmable_bootstrap(ct, tv)
        phase = lwe_decrypt_phase(out, kit.lwe_key)
        expected = int(encode_message((m * 3) % 4, space))
        assert _phase_err(phase, expected) < TORUS_MODULUS // (4 * space), m


def test_bootstrap_to_extracted_dimension(kit):
    ct = kit.encrypt(MU)
    tv = make_sign_test_polynomial(kit.params, MU)
    out = kit.bootstrap_to_extracted(ct, tv)
    assert out.dim == kit.params.extracted_lwe_dim


def test_keyswitch_preserves_message(kit):
    """Keyswitching an extracted sample preserves the phase."""
    ct = kit.encrypt(MU)
    tv = make_sign_test_polynomial(kit.params, MU)
    extracted = kit.bootstrap_to_extracted(ct, tv)
    phase_before = lwe_decrypt_phase(extracted, kit.extracted_key)
    switched = kit.keyswitch_key.keyswitch(extracted)
    phase_after = lwe_decrypt_phase(switched, kit.lwe_key)
    assert switched.dim == kit.params.lwe_dim
    assert _phase_err(phase_after, phase_before) < TORUS_MODULUS // 64


def test_keyswitch_dimension_validation(kit):
    bad = LweSample.trivial(0, 3)
    with pytest.raises(ValueError):
        kit.keyswitch_key.keyswitch(bad)


# ------------------------------ gates ---------------------------------- #

TRUTH_TABLES = {
    "gate_nand": lambda a, b: not (a and b),
    "gate_and": lambda a, b: a and b,
    "gate_or": lambda a, b: a or b,
    "gate_nor": lambda a, b: not (a or b),
    "gate_xor": lambda a, b: a != b,
    "gate_xnor": lambda a, b: a == b,
}


@pytest.mark.parametrize("gate_name", sorted(TRUTH_TABLES))
def test_binary_gates(gates, gate_name):
    gate = getattr(gates, gate_name)
    truth = TRUTH_TABLES[gate_name]
    for a in (False, True):
        for b in (False, True):
            out = gate(gates.encrypt_bit(a), gates.encrypt_bit(b))
            assert gates.decrypt_bit(out) == truth(a, b), (gate_name, a, b)


def test_not_gate(gates):
    for a in (False, True):
        assert gates.decrypt_bit(gates.gate_not(gates.encrypt_bit(a))) == (not a)


def test_mux_gate(gates):
    for sel in (False, True):
        for x in (False, True):
            for y in (False, True):
                out = gates.gate_mux(
                    gates.encrypt_bit(sel),
                    gates.encrypt_bit(x),
                    gates.encrypt_bit(y),
                )
                assert gates.decrypt_bit(out) == (x if sel else y)


def test_gate_composition_full_adder(gates):
    """1-bit full adder out of gates — a realistic logic-FHE workload."""
    for a in (False, True):
        for b in (False, True):
            for cin in (False, True):
                ca, cb = gates.encrypt_bit(a), gates.encrypt_bit(b)
                cc = gates.encrypt_bit(cin)
                axb = gates.gate_xor(ca, cb)
                s = gates.gate_xor(axb, cc)
                carry = gates.gate_or(
                    gates.gate_and(ca, cb), gates.gate_and(axb, cc)
                )
                assert gates.decrypt_bit(s) == ((a != b) != cin)
                assert gates.decrypt_bit(carry) == (
                    (a and b) or ((a != b) and cin)
                )


def test_multi_value_bootstrap_shares_blind_rotate(kit):
    """One blind rotation answers several shifted-threshold queries."""
    from repro.tfhe.bootstrap import make_sign_test_polynomial

    n = kit.params.ring_degree
    tv = make_sign_test_polynomial(kit.params, MU)
    # phase 0.30: above the 0-threshold; shifted queries move the boundary
    sample = kit.encrypt(int(0.30 * TORUS_MODULUS))
    outs = kit.multi_value_bootstrap(sample, tv, [0, n // 4])
    assert len(outs) == 2
    for out in outs:
        assert out.dim == kit.params.lwe_dim
    # shift 0: phase in upper half-torus? 0.30 < 0.5 -> +MU
    phase0 = lwe_decrypt_phase(outs[0], kit.lwe_key)
    assert _phase_err(phase0, MU) < TORUS_MODULUS // 16
    # shift N/4 adds 0.125 to the effective phase: 0.425 still -> +MU
    phase1 = lwe_decrypt_phase(outs[1], kit.lwe_key)
    assert _phase_err(phase1, MU) < TORUS_MODULUS // 16
