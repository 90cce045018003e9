"""Tests for homomorphic slot-space linear transforms."""

import numpy as np
import pytest

from repro.ckks.encoder import CKKSEncoder
from repro.ckks.encryptor import CKKSDecryptor, CKKSEncryptor
from repro.ckks.evaluator import CKKSEvaluator
from repro.ckks.keys import CKKSKeyGenerator, GaloisKey
from repro.ckks.params import CKKSParams
from repro.ckks.linear import (BabySteps, SlotLinearTransform,
                               apply_real_transform)

PARAMS = CKKSParams(n=128, num_levels=4, dnum=2, hamming_weight=16)
SLOTS = PARAMS.slots


@pytest.fixture(scope="module")
def stack():
    rng = np.random.default_rng(0x11AE)
    encoder = CKKSEncoder(PARAMS.n, PARAMS.scale)
    keygen = CKKSKeyGenerator(PARAMS, rng)
    gk = keygen.rotation_key(range(1, SLOTS))
    gk.keys.update(keygen.conjugation_key().keys)
    evaluator = CKKSEvaluator(
        PARAMS, encoder, relin_key=keygen.relin_key(), galois_key=gk)
    encryptor = CKKSEncryptor(
        PARAMS, encoder, rng, public_key=keygen.public_key())
    decryptor = CKKSDecryptor(PARAMS, encoder, keygen.secret_key())
    return encryptor, decryptor, evaluator, rng


def test_diagonal_extraction():
    m = np.arange(16, dtype=float).reshape(4, 4)
    lt = SlotLinearTransform(m)
    assert lt.diagonal(0).tolist() == [0, 5, 10, 15]
    assert lt.diagonal(1).tolist() == [1, 6, 11, 12]


def test_rejects_non_square():
    with pytest.raises(ValueError):
        SlotLinearTransform(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        SlotLinearTransform(np.eye(4), giant_step=5)


def test_required_rotations_bsgs():
    lt = SlotLinearTransform(np.ones((16, 16)), giant_step=4)
    steps = lt.required_rotations()
    assert steps == {1, 2, 3, 4, 8, 12}


def test_dense_matrix_transform(stack):
    encryptor, decryptor, evaluator, rng = stack
    z = rng.normal(size=SLOTS) + 1j * rng.normal(size=SLOTS)
    m = (rng.normal(size=(SLOTS, SLOTS))
         + 1j * rng.normal(size=(SLOTS, SLOTS))) / SLOTS
    lt = SlotLinearTransform(m)
    out = lt.apply(evaluator, encryptor.encrypt_values(z))
    got = decryptor.decrypt(out)
    assert np.abs(got - m @ z).max() < 1e-3


def test_identity_matrix(stack):
    encryptor, decryptor, evaluator, rng = stack
    z = rng.normal(size=SLOTS)
    out = SlotLinearTransform(np.eye(SLOTS)).apply(
        evaluator, encryptor.encrypt_values(z))
    assert out.level == PARAMS.num_levels - 1  # exactly one level consumed
    assert np.abs(decryptor.decrypt(out) - z).max() < 1e-4


def test_permutation_matrix(stack):
    encryptor, decryptor, evaluator, rng = stack
    z = rng.normal(size=SLOTS)
    perm = np.roll(np.eye(SLOTS), 3, axis=1)  # rotation by 3 as a matrix
    out = SlotLinearTransform(perm).apply(
        evaluator, encryptor.encrypt_values(z))
    assert np.abs(decryptor.decrypt(out) - np.roll(z, -3)).max() < 1e-4


def test_sparse_diagonal_matrix_is_cheap(stack):
    """A tridiagonal-ish matrix touches only its nonzero diagonals."""
    encryptor, decryptor, evaluator, rng = stack
    m = np.diag(rng.normal(size=SLOTS))
    k = np.arange(SLOTS)
    m[k, (k + 1) % SLOTS] = rng.normal(size=SLOTS)
    lt = SlotLinearTransform(m)
    assert lt.nonzero_diagonals() == [0, 1]
    z = rng.normal(size=SLOTS)
    out = lt.apply(evaluator, encryptor.encrypt_values(z))
    assert np.abs(decryptor.decrypt(out) - m @ z).max() < 1e-3


def test_bsgs_grouping_matches_naive(stack):
    """Different giant steps give the same result."""
    encryptor, decryptor, evaluator, rng = stack
    z = rng.normal(size=SLOTS)
    m = rng.normal(size=(SLOTS, SLOTS)) / SLOTS
    ct = encryptor.encrypt_values(z)
    out_a = SlotLinearTransform(m, giant_step=1).apply(evaluator, ct)
    out_b = SlotLinearTransform(m, giant_step=8).apply(evaluator, ct)
    got_a, got_b = decryptor.decrypt(out_a), decryptor.decrypt(out_b)
    assert np.abs(got_a - got_b).max() < 1e-4


def test_real_transform_with_conjugate(stack):
    """A z + B conj(z) — the CoeffToSlot building block."""
    encryptor, decryptor, evaluator, rng = stack
    z = rng.normal(size=SLOTS) + 1j * rng.normal(size=SLOTS)
    a = (rng.normal(size=(SLOTS, SLOTS)) +
         1j * rng.normal(size=(SLOTS, SLOTS))) / SLOTS
    b = np.conj(a)
    out = apply_real_transform(
        evaluator, encryptor.encrypt_values(z), a, b)
    expected = a @ z + b @ np.conj(z)
    assert np.abs(expected.imag).max() < 1e-9  # B = conj(A) makes it real
    assert np.abs(decryptor.decrypt(out) - expected).max() < 2e-3


def test_transform_slot_count_mismatch(stack):
    _, _, evaluator, _ = stack
    with pytest.raises(ValueError):
        SlotLinearTransform(np.eye(8)).apply(evaluator, None)


def test_zero_matrix_rejected(stack):
    encryptor, _, evaluator, rng = stack
    ct = encryptor.encrypt_values(np.ones(SLOTS))
    with pytest.raises(ValueError):
        SlotLinearTransform(np.zeros((SLOTS, SLOTS))).apply(evaluator, ct)


def _hoisted_counts(g, dnum, diagonal_groups):
    """Kernel calls of one double-hoisted ``apply`` of a dense ``g*g``
    transform: ``g - 1`` baby and ``g - 1`` giant rotations.  The baby
    steps stay over ``Q*P``, so none of them makes an NTT or a Moddown;
    the giant rotations' ``u1`` go down and are raised as one batch."""
    babies = giants = g - 1
    raises = 2                     # the input's c1, then every u1 at once
    return {
        "bconv": raises * dnum,
        # the input, each raise, the diagonals
        "ntt_forward": 1 + raises + diagonal_groups,
        # every u1 goes down at once to be raised, then the transform once
        "ntt_inverse": 2,
        "moddown": 2,
        "mac": babies + g + giants,
        "automorphism_ntt": 2 * (babies + giants),
        "mul_channel_scalars": 1,  # the input lifted by P, once
        "automorphism": 0,
        "pointwise_mul": 0,
    }


def _form_rotation_keys(evaluator, steps, level):
    """Form the Galois keys of rotations by ``steps`` at ``level`` (keys
    are formed on first use), so that a count holds no key's forming."""
    for step in steps:
        g = pow(5, step % SLOTS, 2 * PARAMS.n)
        evaluator.galois_key.keys[(g, level)].key.data


def test_dense_transform_ntts_once_per_raise_and_never_per_baby_step(
        stack, kernel_calls):
    """Full double hoisting, by exact kernel counts.  The input is lifted
    by ``P`` to ``Q*P`` once and its ``c1`` raised once (``dnum`` Bconvs
    and one forward NTT); each baby rotation stays over ``Q*P``: two
    ``automorphism_ntt`` (the raised digits and ``c0``) and one ``mac``,
    with no NTT, no Moddown and no coefficient automorphism.  Each giant
    group is one ``mac`` over ``Q*P``; the giant rotations' ``u1`` go
    down as one batch (one inverse NTT and one Moddown) and are raised as
    one (``dnum`` Bconvs and one forward NTT), and each giant rotation
    takes one ``mac``; the transform goes down once (one inverse NTT and
    one Moddown).  The diagonals stay held in NTT form, so a second apply
    transforms none of them.  These pins were written for the baby steps
    over ``Q*P``: a baby that went down (one inverse NTT, one Moddown and
    one forward NTT each, as before) fails them.  They were re-pinned when
    the giant side began to go down and raise once per transform: a giant
    rotation that goes down alone (one inverse NTT, one Moddown, ``dnum``
    Bconvs and one forward NTT each, as before) fails them too."""
    encryptor, _, evaluator, rng = stack
    ct = encryptor.encrypt_values(rng.normal(size=SLOTS))
    m = (rng.normal(size=(SLOTS, SLOTS))
         + 1j * rng.normal(size=(SLOTS, SLOTS))) / SLOTS
    lt = SlotLinearTransform(m)
    g = lt.giant_step
    assert len(lt.nonzero_diagonals()) == SLOTS and SLOTS == g * g
    dnum = len(PARAMS.digits_at_level(ct.level))
    _form_rotation_keys(evaluator, lt.required_rotations(), ct.level)
    calls = kernel_calls(lambda: lt.apply(evaluator, ct))
    for kernel, count in _hoisted_counts(g, dnum, g).items():
        assert calls[kernel] == count, kernel
    again = kernel_calls(lambda: lt.apply(evaluator, ct))
    for kernel, count in _hoisted_counts(g, dnum, 0).items():
        assert again[kernel] == count, kernel


def test_missing_giant_key_raises_before_any_moddown(stack, kernel_calls):
    """Every giant key is fetched before the giant rotations' ``u1`` go
    down together: a transform whose last giant key is missing raises
    ``ValueError`` with no Moddown, inverse NTT or Bconv made, where
    giant rotations that went down one at a time made the earlier
    groups' first."""
    encryptor, _, evaluator, rng = stack
    ct = encryptor.encrypt_values(rng.normal(size=SLOTS))
    _, lt = _dense_transform(rng)
    last = lt.giant_step * (lt.giant_step - 1)
    missing = (pow(5, last, 2 * PARAMS.n), ct.level)
    partial = CKKSEvaluator(
        PARAMS, evaluator.encoder, relin_key=evaluator.relin_key,
        galois_key=GaloisKey(PARAMS, {
            k: v for k, v in evaluator.galois_key.keys.items()
            if k != missing}))

    def apply():
        with pytest.raises(ValueError, match="no Galois key for element"):
            lt.apply(partial, ct)

    calls = kernel_calls(apply)
    assert calls["moddown"] == calls["ntt_inverse"] == calls["bconv"] == 0


def test_baby_step_stays_over_qp(stack, kernel_calls):
    """Once the input is lifted and raised, one baby rotation is exactly
    two ``automorphism_ntt``, one ``mac`` and one ``pointwise_add``, and
    gives a ``(C_ext, 2, n)`` batch over ``Q*P``."""
    encryptor, _, evaluator, rng = stack
    ct = encryptor.encrypt_values(rng.normal(size=SLOTS))
    babies = BabySteps(evaluator, ct)
    babies(1)
    _form_rotation_keys(evaluator, [2], ct.level)
    calls = kernel_calls(lambda: babies(2))
    assert dict(calls) == {"automorphism_ntt": 2, "mac": 1,
                           "pointwise_add": 1}
    assert babies(2).shape == (len(babies.extended), 2, PARAMS.n)


def _dense_transform(rng):
    m = (rng.normal(size=(SLOTS, SLOTS))
         + 1j * rng.normal(size=(SLOTS, SLOTS))) / SLOTS
    return m, SlotLinearTransform(m)


def _held_words(lt):
    """Words of every NTT-form diagonal group the transform holds."""
    return sum(diags.size for _, groups in lt._ntt.values()
               for _, diags in groups.values())


def _extended_words(ct):
    """Words of all ``SLOTS`` diagonals over ``ct``'s basis and the special
    primes: the diagonals are held over ``Q*P``, where the baby steps
    are."""
    return SLOTS * (len(ct.primes) + len(PARAMS.special_primes)) * PARAMS.n


def test_transform_one_level_lower_cuts_rows(stack, kernel_calls):
    """An apply one level below the held form's basis transforms no
    diagonal, matches a fresh transform bit for bit, and leaves one NTT
    form held, over the extended basis ``Q*P``."""
    encryptor, _, evaluator, rng = stack
    ct = encryptor.encrypt_values(rng.normal(size=SLOTS))
    m, lt = _dense_transform(rng)
    g = lt.giant_step
    lt.apply(evaluator, ct)
    held = _held_words(lt)
    assert held == _extended_words(ct)
    lower = evaluator.mod_switch_to(ct, ct.level - 1)
    _form_rotation_keys(evaluator, lt.required_rotations(), lower.level)
    calls = kernel_calls(lambda: lt.apply(evaluator, lower))
    dnum = len(PARAMS.digits_at_level(lower.level))
    assert calls["ntt_forward"] == _hoisted_counts(g, dnum, 0)["ntt_forward"]
    got = lt.apply(evaluator, lower)
    want = SlotLinearTransform(m).apply(evaluator, lower)
    assert got.primes == want.primes
    for got_part, want_part in zip(got.parts, want.parts):
        assert np.array_equal(got_part.data, want_part.data)
    assert len(lt._ntt) == 1 and _held_words(lt) == held


def test_transform_rebuilds_a_basis_it_does_not_cover(stack):
    """A basis above the held one encodes the diagonals again from the
    matrix and replaces the held form, over the extended basis ``Q*P``."""
    encryptor, decryptor, evaluator, rng = stack
    z = rng.normal(size=SLOTS)
    ct = encryptor.encrypt_values(z)
    m, lt = _dense_transform(rng)
    lt.apply(evaluator, evaluator.mod_switch_to(ct, ct.level - 1))
    out = lt.apply(evaluator, ct)
    assert len(lt._ntt) == 1
    assert _held_words(lt) == _extended_words(ct)
    assert np.abs(decryptor.decrypt(out) - m @ z).max() < 1e-3
