"""Tests for functional CKKS bootstrapping (reduced parameters).

One shared pipeline run (bootstrapping at n=128 takes a few seconds in
pure Python); the individual tests assert different properties of the
same refreshed ciphertext plus the stage-level behaviours.
"""

from collections import Counter

import numpy as np
import pytest

from repro.ckks.bootstrap import CKKSBootstrapper, embedding_matrix
from repro.ckks.encoder import CKKSEncoder
from repro.ckks.encryptor import Ciphertext, CKKSDecryptor, CKKSEncryptor
from repro.ckks.evaluator import CKKSEvaluator
from repro.ckks.keys import CKKSKeyGenerator
from repro.ckks.params import CKKSParams
from tests.ckks.test_scheme import BACKENDS, _on, _same

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


def _key_trace(evaluator, fn):
    evaluator.key_trace = []
    try:
        fn()
        return list(evaluator.key_trace)
    finally:
        evaluator.key_trace = None


BABIES = [f"rot:{j}" for j in range(1, 8)]
GIANTS = [f"rot:{8 * i}" for i in range(1, 8)]


def test_coeff_to_slot_is_one_transform_and_one_conjugation(pipeline):
    """One BSGS 8 x 8 transform over 64 slots (7 baby and 7 giant
    rotations) and one conjugation of its output."""
    encryptor, _, evaluator, boot, rng = pipeline
    ct = encryptor.encrypt_values(rng.uniform(-1, 1, PARAMS.slots), level=0)
    raised = boot.mod_raise(ct)
    trace = _key_trace(evaluator, lambda: boot.coeff_to_slot(raised))
    assert sorted(trace) == sorted(BABIES + GIANTS + ["conj"])


def test_slot_to_coeff_is_one_transform(pipeline):
    """``head + i tail`` through one transform: 7 baby and 7 giant
    rotations, and no conjugation."""
    encryptor, _, evaluator, boot, rng = pipeline
    head, tail = (encryptor.encrypt_values(rng.uniform(-1, 1, PARAMS.slots),
                                           level=1) for _ in range(2))
    trace = _key_trace(evaluator, lambda: boot.slot_to_coeff(head, tail))
    assert sorted(trace) == sorted(BABIES + GIANTS)


def test_bootstrap_touches_each_key_as_before(pipeline):
    """One bootstrap's key touches, as a multiset: each baby and giant
    rotation key once per transform, the conjugation key once and the
    relinearization key once per EvalMod Cmult.  Fetching a transform's
    giant keys before its giant rotations go down together changes the
    order of the touches, not which keys are touched how often."""
    encryptor, _, evaluator, boot, rng = pipeline
    ct = encryptor.encrypt_values(rng.uniform(-1, 1, PARAMS.slots), level=0)
    trace = _key_trace(evaluator, lambda: boot.bootstrap(ct))
    assert Counter(trace) == Counter(
        2 * (BABIES + GIANTS) + ["conj"] + 11 * ["relin"])


@pytest.mark.parametrize("n", [8, 32, 128, 512])
def test_embedding_tail_is_i_times_head(n):
    """``E[:, n/2 + j] = i E[:, j]``: every ``5^k`` is 1 mod 4, so
    ``zeta^((n/2) 5^k) = i``.  CoeffToSlot and SlotToCoeff rest on it."""
    e = embedding_matrix(n)
    s = n // 2
    assert e.shape == (s, n)
    assert np.abs(e[:, s:] - 1j * e[:, :s]).max() < 1e-12


def test_bootstrap_kernel_calls(pipeline, refreshed, kernel_calls):
    """One bootstrap's exact kernel calls, with the transforms' diagonals
    already held in NTT form (``refreshed`` ran one): two slot transforms,
    one conjugation and one EvalMod over both halves as one stack, whose
    11 relinearizations and 11 ciphertext products (8 of them squarings)
    each cover head and tail with one set of calls.  Six ``negate``
    calls: two for CoeffToSlot's subtraction and two for each multiply by
    ``i``.  Six transforms, a second set of baby steps or an EvalMod per
    half would fail this.  A benchmark request adds one forward and one
    inverse NTT each for encryption and decryption (33 and 30).

    Re-pinned when the keyswitch results began to stay over ``Q·P`` until
    their one Moddown.  The 14 baby rotations make no NTT (they made one
    inverse and one forward each: 57 and 54 calls before); the giant
    steps' ``u1`` Moddowns replace the babies' one for one, so ``moddown``
    stays 28.  Each transform's lift of its input and each
    relinearization's lift of ``(d0, d1)`` is one ``mul_channel_scalars``
    (16 → 27); a relinearization adds the lifted pair with one
    ``pointwise_add`` where it added ``k0`` and ``k1`` with two, and a
    transform sums its giant groups with two fewer (98 → 83).

    Re-pinned when a transform's giant rotations began to go down in one
    call and be raised in one call: each transform's 7 giant ``u1`` take
    one inverse NTT, one Moddown, ``dnum`` Bconvs and one forward NTT in
    all, where each took its own (forward 43 → 31, inverse 40 → 28,
    ``moddown`` 28 → 16, ``bconv`` 43 → 25)."""
    encryptor, _, _, boot, rng = pipeline
    ct = encryptor.encrypt_values(rng.uniform(-1, 1, PARAMS.slots), level=0)
    calls = kernel_calls(lambda: boot.bootstrap(ct))
    assert dict(calls) == {
        "ntt_forward": 31, "ntt_inverse": 28, "bconv": 25, "moddown": 16,
        "mac": 56, "automorphism_ntt": 56, "automorphism": 2, "negate": 6,
        "rescale": 28, "mul_channel_scalars": 27, "pointwise_add": 83,
        "pointwise_mul": 12,
    }


@BACKENDS
def test_eval_mod_of_a_stack_is_eval_mod_of_each(pipeline, backend):
    """EvalMod of a stack of two unstacks to EvalMod of each, bit for bit,
    on the active and the per-limb reference backend."""
    encryptor, _, _, boot, rng = pipeline
    pair = [encryptor.encrypt_values(rng.uniform(-4, 4, PARAMS.slots),
                                     level=15) for _ in range(2)]
    with _on(backend):
        got = boot.eval_mod(Ciphertext.stack(pair)).unstack()
        for out, ct in zip(got, pair):
            assert _same(out, boot.eval_mod(ct))


def test_bootstrap_runs_one_eval_mod_on_a_stack_of_both_halves(
        pipeline, refreshed, monkeypatch):
    _, _, _, boot, _ = pipeline
    _, ct, out = refreshed
    stack_sizes = []
    eval_mod = boot.eval_mod

    def counted(stacked):
        stack_sizes.append(stacked.stack_size)
        return eval_mod(stacked)

    monkeypatch.setattr(boot, "eval_mod", counted)
    assert _same(boot.bootstrap(ct), out)
    assert stack_sizes == [2]


def test_mod_raise_rejects_a_stack(pipeline):
    encryptor, _, _, boot, rng = pipeline
    pair = [encryptor.encrypt_values(rng.uniform(-1, 1, PARAMS.slots),
                                     level=0) for _ in range(2)]
    with pytest.raises(ValueError, match="not a stack"):
        boot.mod_raise(Ciphertext.stack(pair))


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
