"""Batched programmable bootstrapping: one blind-rotation pass, same bits.

A fixed corpus of nine LWE samples goes through ``gate_bootstrap``,
``programmable_bootstrap`` with a LUT test polynomial, and
``multi_value_bootstrap``.  The SHA-256 digests in ``DIGESTS`` were
recorded with the per-sample blind rotation that the batched pass
replaced.  The batched pass must reproduce them one sample at a time, as
one batch of nine, and split across shuffled batches.  The corpus holds a
trivial sample (every rotation is 0) and a sample with every third mask
coefficient zeroed, so rows whose external product is exactly zero share
a pass with rows whose product is not.
"""

import hashlib

import numpy as np
import pytest

from repro.tfhe.bootstrap import (
    BootstrapKit,
    make_lut_test_polynomial,
    make_sign_test_polynomial,
)
from repro.tfhe.gates import MU, TFHEGates
from repro.tfhe.integers import EncryptedInt, EncryptedIntEvaluator
from repro.tfhe.lwe import LweSample, lwe_encrypt
from repro.tfhe.params import TEST_PARAMS
from repro.tfhe.torus import TORUS_MODULUS

T = TORUS_MODULUS

#: Output digests of the per-sample implementation on ``corpus``, in
#: corpus order (and shift order for the multi-value outputs).
DIGESTS = {
    "gate": "b9bd270afced10f36d7893fc89c5e60697f878a99767e9141948c3e16a1990e2",
    "lut": "47eb774cea51b229821042f07e65c17947318350c410458012b2e2c66307137e",
    "multi_value":
        "ed759456b22a5a677cf40bf66263f90b017d987205706177c2ee1aa00a53ebbc",
}

SHIFTS = (0, TEST_PARAMS.ring_degree // 4, TEST_PARAMS.ring_degree // 2 + 3)

#: Output digests of the gate-at-a-time circuits on 3-bit 5 and 3; the
#: level-batched circuits run the same gates on the same inputs.
CIRCUIT_DIGESTS = {
    "add": "ba3acbcb08cb9f1e4ad30b58d57bc7b8f89211bb81d2b1711134b747d0bfe5cb",
    "sub": "62fa7de2a0279a158c95f86751c1bd0282655256dcab66e215d24c29a9ff945b",
    "select":
        "5850f27ad81e25939750d8d438fa24a4b14ad857510414dd027a093fcab78e99",
}


@pytest.fixture(scope="module")
def kit():
    # its own seed, so the pinned digests do not follow REPRO_TEST_SEED
    return BootstrapKit(TEST_PARAMS, np.random.default_rng(0xBA7C4))


@pytest.fixture(scope="module")
def corpus(kit):
    rng = np.random.default_rng(0xBA7C5)
    n = kit.params.lwe_dim
    thirds = lwe_encrypt(MU, kit.lwe_key, rng)
    mask = thirds.a.copy()
    mask[::3] = 0
    samples = [LweSample.trivial(MU, n), LweSample(mask, thirds.b)]
    for mu in (MU, T - MU, 3 * MU, T - 3 * MU, int(0.3 * T), int(0.55 * T)):
        samples.append(lwe_encrypt(mu, kit.lwe_key, rng))
    samples.append(LweSample(
        rng.integers(0, T, n, dtype=np.int64).astype(np.uint32),
        np.uint32(rng.integers(0, T))))
    return samples


def _call(kit, name, sample):
    """The outputs of one PBS entry point on ``sample`` (one or a batch)."""
    if name == "gate":
        return [kit.gate_bootstrap(sample, MU)]
    if name == "lut":
        lut = make_lut_test_polynomial(
            kit.params, lambda phase: ((int(phase * 8) * 3) % 4) / 8)
        return [kit.programmable_bootstrap(sample, lut)]
    sign = make_sign_test_polynomial(kit.params, MU)
    return kit.multi_value_bootstrap(sample, sign, SHIFTS)


def _per_sample(outputs):
    """Batched outputs regrouped as one list of outputs per sample."""
    return [list(row) for row in zip(*(out.unstack() for out in outputs))]


def _digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(np.asarray(out.a, dtype=np.uint32).tobytes())
        h.update(np.asarray(out.b, dtype=np.uint32).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_one_sample_at_a_time_matches_pinned_digest(kit, corpus, name):
    outputs = [out for sample in corpus for out in _call(kit, name, sample)]
    assert _digest(outputs) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_one_batch_of_nine_matches_pinned_digest(kit, corpus, name):
    rows = _per_sample(_call(kit, name, LweSample.stack(corpus)))
    assert _digest([out for row in rows for out in row]) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_shuffled_batches_match_pinned_digest(kit, corpus, name):
    order = np.random.default_rng(0xBA7C6).permutation(len(corpus))
    rows = [None] * len(corpus)
    for chunk in np.split(order, [4, 6]):       # batches of 4, 2 and 3
        batch = LweSample.stack([corpus[i] for i in chunk])
        for i, row in zip(chunk, _per_sample(_call(kit, name, batch))):
            rows[i] = row
    assert _digest([out for row in rows for out in row]) == DIGESTS[name]


def test_batch_pass_fetches_the_bootstrapping_key_once(kit, corpus):
    """One pass is one ``bsk`` touch (the fetch-once ``pbs_batch_program``
    charges); every output still costs its own ``ksk`` keyswitch."""
    sign = make_sign_test_polynomial(kit.params, MU)
    kit.key_trace = []
    try:
        kit.multi_value_bootstrap(LweSample.stack(corpus[:4]), sign, SHIFTS)
        assert kit.key_trace == ["bsk"] + ["ksk"] * (4 * len(SHIFTS))
    finally:
        kit.key_trace = None


# ------------------------------ typed input checks ---------------------- #

@pytest.mark.parametrize("dim", [TEST_PARAMS.ring_degree, 10])
def test_pbs_rejects_samples_of_the_wrong_dimension(kit, dim):
    """An extracted-key (dimension N) sample used to come back silently
    wrong, and a short one failed with a bare IndexError."""
    rng = np.random.default_rng(dim)
    sample = LweSample(rng.integers(0, T, dim, dtype=np.int64)
                       .astype(np.uint32), np.uint32(MU))
    with pytest.raises(ValueError, match=f"lwe_dim {TEST_PARAMS.lwe_dim}"):
        kit.gate_bootstrap(sample, MU)
    with pytest.raises(ValueError, match=f"lwe_dim {TEST_PARAMS.lwe_dim}"):
        kit.blind_rotate(LweSample.stack([sample, sample]),
                         make_sign_test_polynomial(kit.params, MU))


# ------------------------------ batched gates --------------------------- #

TRUTH = {
    "nand": lambda a, b: not (a and b),
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
    "nor": lambda a, b: not (a or b),
    "xor": lambda a, b: a != b,
    "xnor": lambda a, b: a == b,
}


def test_mixed_gate_kinds_share_one_pass(kit):
    """All binary gates share the sign test polynomial, so every kind on
    every input pair bootstraps in one pass."""
    gates = TFHEGates(kit)
    pairs = [(a, b) for a in (False, True) for b in (False, True)]
    enc = {p: (gates.encrypt_bit(p[0]), gates.encrypt_bit(p[1]))
           for p in pairs}
    cases = [(kind, p) for kind in sorted(TRUTH) for p in pairs]
    kit.key_trace = []
    try:
        outs = gates.bootstrap(
            [gates.linear(kind, *enc[p]) for kind, p in cases])
        assert kit.key_trace.count("bsk") == 1
    finally:
        kit.key_trace = None
    for (kind, (a, b)), out in zip(cases, outs):
        assert gates.decrypt_bit(out) == TRUTH[kind](a, b), (kind, a, b)
    # the one-gate methods are one-element passes with the same bits
    p = (True, False)
    for kind, out in zip(sorted(TRUTH), outs[pairs.index(p)::len(pairs)]):
        single = getattr(gates, f"gate_{kind}")(*enc[p])
        assert np.array_equal(single.a, out.a) and single.b == out.b, kind


def test_level_batched_circuits_match_pinned_digests(kit):
    """``add``, ``sub`` and ``select`` regroup their gates into one pass
    per circuit level; every output ciphertext keeps its bits."""
    rng = np.random.default_rng(0xBA7C7)

    def encrypt(value, width=3):
        return EncryptedInt([lwe_encrypt(MU if (value >> k) & 1 else T - MU,
                                         kit.lwe_key, rng)
                             for k in range(width)])

    ev = EncryptedIntEvaluator(TFHEGates(kit))
    a, b = encrypt(5), encrypt(3)
    cond = lwe_encrypt(MU, kit.lwe_key, rng)
    outputs = {"add": ev.add(a, b), "sub": ev.sub(a, b),
               "select": ev.select(cond, a, b)}
    assert {name: _digest(out.bits) for name, out in outputs.items()} \
        == CIRCUIT_DIGESTS


def test_unknown_gate_kind_is_rejected(kit):
    gates = TFHEGates(kit)
    bit = gates.encrypt_bit(True)
    with pytest.raises(ValueError, match="unknown gate"):
        gates.linear("implies", bit, bit)
