"""Tests for Modup-hoisted rotation batches (the BSP-L=n+ optimization)."""

import numpy as np
import pytest

from repro.ckks.params import CKKSParams

PARAMS = CKKSParams(n=512, num_levels=4, dnum=2, hamming_weight=32)
STEPS = [1, 2, 5, 17]


@pytest.fixture(scope="module")
def stack(ckks512_stack):
    s = ckks512_stack
    assert s.params == PARAMS
    # the shared stack's rotation keys cover STEPS (and omit step 3, which
    # test_hoisted_missing_key relies on)
    return s.encryptor, s.decryptor, s.evaluator, s.rng


def test_hoisted_rotations_correct(stack):
    encryptor, decryptor, evaluator, rng = stack
    z = rng.normal(size=PARAMS.slots)
    ct = encryptor.encrypt_values(z)
    rotated = evaluator.rotate_batch_hoisted(ct, STEPS)
    assert set(rotated) == set(STEPS)
    for step, out in rotated.items():
        got = decryptor.decrypt(out)
        assert np.abs(got - np.roll(z, -step)).max() < 1e-4, step


def test_hoisted_matches_individual_rotations(stack):
    encryptor, decryptor, evaluator, rng = stack
    z = rng.normal(size=PARAMS.slots)
    ct = encryptor.encrypt_values(z)
    hoisted = evaluator.rotate_batch_hoisted(ct, [1, 5])
    for step in (1, 5):
        individual = decryptor.decrypt(evaluator.rotate(ct, step))
        shared = decryptor.decrypt(hoisted[step])
        assert np.abs(individual - shared).max() < 1e-5, step


def test_hoisted_shares_one_modup(stack, monkeypatch):
    """The point of hoisting: Bconv digit conversions happen once, not
    once per rotation, and the rotations go down together."""
    from repro.kernels import get_backend

    encryptor, _, evaluator, rng = stack
    backend = get_backend()
    calls = {"n": 0}
    real = backend.bconv

    def counting(x, source, target):
        calls["n"] += 1
        return real(x, source, target)

    # every conversion — the evaluator's explicit digit raise and the
    # moddown-internal one — funnels through the active kernel backend
    monkeypatch.setattr(backend, "bconv", counting)
    z = rng.normal(size=PARAMS.slots)
    ct = encryptor.encrypt_values(z)
    evaluator.rotate_batch_hoisted(ct, STEPS)
    digits = len(PARAMS.digits_at_level(PARAMS.num_levels))
    # digits modup conversions (shared) + one moddown conversion of every
    # part of every step
    assert calls["n"] == digits + 1


def test_hoisted_at_lower_level(stack):
    encryptor, decryptor, evaluator, rng = stack
    z = rng.normal(size=PARAMS.slots)
    ct = encryptor.encrypt_values(z, level=1)
    rotated = evaluator.rotate_batch_hoisted(ct, [2])
    assert np.abs(
        decryptor.decrypt(rotated[2]) - np.roll(z, -2)).max() < 1e-4


def test_hoisted_missing_key(stack):
    encryptor, _, evaluator, rng = stack
    ct = encryptor.encrypt_values(rng.normal(size=PARAMS.slots))
    with pytest.raises(ValueError):
        evaluator.rotate_batch_hoisted(ct, [3])  # no key for step 3


def test_hoisted_requires_size_two(stack):
    encryptor, _, evaluator, rng = stack
    z = rng.normal(size=PARAMS.slots)
    big = evaluator.multiply(encryptor.encrypt_values(z),
                             encryptor.encrypt_values(z), relin=False)
    with pytest.raises(ValueError):
        evaluator.rotate_batch_hoisted(big, [1])
