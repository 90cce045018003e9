"""Bit-identity corpus for the CKKS slot transforms and what they call.

Most SHA-256 digests in ``DIGESTS`` were recorded with the implementation
that sent every diagonal term of a slot transform through ``mul_plain``
(one plaintext encode, three forward and two inverse NTTs per term),
reduced encoded plaintexts through Python integers, reconstructed CRT
lifts one coefficient at a time and raised keyswitch digits one at a
time.  Every step that replaced those is an exact linear map mod q, and
rotations are deterministic, so those outputs must reproduce their
digests: ``mul_plain``, ``add_plain``, ``encode``, ``relinearize``,
``decrypt``, ``bfv_multiply`` and ``rotate_batch_hoisted`` (permuting the
raised digits in the NTT domain equals permuting them in coefficient
form bit for bit).  A term over ``Q`` added to a keyswitch result over
``Q*P`` as ``P*x`` before its Moddown leaves it unchanged too
(``ModDown(P*x + y) = x + ModDown(y)`` exactly), so ``relinearize``,
which adds ``P*(d0, d1)`` to the switched pair and goes down once, and
``rotate_batch_hoisted``, which takes all its rotations down in one call
(Moddown works coefficient by coefficient, so that equals one call per
rotation), still match.

The four transform cases and ``bootstrap`` are pinned to the
double-hoisted transform instead.  It sums the giant steps' keyswitch
products over ``Q*P`` and Moddowns once per transform, and one Moddown of
a sum differs from the sum of Moddowns by a few units per coefficient,
so these outputs changed at the rounding level when it landed; their
precision is checked by ``tests/ckks/test_linear.py`` and
``tests/ckks/test_bootstrap.py``.  ``transform_default``,
``transform_two_diagonals``, ``real_transform`` and ``bootstrap`` were
re-recorded when the baby steps, too, began to stay over ``Q*P``: a
giant group now sums its baby rotations' unrounded switched pairs and
goes down with them, not once per baby rotation.  ``transform_giant1``
has no baby rotation, and its digest did not move.

``bootstrap`` is pinned, further, to one slot transform each for
CoeffToSlot and SlotToCoeff: CoeffToSlot conjugates the transform's
rescaled output (one keyswitch) where it used to sum a transform of the
input and one of its conjugate per half, and SlotToCoeff transforms
``head + i tail`` where it used to sum two transforms.  Both are the same
maps up to rounding (``E[:, n/2 + j] = i E[:, j]``), so the bootstrap
output changed at the rounding level again; every other digest here
stayed as it was.

``transform_mixed_babies`` (giant groups with different baby sets),
``transform_no_group0`` (every diagonal a multiple of the giant step, so
every group has a giant rotation) and ``rotate_batch_hoisted_single``
were recorded from the transform and hoisted rotations above, as they
stood when each giant rotation still went down and was raised on its
own and each hoisted rotation went down alone.  A transform now takes
the ``u1`` of all its giant groups down in one call and raises them in
one, and a hoisted batch goes down once; Moddown and Bconv work
coefficient by coefficient and the NTT row by row, so every digest here
passed unedited.

The small cases also run under the per-limb ``reference`` kernel backend.
Every generator below is seeded here, so the digests do not follow
``REPRO_TEST_SEED``.  Encoding rounds FFT outputs, so the digests assume
numpy's pocketfft; they were recorded with numpy 2.4.
"""

import contextlib
import hashlib
from types import SimpleNamespace

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
from repro.ckks.bootstrap import CKKSBootstrapper
from repro.ckks.encoder import CKKSEncoder
from repro.ckks.encryptor import CKKSDecryptor, CKKSEncryptor
from repro.ckks.evaluator import CKKSEvaluator
from repro.ckks.keys import CKKSKeyGenerator
from repro.ckks.linear import SlotLinearTransform, apply_real_transform
from repro.ckks.params import CKKSParams
from repro.kernels import backend_scope

SMALL = CKKSParams(n=32, num_levels=3, dnum=2, hamming_weight=8)
BOOT = CKKSParams(n=128, num_levels=16, dnum=2, hamming_weight=16)
BFV = BFVParams(n=64, num_primes=3, hamming_weight=16)

#: Output digests, one per case below (see the module docstring for which
#: implementation each is pinned to).
DIGESTS = {
    "transform_giant1":
        "cbe2d2b179d421d018c57876d24ed01dbca1bda26b09b43c77a8528583a45d51",
    "transform_default":
        "7e1aba1f8276332db636cd646eec475eee2e2dc12a8a35ab47400c4a5eecb938",
    "transform_two_diagonals":
        "0b180d16c6d0ff946aa119136786f5c63239b785c02199e03d3baa92a0ae8ecc",
    "transform_mixed_babies":
        "b3f56b20cd8acd8792560d8b7b08f962933975b748b119c4dc3dc872b3f48777",
    "transform_no_group0":
        "f168421a29962dbdccb423f665cff603141b76df96a0859a27f8838f32749041",
    "real_transform":
        "8155413af8c98f17050bba8c4483593bfa489f700556582d2ab1cab7b40b6584",
    "mul_plain":
        "e070b825cd0359d9713aee83003e0c39a06d3cac50cefdcb48f47f144e60303e",
    "add_plain":
        "c8a3780824d4e1287124d1db7d1272af9477271b95b24a2d37a54f803eced453",
    "encode":
        "9344445aa7f73bbc4e1044d6458e4d043022e292ced46acd33efbd55e7623156",
    "rotate_batch_hoisted":
        "00dcb370f41f9494fdd230322cd9de1794a3ec60b0b9d1e6d75b12e7cab9a2d0",
    "rotate_batch_hoisted_single":
        "2f85c29de2c300520643b0051a0b4cbd5822550c015408f1350ba95a7669cabd",
    "relinearize":
        "6cc8cb868fb5df347f91ca391e36bf3666e8c0bc1ca022f75e92146dcd3c74a9",
    "decrypt":
        "f146fd38452fcc7ba651c23afdd6d80fde9214073f1869ef319fed11d95b9739",
    "bfv_multiply":
        "686414515dac53e8892e29eb9163d49f6f9393a552cc9649953ea6735db28e68",
    "bootstrap":
        "7345dae67879790d5368e0c9b3600849eee2ecaa84fdde0e0c750ecbc2307d2e",
}


def _hash(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        if isinstance(chunk, np.ndarray):
            chunk = np.ascontiguousarray(chunk).tobytes()
        elif not isinstance(chunk, bytes):
            chunk = repr(chunk).encode()
        h.update(chunk)
    return h.hexdigest()


def _ct_chunks(ct):
    """Parts, primes, form and scale of a CKKS or BFV ciphertext."""
    chunks = [ct.parts[0].primes, getattr(ct, "scale", None)]
    for part in ct.parts:
        chunks += [part.ntt_form, part.data.astype(np.uint64)]
    return chunks


def _ckks_stack(params, seed, rotations):
    rng = np.random.default_rng(seed)
    encoder = CKKSEncoder(params.n, params.scale)
    keygen = CKKSKeyGenerator(params, rng)
    galois = keygen.rotation_key(rotations)
    galois.keys.update(keygen.conjugation_key().keys)
    evaluator = CKKSEvaluator(params, encoder, relin_key=keygen.relin_key(),
                              galois_key=galois)
    return SimpleNamespace(
        params=params, encoder=encoder, keygen=keygen, evaluator=evaluator,
        encryptor=CKKSEncryptor(params, encoder, rng,
                                public_key=keygen.public_key()),
        decryptor=CKKSDecryptor(params, encoder, keygen.secret_key()),
    )


def _bfv_stack():
    rng = np.random.default_rng(0xD1606)
    encoder = BFVEncoder(BFV.n, BFV.plain_modulus)
    keygen = BFVKeyGenerator(BFV, rng)
    return SimpleNamespace(
        encryptor=BFVEncryptor(BFV, rng, keygen.public_key(), encoder),
        decryptor=BFVDecryptor(BFV, keygen.secret_key(), encoder),
        evaluator=BFVEvaluator(BFV, relin_key=keygen.relin_key()),
    )


@pytest.fixture(scope="module")
def small():
    return _ckks_stack(SMALL, 0xD1605, range(1, SMALL.slots))


@pytest.fixture(scope="module")
def bfv():
    return _bfv_stack()


def _inputs(stack, seed):
    """A fresh generator that also drives the encryptor's randomness, so
    each case depends on its own seed alone."""
    rng = np.random.default_rng(seed)
    stack.encryptor.rng = rng
    return rng


def _complex(rng, *shape):
    return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)


def _fresh(stack, rng, level=None):
    z = _complex(rng, stack.params.slots) / 2
    return stack.encryptor.encrypt_values(z, level=level)


# ------------------------------ small cases ----------------------------- #


def _transform_giant1(s):
    rng = _inputs(s, 1)
    ct = _fresh(s, rng)
    m = _complex(rng, SMALL.slots, SMALL.slots) / SMALL.slots
    return _hash(*_ct_chunks(
        SlotLinearTransform(m, giant_step=1).apply(s.evaluator, ct)))


def _transform_default(s):
    rng = _inputs(s, 2)
    ct = _fresh(s, rng)
    m = _complex(rng, SMALL.slots, SMALL.slots) / SMALL.slots
    return _hash(*_ct_chunks(SlotLinearTransform(m).apply(s.evaluator, ct)))


def _transform_two_diagonals(s):
    rng = _inputs(s, 3)
    ct = _fresh(s, rng)
    k = np.arange(SMALL.slots)
    m = np.zeros((SMALL.slots, SMALL.slots), dtype=np.complex128)
    m[k, k] = _complex(rng, SMALL.slots)
    m[k, (k + 5) % SMALL.slots] = _complex(rng, SMALL.slots)
    return _hash(*_ct_chunks(SlotLinearTransform(m).apply(s.evaluator, ct)))


def _sparse_transform(s, seed, diagonals):
    """A transform whose only nonzero diagonals are ``diagonals``."""
    rng = _inputs(s, seed)
    ct = _fresh(s, rng)
    k = np.arange(SMALL.slots)
    m = np.zeros((SMALL.slots, SMALL.slots), dtype=np.complex128)
    for d in diagonals:
        m[k, (k + d) % SMALL.slots] = _complex(rng, SMALL.slots)
    return _hash(*_ct_chunks(SlotLinearTransform(m).apply(s.evaluator, ct)))


def _transform_mixed_babies(s):
    # giant step 4: group 0 holds baby 1, group 1 babies 0 and 1, group 2
    # baby 3
    g = 4
    return _sparse_transform(s, 13, [1, g, g + 1, 2 * g + 3])


def _transform_no_group0(s):
    # every diagonal a multiple of the giant step: three giant groups of
    # baby 0 each, and no group without a giant rotation
    g = 4
    return _sparse_transform(s, 14, [g, 2 * g, 3 * g])


def _real_transform(s):
    rng = _inputs(s, 4)
    ct = _fresh(s, rng)
    a = _complex(rng, SMALL.slots, SMALL.slots) / SMALL.slots
    b = _complex(rng, SMALL.slots, SMALL.slots) / SMALL.slots
    return _hash(*_ct_chunks(apply_real_transform(s.evaluator, ct, a, b)))


def _mul_plain(s):
    rng = _inputs(s, 5)
    ct = _fresh(s, rng, level=2)
    return _hash(*_ct_chunks(
        s.evaluator.mul_plain(ct, _complex(rng, SMALL.slots))))


def _add_plain(s):
    rng = _inputs(s, 6)
    ct = _fresh(s, rng, level=1)
    return _hash(*_ct_chunks(
        s.evaluator.add_plain(ct, _complex(rng, SMALL.slots))))


def _encode(s):
    rng = _inputs(s, 7)
    chunks = []
    for level in (None, 1):
        pt = s.encryptor.encode(_complex(rng, SMALL.slots), level=level)
        chunks += [pt.poly.primes, pt.scale, pt.poly.data]
    return _hash(*chunks)


def _rotate_batch_hoisted(s):
    rng = _inputs(s, 8)
    rotated = s.evaluator.rotate_batch_hoisted(_fresh(s, rng), [1, 3, 6, 13])
    return _hash(*(c for step in sorted(rotated)
                   for c in [step] + _ct_chunks(rotated[step])))


def _rotate_batch_hoisted_single(s):
    rng = _inputs(s, 15)
    rotated = s.evaluator.rotate_batch_hoisted(_fresh(s, rng), [5])
    return _hash(5, *_ct_chunks(rotated[5]))


def _relinearize(s):
    rng = _inputs(s, 9)
    ev = s.evaluator
    ct = ev.multiply(_fresh(s, rng), _fresh(s, rng), relin=False)
    return _hash(*_ct_chunks(ev.relinearize(ct)))


def _decrypt(s):
    rng = _inputs(s, 10)
    ct = s.evaluator.mul_plain(_fresh(s, rng), _complex(rng, SMALL.slots))
    return _hash(s.decryptor.decrypt(ct), s.decryptor.decrypt(_fresh(s, rng)))


SMALL_CASES = {
    "transform_giant1": _transform_giant1,
    "transform_default": _transform_default,
    "transform_two_diagonals": _transform_two_diagonals,
    "transform_mixed_babies": _transform_mixed_babies,
    "transform_no_group0": _transform_no_group0,
    "real_transform": _real_transform,
    "mul_plain": _mul_plain,
    "add_plain": _add_plain,
    "encode": _encode,
    "rotate_batch_hoisted": _rotate_batch_hoisted,
    "rotate_batch_hoisted_single": _rotate_batch_hoisted_single,
    "relinearize": _relinearize,
    "decrypt": _decrypt,
}


def _bfv_multiply(b):
    rng = np.random.default_rng(11)
    b.encryptor.rng = rng
    t = BFV.plain_modulus
    x = b.encryptor.encrypt_values(rng.integers(0, t, BFV.n))
    y = b.encryptor.encrypt_values(rng.integers(0, t, BFV.n))
    product = b.evaluator.multiply(x, y)
    values = b.decryptor.decrypt_values(product)
    return _hash(*_ct_chunks(product), np.asarray(values, dtype=np.int64))


def _bootstrap():
    stack = _ckks_stack(BOOT, 0xD1607, ())
    boot = CKKSBootstrapper(BOOT, stack.encoder, stack.evaluator,
                            r=7, taylor_terms=5)
    stack.evaluator.galois_key.keys.update(
        stack.keygen.rotation_key(boot.required_rotations()).keys)
    rng = _inputs(stack, 12)
    ct = stack.encryptor.encrypt_values(rng.uniform(-1, 1, BOOT.slots),
                                        level=0)
    return _hash(*_ct_chunks(boot.bootstrap(ct)))


#: The active backend (numpy unless ``REPRO_KERNEL_BACKEND`` says
#: otherwise) and the per-limb reference backend.
BACKENDS = pytest.mark.parametrize("backend", [None, "reference"],
                                   ids=["active", "reference"])


def _on(backend):
    return contextlib.nullcontext() if backend is None else (
        backend_scope(backend))


@BACKENDS
@pytest.mark.parametrize("name", sorted(SMALL_CASES))
def test_small_case_reproduces_digest(small, name, backend):
    with _on(backend):
        assert SMALL_CASES[name](small) == DIGESTS[name]


@BACKENDS
def test_bfv_multiply_reproduces_digest(bfv, backend):
    with _on(backend):
        assert _bfv_multiply(bfv) == DIGESTS["bfv_multiply"]


def test_bootstrap_reproduces_digest():
    assert _bootstrap() == DIGESTS["bootstrap"]
