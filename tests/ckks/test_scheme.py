"""End-to-end CKKS scheme tests: keygen, encryption, evaluator operations.

These exercise the exact high-level operator pipeline the paper benchmarks
in Table 7 (Hadd, Pmult, Cmult, Keyswitch, Rotation), at reduced parameters.
"""

import contextlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.ckks.encoder import CKKSEncoder
from repro.ckks.encryptor import Ciphertext, CKKSDecryptor, CKKSEncryptor
from repro.ckks.evaluator import CKKSEvaluator
from repro.ckks.keys import CKKSKeyGenerator, GaloisKey, RelinKey
from repro.ckks.params import CKKSParams
from repro.kernels import backend_scope

# Same parameters as the session-scoped ckks512_stack in conftest.py;
# keygen is the expensive part, so all n=512 modules share one stack.
PARAMS = CKKSParams(n=512, num_levels=4, dnum=2, hamming_weight=32)


@pytest.fixture(scope="module")
def stack(ckks512_stack):
    s = ckks512_stack
    assert s.params == PARAMS
    return s.encryptor, s.decryptor, s.evaluator, s.rng


def _values(rng, scale=1.0):
    return scale * rng.normal(size=PARAMS.slots)


TOL = 1e-4  # generous: Delta = 2^35 gives ~1e-7, leave margin for depth


def test_encrypt_decrypt(stack):
    enc, dec, ev, rng = stack
    z = _values(rng)
    assert np.abs(dec.decrypt(enc.encrypt_values(z)) - z).max() < TOL


def test_symmetric_encrypt_decrypt(stack):
    enc, dec, ev, rng = stack
    z = _values(rng)
    ct = enc.encrypt_symmetric(enc.encode(z))
    assert np.abs(dec.decrypt(ct) - z).max() < TOL


def test_encrypt_at_lower_level(stack):
    enc, dec, ev, rng = stack
    z = _values(rng)
    ct = enc.encrypt_values(z, level=1)
    assert ct.level == 1
    assert np.abs(dec.decrypt(ct) - z).max() < TOL


def test_hadd(stack):
    enc, dec, ev, rng = stack
    z1, z2 = _values(rng), _values(rng)
    out = ev.add(enc.encrypt_values(z1), enc.encrypt_values(z2))
    assert np.abs(dec.decrypt(out) - (z1 + z2)).max() < TOL


def test_hadd_mixed_levels(stack):
    enc, dec, ev, rng = stack
    z1, z2 = _values(rng), _values(rng)
    out = ev.add(
        enc.encrypt_values(z1, level=2), enc.encrypt_values(z2, level=4)
    )
    assert out.level == 2
    assert np.abs(dec.decrypt(out) - (z1 + z2)).max() < TOL


def test_sub_and_negate(stack):
    enc, dec, ev, rng = stack
    z1, z2 = _values(rng), _values(rng)
    c1, c2 = enc.encrypt_values(z1), enc.encrypt_values(z2)
    assert np.abs(dec.decrypt(ev.sub(c1, c2)) - (z1 - z2)).max() < TOL
    assert np.abs(dec.decrypt(ev.negate(c1)) + z1).max() < TOL


#: The active backend (numpy unless ``REPRO_KERNEL_BACKEND`` says
#: otherwise) and the per-limb reference backend.
BACKENDS = pytest.mark.parametrize("backend", [None, "reference"],
                                   ids=["active", "reference"])


def _on(backend):
    return contextlib.nullcontext() if backend is None else (
        backend_scope(backend))


def _same(a, b):
    """Bit-identical ciphertexts: scale, size, and every part's basis,
    form and residues."""
    return a.scale == b.scale and a.size == b.size and all(
        p.primes == q.primes and p.ntt_form == q.ntt_form
        and np.array_equal(p.data, q.data) for p, q in zip(a.parts, b.parts))


@BACKENDS
def test_mul_by_i_multiplies_every_slot_by_i(stack, backend):
    enc, dec, ev, rng = stack
    z = _values(rng) + 1j * _values(rng)
    ct = enc.encrypt_values(z, level=2)
    with _on(backend):
        out = ev.mul_by_i(ct)
    assert (out.level, out.scale) == (ct.level, ct.scale)
    assert np.abs(dec.decrypt(out) - 1j * z).max() < TOL


@BACKENDS
def test_mul_by_i_is_exact(stack, backend):
    """``X^(n/2)`` twice is ``-1`` and four times ``1``, bit for bit; an
    NTT-form input gives the same coefficient-form output."""
    enc, _, ev, rng = stack
    ct = enc.encrypt_values(_values(rng) + 1j * _values(rng))
    assert not any(p.ntt_form for p in ct.parts)
    with _on(backend):
        once = ev.mul_by_i(ct)
        twice = ev.mul_by_i(once)
        four = ev.mul_by_i(ev.mul_by_i(twice))
        assert _same(twice, ev.negate(ct))
        ntt = Ciphertext([p.to_ntt() for p in ct.parts], ct.scale, ct.params)
        assert _same(ev.mul_by_i(ntt), once)
    assert _same(four, ct)


def test_add_plain(stack):
    enc, dec, ev, rng = stack
    z, p = _values(rng), _values(rng)
    out = ev.add_plain(enc.encrypt_values(z), p)
    assert np.abs(dec.decrypt(out) - (z + p)).max() < TOL


def test_pmult(stack):
    enc, dec, ev, rng = stack
    z, p = _values(rng), _values(rng)
    out = ev.rescale(ev.mul_plain(enc.encrypt_values(z), p))
    assert np.abs(dec.decrypt(out) - z * p).max() < TOL


def test_pmult_scale_tracking(stack):
    enc, dec, ev, rng = stack
    z, p = _values(rng), _values(rng)
    raw = ev.mul_plain(enc.encrypt_values(z), p)
    assert raw.scale == pytest.approx(PARAMS.scale**2)
    rescaled = ev.rescale(raw)
    assert rescaled.level == PARAMS.num_levels - 1


def test_cmult(stack):
    enc, dec, ev, rng = stack
    z1, z2 = _values(rng), _values(rng)
    out = ev.multiply_rescale(enc.encrypt_values(z1), enc.encrypt_values(z2))
    assert np.abs(dec.decrypt(out) - z1 * z2).max() < TOL


def test_cmult_without_relin_decrypts(stack):
    enc, dec, ev, rng = stack
    z1, z2 = _values(rng), _values(rng)
    out = ev.multiply(enc.encrypt_values(z1), enc.encrypt_values(z2), relin=False)
    assert out.size == 3
    got = dec.decrypt(ev.rescale(out))
    assert np.abs(got - z1 * z2).max() < TOL


def test_square(stack):
    enc, dec, ev, rng = stack
    z = _values(rng)
    out = ev.rescale(ev.square(enc.encrypt_values(z)))
    assert np.abs(dec.decrypt(out) - z * z).max() < TOL


def test_multiplication_depth_chain(stack):
    """Consume all four levels: (((z^2)^2)*z) style chain."""
    enc, dec, ev, rng = stack
    z = 0.5 * rng.normal(size=PARAMS.slots)
    ct = enc.encrypt_values(z)
    expected = z.copy()
    for _ in range(PARAMS.num_levels):
        ct = ev.multiply_rescale(ct, enc.encrypt_values(z, level=ct.level))
        expected = expected * z
    assert ct.level == 0
    assert np.abs(dec.decrypt(ct) - expected).max() < 10 * TOL


def test_rescale_at_level_zero_raises(stack):
    enc, dec, ev, rng = stack
    ct = enc.encrypt_values(_values(rng), level=0)
    with pytest.raises(ValueError):
        ev.rescale(ct)


def test_rotation(stack):
    enc, dec, ev, rng = stack
    z = _values(rng)
    for step in (1, 2, 4):
        out = ev.rotate(enc.encrypt_values(z), step)
        assert np.abs(dec.decrypt(out) - np.roll(z, -step)).max() < TOL, step


def test_rotation_composition(stack):
    enc, dec, ev, rng = stack
    z = _values(rng)
    out = ev.rotate(ev.rotate(enc.encrypt_values(z), 1), 2)
    assert np.abs(dec.decrypt(out) - np.roll(z, -3)).max() < TOL


def test_rotation_missing_key_raises(stack):
    enc, dec, ev, rng = stack
    ct = enc.encrypt_values(_values(rng))
    with pytest.raises(ValueError):
        ev.rotate(ct, 3)  # only steps 1, 2, 4 have keys


@pytest.mark.parametrize(
    "op", ["rotate", "conjugate", "apply_galois", "rotate_batch_hoisted"])
def test_galois_ops_without_keys_raise_value_error(stack, op):
    """Every Galois operation fails with the same typed error when the
    evaluator holds no Galois keys, and traces no key touch first."""
    enc, _, ev, rng = stack
    keyless = CKKSEvaluator(PARAMS, ev.encoder, relin_key=ev.relin_key)
    keyless.key_trace = []
    ct = enc.encrypt_values(_values(rng))
    calls = {
        "rotate": lambda: keyless.rotate(ct, 1),
        "conjugate": lambda: keyless.conjugate(ct),
        "apply_galois": lambda: keyless.apply_galois(ct, 5),
        "rotate_batch_hoisted": lambda: keyless.rotate_batch_hoisted(ct, [1]),
    }
    with pytest.raises(ValueError, match="no Galois keys"):
        calls[op]()
    assert keyless.key_trace == []


def test_failed_galois_ops_trace_no_key(stack):
    """A rotation or conjugation that raises (missing key, size-3 input)
    leaves no touch in ``key_trace``; a successful one traces its key."""
    enc, _, ev, rng = stack
    conj = 2 * PARAMS.n - 1
    keys = {k: v for k, v in ev.galois_key.keys.items() if k[0] != conj}
    partial = CKKSEvaluator(PARAMS, ev.encoder, relin_key=ev.relin_key,
                            galois_key=GaloisKey(PARAMS, keys))
    partial.key_trace = []
    ct = enc.encrypt_values(_values(rng))
    with pytest.raises(ValueError, match="no Galois key for element"):
        partial.rotate(ct, 3)  # only steps 1, 2, 4, 5, 17 have keys
    with pytest.raises(ValueError, match="no Galois key for element"):
        partial.conjugate(ct)
    with pytest.raises(ValueError, match="relinearize"):
        partial.rotate(partial.multiply(ct, ct, relin=False), 1)
    assert partial.key_trace == []
    partial.rotate(ct, 1)
    assert partial.key_trace == ["rot:1"]


def test_relinearize_without_the_level_key_names_the_level():
    """A relinearization key that lacks the ciphertext's level fails with
    a ``ValueError`` that names the level, as a missing Galois key does
    (it was a bare ``KeyError``), and traces no key touch."""
    params = CKKSParams(n=64, num_levels=3, dnum=2)
    rng = np.random.default_rng(0x2E1)
    encoder = CKKSEncoder(params.n, params.scale)
    keygen = CKKSKeyGenerator(params, rng)
    top = RelinKey(params, {3: keygen.relin_key().levels[3]})
    ev = CKKSEvaluator(params, encoder, relin_key=top)
    ev.key_trace = []
    enc = CKKSEncryptor(params, encoder, rng, public_key=keygen.public_key())
    ct = enc.encrypt_values(rng.normal(size=params.slots), level=2)
    with pytest.raises(ValueError, match="no relinearization key at level 2"):
        ev.multiply(ct, ct)
    assert ev.key_trace == []
    top_ct = enc.encrypt_values(rng.normal(size=params.slots))
    assert ev.multiply(top_ct, top_ct).size == 2
    assert ev.key_trace == ["relin"]


def test_conjugate(stack):
    enc, dec, ev, rng = stack
    z = _values(rng) + 1j * _values(rng)
    out = ev.conjugate(enc.encrypt_values(z))
    assert np.abs(dec.decrypt(out) - np.conj(z)).max() < TOL


def test_scale_mismatch_raises(stack):
    enc, dec, ev, rng = stack
    z = _values(rng)
    c1 = enc.encrypt_values(z)
    c2 = ev.mul_plain(enc.encrypt_values(z), z)  # scale = Delta^2
    with pytest.raises(ValueError):
        ev.add(c1, c2)


def test_mod_switch_preserves_value(stack):
    enc, dec, ev, rng = stack
    z = _values(rng)
    ct = ev.mod_switch_to(enc.encrypt_values(z), 1)
    assert ct.level == 1
    assert np.abs(dec.decrypt(ct) - z).max() < TOL
    with pytest.raises(ValueError):
        ev.mod_switch_to(ct, 3)


def test_mul_scalar_int(stack):
    enc, dec, ev, rng = stack
    z = _values(rng)
    out = ev.mul_scalar_int(enc.encrypt_values(z), 3)
    assert np.abs(dec.decrypt(out) - 3 * z).max() < 3 * TOL


def test_linear_combination_pipeline(stack):
    """A realistic fused op: 2*x*y + x - y across levels."""
    enc, dec, ev, rng = stack
    x, y = _values(rng), _values(rng)
    cx, cy = enc.encrypt_values(x), enc.encrypt_values(y)
    xy = ev.multiply_rescale(cx, cy)
    lin = ev.sub(cx, cy)
    combo = ev.add(ev.mul_scalar_int(xy, 2), lin)
    assert np.abs(dec.decrypt(combo) - (2 * x * y + x - y)).max() < 10 * TOL


# ------------------------------ mixed parameter sets ------------------- #


@pytest.fixture(scope="module")
def other():
    """Keys and an evaluator for n=64 at PARAMS' chain depth: every level
    and rotation key PARAMS' ciphertexts ask for exists, over other
    primes."""
    params = CKKSParams(n=64, num_levels=PARAMS.num_levels, dnum=PARAMS.dnum,
                        hamming_weight=16)
    encoder = CKKSEncoder(params.n, params.scale)
    keygen = CKKSKeyGenerator(params, np.random.default_rng(2))
    evaluator = CKKSEvaluator(params, encoder, relin_key=keygen.relin_key(),
                              galois_key=keygen.rotation_key([1]))
    return SimpleNamespace(
        params=params, keygen=keygen, evaluator=evaluator,
        decryptor=CKKSDecryptor(params, encoder, keygen.secret_key()))


@pytest.mark.parametrize("op", ["multiply", "relinearize", "apply_galois",
                                "rotate", "rotate_batch_hoisted"])
def test_evaluator_rejects_another_parameter_set(stack, other, op):
    enc, _, ev, rng = stack
    ct = enc.encrypt_values(_values(rng))
    foreign = other.evaluator
    calls = {
        "multiply": lambda: foreign.multiply(ct, ct),
        "relinearize": lambda: foreign.relinearize(
            ev.multiply(ct, ct, relin=False)),
        "apply_galois": lambda: foreign.apply_galois(
            ct, pow(5, 1, 2 * other.params.n)),
        "rotate": lambda: foreign.rotate(ct, 1),
        "rotate_batch_hoisted": lambda: foreign.rotate_batch_hoisted(ct, [1]),
    }
    with pytest.raises(ValueError, match="parameters differ"):
        calls[op]()


def test_decrypt_rejects_another_parameter_set(stack, other):
    enc, _, _, rng = stack
    ct = enc.encrypt_values(_values(rng))
    with pytest.raises(ValueError, match="no channel"):
        other.decryptor.decrypt(ct)


def test_encrypt_rejects_another_parameter_sets_public_key(stack, other):
    enc, _, ev, rng = stack
    foreign = CKKSEncryptor(PARAMS, ev.encoder, rng,
                            public_key=other.keygen.public_key())
    with pytest.raises(ValueError, match="no channel"):
        foreign.encrypt_values(_values(rng))


# ------------------------------ key forms and NTT calls ---------------- #


def test_reassigned_keys_take_effect():
    """Encryptor and decryptor keep their keys in NTT form; assigning a new
    key must replace that form, or these round trips fail."""
    params = CKKSParams(n=64, num_levels=1, dnum=1, hamming_weight=16)
    rng = np.random.default_rng(3)
    encoder = CKKSEncoder(params.n, params.scale)
    first = CKKSKeyGenerator(params, rng)
    second = CKKSKeyGenerator(params, rng)
    encryptor = CKKSEncryptor(params, encoder, rng,
                              public_key=first.public_key())
    decryptor = CKKSDecryptor(params, encoder, first.secret_key())
    encryptor.public_key = second.public_key()
    decryptor.secret_key = second.secret_key()
    fresh_encryptor = CKKSEncryptor(params, encoder, rng,
                                    public_key=second.public_key())
    fresh_decryptor = CKKSDecryptor(params, encoder, second.secret_key())
    z = rng.normal(size=params.slots)
    for e, d in ((encryptor, fresh_decryptor), (fresh_encryptor, decryptor),
                 (encryptor, decryptor)):
        assert np.abs(d.decrypt(e.encrypt_values(z)) - z).max() < TOL


def test_encode_at_a_given_scale_decrypts_to_the_values():
    """``CKKSEncryptor.encode(values, scale=...)`` encodes at that scale,
    not only labels the plaintext with it.  The encoder's scale here is
    2^35; a plaintext encoded there but labelled 2^30 decrypted to 32·z
    (a max slot error of about 31)."""
    params = CKKSParams(n=128, num_levels=3, dnum=2, hamming_weight=16)
    rng = np.random.default_rng(0x5CA1E)
    encoder = CKKSEncoder(params.n, params.scale)
    keygen = CKKSKeyGenerator(params, rng)
    enc = CKKSEncryptor(params, encoder, rng, public_key=keygen.public_key())
    dec = CKKSDecryptor(params, encoder, keygen.secret_key())
    z = rng.uniform(-1, 1, params.slots)
    pt = enc.encode(z, scale=2.0**30)
    assert pt.scale == 2.0**30
    assert np.abs(dec.decrypt(enc.encrypt(pt)) - z).max() < TOL


def _ntt_calls(kernel_calls, fn):
    calls = kernel_calls(fn)
    return calls["ntt_forward"], calls["ntt_inverse"]


def test_encrypt_makes_one_forward_and_one_inverse_ntt(stack, kernel_calls):
    enc, _, _, rng = stack
    pt = enc.encode(_values(rng))
    assert _ntt_calls(kernel_calls, lambda: enc.encrypt(pt)) == (1, 1)


def test_decrypt_never_transforms_the_secret_key(stack, kernel_calls):
    """One forward call transforms every ciphertext part at once; the
    secret key is already in NTT form."""
    enc, dec, ev, rng = stack
    ct = enc.encrypt_values(_values(rng))
    for c in (ct, ev.multiply(ct, ct, relin=False)):
        assert _ntt_calls(kernel_calls, lambda: dec.decrypt_poly(c)) == (1, 1)


def test_multiply_makes_one_forward_and_one_inverse_ntt(stack, kernel_calls):
    enc, dec, ev, rng = stack
    z1, z2 = _values(rng), _values(rng)
    c1, c2 = enc.encrypt_values(z1), enc.encrypt_values(z2)
    out = []
    calls = _ntt_calls(kernel_calls, lambda: out.append(
        ev.multiply(c1, c2, relin=False)))
    assert calls == (1, 1)
    assert np.abs(dec.decrypt(ev.rescale(out[0])) - z1 * z2).max() < TOL


def test_mul_plain_transforms_all_parts_in_one_call(stack, kernel_calls):
    enc, _, ev, rng = stack
    ct, z = enc.encrypt_values(_values(rng)), _values(rng)
    assert _ntt_calls(kernel_calls, lambda: ev.mul_plain(ct, z)) == (2, 1)
