"""Tests for the BFV scheme: params, batching encoder, full pipeline."""

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
from repro.rns.rns_poly import RNSRing

PARAMS = BFVParams(n=64, num_primes=3, dnum=2, hamming_weight=16)
T = PARAMS.plain_modulus


@pytest.fixture(scope="module")
def stack():
    rng = np.random.default_rng(0xBF5)
    encoder = BFVEncoder(PARAMS.n, T)
    keygen = BFVKeyGenerator(PARAMS, rng)
    encryptor = BFVEncryptor(PARAMS, rng, keygen.public_key(), encoder)
    decryptor = BFVDecryptor(PARAMS, keygen.secret_key(), encoder)
    evaluator = BFVEvaluator(
        PARAMS,
        relin_key=keygen.relin_key(),
        galois_keys=keygen.galois_keys([5, 2 * PARAMS.n - 1]),
    )
    return encryptor, decryptor, evaluator, rng


# ------------------------------ params --------------------------------- #


def test_params_structure():
    assert len(PARAMS.ct_primes) == 3
    assert len(PARAMS.special_primes) == PARAMS.alpha == 2
    assert PARAMS.delta == PARAMS.q_product // T
    assert PARAMS.supports_batching
    digits = PARAMS.digits()
    assert sum(len(d) for d in digits) == 3


def test_params_validation():
    with pytest.raises(ValueError):
        BFVParams(n=100, num_primes=2)
    with pytest.raises(ValueError):
        BFVParams(n=64, num_primes=0)
    with pytest.raises(ValueError):
        BFVParams(n=64, num_primes=2, dnum=3)
    with pytest.raises(ValueError):
        BFVParams(n=64, num_primes=2, plain_modulus=1)
    # t >= Q: Delta = floor(Q/t) = 0 would encrypt no message
    with pytest.raises(ValueError, match="not below Q"):
        BFVParams(n=8, num_primes=1, dnum=1, hamming_weight=4,
                  plain_modulus=2**40 + 15)
    # below Q, but wider than the 42-bit channels decryption rounds onto
    with pytest.raises(ValueError, match="42-bit"):
        BFVParams(n=8, num_primes=2, dnum=1, hamming_weight=4,
                  plain_modulus=2**42 + 15)
    # the largest 42-bit NTT prime for n = 32 over two 36-bit primes:
    # Delta = floor(Q/t) shifts a decrypted message by up to
    # (t-1)*(Q mod t)/Q, here far above 1/2
    with pytest.raises(ValueError, match="Q mod t"):
        BFVParams(n=32, num_primes=2, dnum=1, hamming_weight=8,
                  plain_modulus=2**42 - 383)


def test_params_custom_plain_modulus():
    p = BFVParams(n=64, num_primes=2, plain_modulus=256)
    assert p.plain_modulus == 256
    assert not p.supports_batching  # 256 is not a prime ≡ 1 mod 128


# ------------------------------ encoder -------------------------------- #


def test_encoder_roundtrip(rng):
    enc = BFVEncoder(PARAMS.n, T)
    values = rng.integers(0, T, PARAMS.n)
    assert np.array_equal(enc.decode(enc.encode(values)), values)


def test_encoder_pads_and_validates(rng):
    enc = BFVEncoder(PARAMS.n, T)
    out = enc.decode(enc.encode([1, 2, 3]))
    assert out[:3].tolist() == [1, 2, 3]
    assert np.all(out[3:] == 0)
    with pytest.raises(ValueError):
        enc.encode(np.zeros(PARAMS.n + 1))
    with pytest.raises(ValueError):
        BFVEncoder(PARAMS.n, 251)  # 250 is not divisible by 2n = 128


def test_encoder_slotwise_ring_structure(rng):
    """Coefficient-ring ops act slot-wise on encodings (the SIMD property)."""
    enc = BFVEncoder(PARAMS.n, T)
    ring = RNSRing(PARAMS.n, (T,))
    a = rng.integers(0, T, PARAMS.n)
    b = rng.integers(0, T, PARAMS.n)
    pa, pb = ring.from_ints(enc.encode(a)), ring.from_ints(enc.encode(b))
    assert np.array_equal(
        enc.decode((pa + pb).data[0]), (a + b) % T)
    assert np.array_equal(
        enc.decode((pa * pb).data[0]), (a * b) % T)


def test_encoder_centered_decode():
    enc = BFVEncoder(PARAMS.n, T)
    poly = enc.encode([T - 1, 1])
    centered = enc.decode_centered(poly)
    assert centered[0] == -1 and centered[1] == 1


# ------------------------------ scheme --------------------------------- #


def _vals(rng, n=PARAMS.n):
    return rng.integers(0, T, n)


def test_encrypt_decrypt(stack):
    encryptor, decryptor, _, rng = stack
    v = _vals(rng)
    assert np.array_equal(
        decryptor.decrypt_values(encryptor.encrypt_values(v)), v)


def test_homomorphic_add_sub_negate(stack):
    encryptor, decryptor, ev, rng = stack
    a, b = _vals(rng), _vals(rng)
    ca, cb = encryptor.encrypt_values(a), encryptor.encrypt_values(b)
    assert np.array_equal(
        decryptor.decrypt_values(ev.add(ca, cb)), (a + b) % T)
    assert np.array_equal(
        decryptor.decrypt_values(ev.sub(ca, cb)), (a - b) % T)
    assert np.array_equal(
        decryptor.decrypt_values(ev.negate(ca)), (-a) % T)


def test_add_plain(stack):
    encryptor, decryptor, ev, rng = stack
    a, p = _vals(rng), _vals(rng)
    enc = encryptor.encoder
    out = ev.add_plain_poly(encryptor.encrypt_values(a), enc.encode(p))
    assert np.array_equal(decryptor.decrypt_values(out), (a + p) % T)


def test_mul_plain(stack):
    encryptor, decryptor, ev, rng = stack
    a, p = _vals(rng), _vals(rng)
    enc = encryptor.encoder
    out = ev.mul_plain_poly(encryptor.encrypt_values(a), enc.encode(p))
    assert np.array_equal(decryptor.decrypt_values(out), (a * p) % T)


def test_homomorphic_multiply_exact(stack):
    """BFV multiplication is *exact* modulo t (unlike approximate CKKS)."""
    encryptor, decryptor, ev, rng = stack
    a, b = _vals(rng), _vals(rng)
    ca, cb = encryptor.encrypt_values(a), encryptor.encrypt_values(b)
    out = ev.multiply(ca, cb)
    assert out.size == 2  # relinearized
    assert np.array_equal(decryptor.decrypt_values(out), (a * b) % T)


def test_multiply_without_relin(stack):
    encryptor, decryptor, ev, rng = stack
    a, b = _vals(rng), _vals(rng)
    out = ev.multiply(encryptor.encrypt_values(a),
                      encryptor.encrypt_values(b), relin=False)
    assert out.size == 3
    assert np.array_equal(decryptor.decrypt_values(out), (a * b) % T)


def test_multiplication_depth_two(stack):
    encryptor, decryptor, ev, rng = stack
    a, b, c = _vals(rng), _vals(rng), _vals(rng)
    ab = ev.multiply(encryptor.encrypt_values(a), encryptor.encrypt_values(b))
    abc = ev.multiply(ab, encryptor.encrypt_values(c))
    assert np.array_equal(
        decryptor.decrypt_values(abc), (a * b % T) * c % T)


def test_noise_budget_decreases(stack):
    encryptor, decryptor, ev, rng = stack
    a = _vals(rng)
    ca = encryptor.encrypt_values(a)
    fresh = decryptor.noise_budget_bits(ca)
    after = decryptor.noise_budget_bits(ev.multiply(ca, ca))
    assert fresh > after > 0
    assert fresh > 60


def test_galois_permutes_slots(stack):
    """A Galois automorphism permutes the slot vector (no value change)."""
    encryptor, decryptor, ev, rng = stack
    a = _vals(rng)
    out = ev.apply_galois(encryptor.encrypt_values(a), 5)
    got = decryptor.decrypt_values(out)
    assert sorted(got.tolist()) == sorted(a.tolist())
    assert not np.array_equal(got, a)  # really moved
    # the permutation is data-independent
    b = _vals(rng)
    out_b = ev.apply_galois(encryptor.encrypt_values(b), 5)
    got_b = decryptor.decrypt_values(out_b)
    perm = {int(x): i for i, x in enumerate(a)}
    mapping = [perm[int(x)] for x in got]
    perm_b = {int(x): i for i, x in enumerate(b)}
    mapping_b = [perm_b[int(x)] for x in got_b]
    assert mapping == mapping_b


def test_params_reject_a_hamming_weight_outside_one_to_n():
    """A weight of 0 would draw an all-zero secret (every ciphertext would
    carry its message in the clear); one above ``n`` would fail late."""
    for n, weight in ((256, 0), (64, 65), (64, -2)):
        with pytest.raises(ValueError, match="hamming weight"):
            BFVParams(n=n, num_primes=4, hamming_weight=weight)
    assert BFVParams(n=64, num_primes=4, hamming_weight=None).hamming_weight \
        is None


def test_galois_element_is_taken_mod_2n(stack):
    """``g`` and ``g - 2n`` name one Galois map: a key made for ``-123``
    is filed under ``5`` and applies as ``5`` does, bit for bit."""
    encryptor, _, ev, rng = stack
    keygen = BFVKeyGenerator(PARAMS, np.random.default_rng(0x6A1),
                             expand_seed=3)
    keys = keygen.galois_keys([5 - 2 * PARAMS.n])
    assert set(keys.keys) == {5}
    again = BFVKeyGenerator(PARAMS, np.random.default_rng(0x6A1),
                            expand_seed=3).galois_keys([5])
    assert np.array_equal(keys.keys[5].data, again.keys[5].data)
    ct = encryptor.encrypt_values(_vals(rng))
    shifted = ev.apply_galois(ct, 5 + 2 * PARAMS.n)
    for got, want in zip(shifted.parts, ev.apply_galois(ct, 5).parts):
        assert np.array_equal(got.data, want.data)


def test_galois_missing_key(stack):
    encryptor, _, ev, rng = stack
    with pytest.raises(ValueError):
        ev.apply_galois(encryptor.encrypt_values(_vals(rng)), 3)


def test_relinearize_requires_key(stack):
    encryptor, _, _, rng = stack
    bare = BFVEvaluator(PARAMS)
    a = encryptor.encrypt_values(_vals(rng))
    with pytest.raises(ValueError):
        bare.multiply(a, a)


def test_negative_plaintext_coefficients_reduce_mod_t():
    """``encrypt_poly`` and ``add_plain_poly`` take any integers, negative
    ones included, as int64 arrays and as lists."""
    params = BFVParams(n=16, num_primes=2, hamming_weight=4)
    t = params.plain_modulus
    rng = np.random.default_rng(4)
    keygen = BFVKeyGenerator(params, rng)
    encryptor = BFVEncryptor(params, rng, keygen.public_key())
    decryptor = BFVDecryptor(params, keygen.secret_key())
    evaluator = BFVEvaluator(params)
    plain = np.zeros(params.n, dtype=np.int64)
    plain[:3] = [-1, 2, -3]
    want = (plain % t).tolist()
    assert want[:3] == [t - 1, 2, t - 3]
    for poly in (plain, plain.tolist()):
        assert decryptor.decrypt_poly(encryptor.encrypt_poly(poly)).tolist() \
            == want
        zero = encryptor.encrypt_poly(np.zeros(params.n, dtype=np.int64))
        assert decryptor.decrypt_poly(
            evaluator.add_plain_poly(zero, poly)).tolist() == want


def test_encrypt_requires_encoder_for_values(stack):
    _, _, _, rng = stack
    keygen = BFVKeyGenerator(PARAMS, np.random.default_rng(1))
    encryptor = BFVEncryptor(PARAMS, np.random.default_rng(1),
                             keygen.public_key())
    with pytest.raises(ValueError):
        encryptor.encrypt_values([1, 2, 3])


# ------------------------------ mixed parameter sets ------------------- #


def _other_evaluator(params):
    keygen = BFVKeyGenerator(params, np.random.default_rng(2))
    return BFVEvaluator(params, relin_key=keygen.relin_key(),
                        galois_keys=keygen.galois_keys([5]))


def test_multiply_rejects_another_parameter_set(stack):
    encryptor, _, _, rng = stack
    ct = encryptor.encrypt_values(_vals(rng))
    other = _other_evaluator(BFVParams(n=32, num_primes=3, hamming_weight=16))
    with pytest.raises(ValueError, match="parameters differ"):
        other.multiply(ct, ct)


def test_relinearize_rejects_another_parameter_set(stack):
    encryptor, _, ev, rng = stack
    ct = encryptor.encrypt_values(_vals(rng))
    other = _other_evaluator(
        BFVParams(n=PARAMS.n, num_primes=3, dnum=3, hamming_weight=16))
    with pytest.raises(ValueError, match="parameters differ"):
        other.relinearize(ev.multiply(ct, ct, relin=False))


def test_apply_galois_rejects_another_parameter_set(stack):
    encryptor, _, _, rng = stack
    ct = encryptor.encrypt_values(_vals(rng))
    other = _other_evaluator(
        BFVParams(n=PARAMS.n, num_primes=3, dnum=3, hamming_weight=16))
    with pytest.raises(ValueError, match="parameters differ"):
        other.apply_galois(ct, 5)


# ------------------------------ key forms and NTT calls ---------------- #


def test_reassigned_keys_take_effect():
    """Encryptor and decryptor keep their keys in NTT form; assigning a new
    key must replace that form, or these round trips fail."""
    rng = np.random.default_rng(3)
    encoder = BFVEncoder(PARAMS.n, T)
    first = BFVKeyGenerator(PARAMS, rng)
    second = BFVKeyGenerator(PARAMS, rng)
    encryptor = BFVEncryptor(PARAMS, rng, first.public_key(), encoder)
    decryptor = BFVDecryptor(PARAMS, first.secret_key(), encoder)
    encryptor.public_key = second.public_key()
    decryptor.secret_key = second.secret_key()
    v = _vals(rng)
    fresh_encryptor = BFVEncryptor(PARAMS, rng, second.public_key(), encoder)
    fresh_decryptor = BFVDecryptor(PARAMS, second.secret_key(), encoder)
    assert np.array_equal(
        fresh_decryptor.decrypt_values(encryptor.encrypt_values(v)), v)
    assert np.array_equal(
        decryptor.decrypt_values(fresh_encryptor.encrypt_values(v)), v)
    assert np.array_equal(
        decryptor.decrypt_values(encryptor.encrypt_values(v)), v)


def test_encrypt_makes_one_forward_and_one_inverse_ntt(stack, kernel_calls):
    encryptor, _, _, rng = stack
    plain = encryptor.encoder.encode(_vals(rng))
    calls = kernel_calls(lambda: encryptor.encrypt_poly(plain))
    assert (calls["ntt_forward"], calls["ntt_inverse"]) == (1, 1)


def test_decrypt_never_transforms_the_secret_key(stack, kernel_calls):
    """One forward call transforms every ciphertext part at once; the
    secret key is already in NTT form."""
    encryptor, decryptor, ev, rng = stack
    a, b = _vals(rng), _vals(rng)
    ca, cb = encryptor.encrypt_values(a), encryptor.encrypt_values(b)
    for ct, want in ((ca, a), (ev.multiply(ca, cb, relin=False), a * b % T)):
        got = []
        calls = kernel_calls(lambda: got.append(decryptor.decrypt_values(ct)))
        assert (calls["ntt_forward"], calls["ntt_inverse"]) == (1, 1)
        assert np.array_equal(got[0], want)
