"""The BFV tensor over ``Q∪B`` against the textbook bigint tensor.

``BFVEvaluator.multiply`` lifts its operands to the extended basis
``Q∪B`` and forms the tensor with NTTs.  The oracle here is the O(n²)
negacyclic convolution over Python integers, followed by the exact
``round(t·d/Q)`` over Python integers.  Every output part must be
bit-identical to it, for random, deeper and worst-case operands, and a
basis one prime short of ``params.aux_primes`` must not be.  Decryption's
``round(t·phase/Q)`` must equal the same bigint rounding, and neither
multiply nor decryption may lift to Python integers at all.
"""

import copy
import sys
from functools import lru_cache
from math import prod
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfv import (
    BFVCiphertext,
    BFVDecryptor,
    BFVEncoder,
    BFVEncryptor,
    BFVEvaluator,
    BFVKeyGenerator,
    BFVParams,
)
from repro.ntmath.modular import MAX_FAST_MODULUS_BITS
from repro.ntmath.primes import is_prime, ntt_primes_below
from repro.rns import basis
from repro.rns.rlwe import phase
from repro.rns.rns_poly import RNSRing

BENCH = BFVParams(n=256, num_primes=4)
#: A 42-bit ``t``, which the auxiliary-prime search must skip.
T42 = BFVParams(n=32, num_primes=3, dnum=1, hamming_weight=8,
                plain_modulus=next(ntt_primes_below(MAX_FAST_MODULUS_BITS, 32)))


def _negacyclic_bigint_mul(a: list, b: list) -> list:
    n = len(a)
    out = [0] * n
    for i in range(n):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(n):
            k = i + j
            if k < n:
                out[k] += ai * b[j]
            else:
                out[k - n] -= ai * b[j]
    return out


def _oracle_tensor(a: BFVCiphertext, b: BFVCiphertext) -> list:
    """``d0, d1, d2`` of the centred lifts, as lists of Python ints."""
    a0, a1 = (p.to_centered_bigints() for p in a.parts)
    b0, b1 = (p.to_centered_bigints() for p in b.parts)
    d1 = [x + y for x, y in zip(_negacyclic_bigint_mul(a0, b1),
                                _negacyclic_bigint_mul(a1, b0))]
    return [_negacyclic_bigint_mul(a0, b0), d1,
            _negacyclic_bigint_mul(a1, b1)]


def _oracle_parts(params: BFVParams, tensor: list) -> list:
    """The exact ``round(t·d/Q)`` of each tensor part, reduced into Q."""
    q, t = params.q_product, params.plain_modulus
    return [np.array([[((2 * t * c + q) // (2 * q)) % p for c in d]
                      for p in params.ct_primes], dtype=np.uint64)
            for d in tensor]


def _matches_oracle(evaluator: BFVEvaluator, a, b) -> bool:
    got = evaluator.multiply(a, b, relin=False)
    want = _oracle_parts(evaluator.params, _oracle_tensor(a, b))
    return got.size == 3 and all(
        np.array_equal(part.data, w) for part, w in zip(got.parts, want))


@lru_cache(maxsize=None)
def _stack(n: int, num_primes: int) -> SimpleNamespace:
    params = BFVParams(n=n, num_primes=num_primes,
                       dnum=min(2, num_primes), hamming_weight=n // 2)
    rng = np.random.default_rng((n, num_primes))
    keygen = BFVKeyGenerator(params, rng)
    encoder = BFVEncoder(n, params.plain_modulus)
    return SimpleNamespace(
        params=params,
        encryptor=BFVEncryptor(params, rng, keygen.public_key(), encoder),
        decryptor=BFVDecryptor(params, keygen.secret_key(), encoder),
        evaluator=BFVEvaluator(params, relin_key=keygen.relin_key()),
    )


def _constant_part(params: BFVParams, evaluator, values):
    return evaluator.ring.from_ints(
        np.array(values, dtype=object), primes=params.ct_primes)


# ------------------------------ bit-identity --------------------------- #


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([8, 64, 256]),
       num_primes=st.sampled_from([1, 3, 4]),
       depth=st.sampled_from([0, 2]),
       seed=st.integers(0, 2**32 - 1))
def test_tensor_bit_identical_to_bigint_oracle(n, num_primes, depth, seed):
    s = _stack(n, num_primes)
    rng = np.random.default_rng(seed)
    s.encryptor.rng = rng
    t = s.params.plain_modulus

    def operand():
        ct = s.encryptor.encrypt_values(rng.integers(0, t, n))
        for _ in range(depth):
            ct = s.evaluator.multiply(
                ct, s.encryptor.encrypt_values(rng.integers(0, t, n)))
        return ct

    assert _matches_oracle(s.evaluator, operand(), operand())


SIGNS = {
    "all_positive": lambda n: [1] * n,
    "all_negative": lambda n: [-1] * n,
    "alternating": lambda n: [(-1) ** i for i in range(n)],
}


@pytest.mark.parametrize("params", [BENCH, BFVParams(n=64, num_primes=3), T42],
                         ids=["n256_L4", "n64_L3", "t_is_an_aux_candidate"])
@pytest.mark.parametrize("a_signs,b_signs", [
    ("all_positive", "all_positive"),
    ("all_positive", "all_negative"),
    ("alternating", "all_positive"),
])
def test_worst_case_operands_bit_identical(params, a_signs, b_signs):
    """Every coefficient is ±(Q-1)/2, the largest centred magnitude."""
    evaluator = BFVEvaluator(params)
    half = (params.q_product - 1) // 2
    n = params.n

    def ct(signs):
        part = _constant_part(params, evaluator,
                              [s * half for s in SIGNS[signs](n)])
        return BFVCiphertext([part, part.copy()], params)

    assert _matches_oracle(evaluator, ct(a_signs), ct(b_signs))


def test_worst_case_reaches_the_bound():
    """With all coefficients +(Q-1)/2, coefficient n-1 of d1 is exactly
    n(Q-1)²/2, which ``Q·B`` must hold with its sign."""
    params = BFVParams(n=8, num_primes=3, hamming_weight=4)
    evaluator = BFVEvaluator(params)
    q, n = params.q_product, params.n
    part = _constant_part(params, evaluator, [(q - 1) // 2] * n)
    ct = BFVCiphertext([part, part.copy()], params)
    d1 = _oracle_tensor(ct, ct)[1]
    assert max(abs(c) for c in d1) == d1[n - 1] == n * (q - 1) ** 2 // 2
    assert 2 * d1[n - 1] < q * prod(params.aux_primes)


def _one_prime_short(params: BFVParams) -> BFVParams:
    short = copy.copy(params)
    object.__setattr__(short, "aux_primes", params.aux_primes[:-1])
    return short


def test_a_basis_one_prime_short_breaks_the_tensor():
    """The bound is tight enough to matter: dropping the last auxiliary
    prime wraps the worst case and a random request around ``Q·B``."""
    short = _one_prime_short(BENCH)
    evaluator = BFVEvaluator(short)
    part = _constant_part(short, evaluator,
                          [(short.q_product - 1) // 2] * short.n)
    worst = BFVCiphertext([part, part.copy()], short)
    assert not _matches_oracle(evaluator, worst, worst)

    rng = np.random.default_rng(5)
    chain = short.ct_primes
    random = [BFVCiphertext([evaluator.ring.sample_uniform(rng, chain)
                             for _ in range(2)], short) for _ in range(2)]
    assert not _matches_oracle(evaluator, *random)


# ------------------------------ the auxiliary basis -------------------- #


@pytest.mark.parametrize("params", [
    BENCH,
    BFVParams(n=8, num_primes=1, dnum=1, hamming_weight=4),
    BFVParams(n=64, num_primes=3, hamming_weight=16),
    T42,
], ids=["n256_L4", "n8_L1", "n64_L3", "t_is_an_aux_candidate"])
def test_aux_primes_are_the_fewest_fast_path_ntt_primes(params):
    aux = params.aux_primes
    assert aux and len(set(aux)) == len(aux)
    for b in aux:
        assert is_prime(b) and b.bit_length() <= MAX_FAST_MODULUS_BITS
        assert b % (2 * params.n) == 1
        assert b not in params.all_primes and b != params.plain_modulus
    bound = params.n * params.q_product
    assert prod(aux) > bound
    assert prod(aux[:-1]) <= bound      # no shorter prefix is enough
    assert params.all_primes == params.ct_primes + params.special_primes


# ------------------------------ NTT calls ------------------------------ #


def test_multiply_makes_one_forward_and_one_inverse_ntt(kernel_calls):
    s = _stack(64, 3)
    t, n = s.params.plain_modulus, s.params.n
    rng = np.random.default_rng(6)
    a = s.encryptor.encrypt_values(rng.integers(0, t, n))
    b = s.encryptor.encrypt_values(rng.integers(0, t, n))
    calls = kernel_calls(lambda: s.evaluator.multiply(a, b, relin=False))
    assert (calls["ntt_forward"], calls["ntt_inverse"]) == (1, 1)


# ------------------------------ decryption and big integers ------------ #


@pytest.mark.parametrize("params", [
    BFVParams(n=16, num_primes=2, hamming_weight=4, plain_modulus=2),
    BFVParams(n=16, num_primes=2, hamming_weight=4, plain_modulus=256),
    BFVParams(n=16, num_primes=3, hamming_weight=4,
              plain_modulus=T42.plain_modulus),
], ids=["t2", "t256", "t42bit"])
def test_decrypt_rounds_like_the_bigint_oracle(params):
    """``decrypt_poly`` equals ``round(t·phase/Q) mod t`` over Python ints,
    for a fresh encryption and for uniform 2- and 3-part ciphertexts, whose
    phases cover every rounding case.  (The 42-bit ``t`` takes three
    primes: over two, ``m·(Q mod t)/Q`` exceeds 1/2 and random messages do
    not decrypt, with either rounding.)"""
    q, t, chain = params.q_product, params.plain_modulus, params.ct_primes
    rng = np.random.default_rng(t)
    keygen = BFVKeyGenerator(params, rng)
    secret = keygen.secret_key()
    decryptor = BFVDecryptor(params, secret)
    ring = RNSRing(params.n, params.all_primes)
    plain = rng.integers(0, t, params.n)
    fresh = BFVEncryptor(params, rng, keygen.public_key()).encrypt_poly(plain)
    assert decryptor.decrypt_poly(fresh).tolist() == plain.tolist()
    s_ntt = secret.s.restrict(chain).to_ntt()
    for ct in [fresh] + [
            BFVCiphertext([ring.sample_uniform(rng, chain)
                           for _ in range(size)], params) for size in (2, 3)]:
        want = [((2 * t * c + q) // (2 * q)) % t
                for c in phase(ct.parts, s_ntt).to_centered_bigints()]
        assert decryptor.decrypt_poly(ct).tolist() == want


def test_multiply_and_decrypt_never_lift_to_big_integers(monkeypatch):
    """Every ``crt_centred`` and ``crt_reconstruct`` binding in ``repro``
    raises; a multiply with relinearization and a decryption still run."""
    originals = {name: getattr(basis, name)
                 for name in ("crt_centred", "crt_reconstruct")}

    def refuse(*args, **kwargs):
        raise AssertionError("a BFV request lifted to Python integers")

    for module_name, module in list(sys.modules.items()):
        if module_name == "repro" or module_name.startswith("repro."):
            for name, original in originals.items():
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, refuse)
    s = _stack(64, 3)
    t, n = s.params.plain_modulus, s.params.n
    rng = np.random.default_rng(8)
    x, y = rng.integers(0, t, n), rng.integers(0, t, n)
    product = s.evaluator.multiply(s.encryptor.encrypt_values(x),
                                   s.encryptor.encrypt_values(y))
    assert np.array_equal(s.decryptor.decrypt_values(product), x * y % t)
    with pytest.raises(AssertionError, match="Python integers"):
        s.decryptor.noise_budget_bits(product)    # |v| is taken over bigints
