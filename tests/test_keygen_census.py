"""Census of key generation: the exact kernel calls that make each key.

Key generation draws its random stream one polynomial at a time, in a
fixed order, but transforms in batches:

* one switching key is one forward NTT of all its digits' drawn ``a_t``
  and ``e_t`` and no inverse, since both secrets arrive in NTT form;
* a CKKS generator transforms its secret once, and its squared and
  Galois secrets are a pointwise product and a gather of that transform;
* a TFHE ``BootstrapKit`` encrypts its bootstrapping key in blocks (one
  ring product per block, and one spectrum call each for the block's
  masks and bodies) and its keyswitch key with no transform at all.

``tests/test_key_pins.py`` pins what the keys are; this file pins how many
kernel calls make them.  A key generator that transforms each ``a_t`` on
its own, or each TRLWE row, fails here.
"""

import numpy as np
import pytest

from repro.ckks.bootstrap import CKKSBootstrapper
from repro.ckks.encoder import CKKSEncoder
from repro.ckks.evaluator import CKKSEvaluator
from repro.ckks.keys import CKKSKeyGenerator
from repro.ckks.params import CKKSParams
from repro.rns.keyswitch import make_switching_key
from repro.tfhe.bootstrap import BootstrapKit
from repro.tfhe.params import TEST_PARAMS

#: The ``ckks-bootstrap`` workload's parameters and bootstrapper.
CKKS_BOOT = CKKSParams(n=128, num_levels=16, dnum=2, hamming_weight=16)
BOOT_R, BOOT_TAYLOR = 7, 5


@pytest.fixture(scope="module")
def keygen():
    return CKKSKeyGenerator(CKKS_BOOT, np.random.default_rng(0xCE))


def test_one_switching_key_is_one_forward_ntt(keygen, kernel_calls,
                                              kernel_rows):
    """Every digit's ``a_t`` and ``e_t`` enter the NTT domain in one call
    (``2·dnum`` rows per channel), and nothing leaves it."""
    level = CKKS_BOOT.num_levels
    chain = CKKS_BOOT.primes_at_level(level)
    digits = CKKS_BOOT.digits_at_level(level)
    s = keygen._secret_ntt

    def make():
        make_switching_key(keygen.ring, s, s, chain, CKKS_BOOT.special_primes,
                           digits, np.random.default_rng(1),
                           CKKS_BOOT.error_std)

    assert dict(kernel_calls(make)) == {
        "ntt_forward": 1, "pointwise_mul": 1, "mul_channel_scalars": 1,
        "pointwise_sub": 1, "pointwise_add": 1}
    extended = len(chain) + len(CKKS_BOOT.special_primes)
    assert kernel_rows(make)["ntt_forward"] == extended * 2 * len(digits)


def test_switching_key_secrets_must_be_in_ntt_form(keygen):
    chain = CKKS_BOOT.primes_at_level(0)
    with pytest.raises(ValueError, match="NTT form"):
        make_switching_key(keygen.ring, keygen._secret_ntt, keygen._secret,
                           chain, CKKS_BOOT.special_primes, [chain],
                           np.random.default_rng(1), CKKS_BOOT.error_std)


def test_ckks_bootstrap_key_set(kernel_calls):
    """The ``ckks-bootstrap`` key set: one forward NTT for the secret, one
    for the public key's ``a`` (with one inverse for ``b``), and one per
    switching key — 17 relinearization keys and 15 Galois elements (14
    rotations and the conjugation) at 17 levels each.  Was 1,476 forward
    NTT calls when every digit's ``a_t``, ``e_t`` and keyed term was
    transformed on its own."""
    encoder = CKKSEncoder(CKKS_BOOT.n, CKKS_BOOT.scale)
    rotations = CKKSBootstrapper(
        CKKS_BOOT, encoder, CKKSEvaluator(CKKS_BOOT, encoder), r=BOOT_R,
        taylor_terms=BOOT_TAYLOR).required_rotations()
    assert len(set(rotations)) == 14
    levels = CKKS_BOOT.num_levels + 1

    def generate():
        keygen = CKKSKeyGenerator(CKKS_BOOT, np.random.default_rng(2))
        keygen.secret_key()
        keygen.public_key()
        keygen.relin_key()
        keygen.rotation_key(rotations)
        keygen.conjugation_key()

    keys = levels * (1 + 15)
    assert dict(kernel_calls(generate)) == {
        "ntt_forward": 2 + keys, "ntt_inverse": 1,
        "pointwise_mul": 1 + 1 + keys, "automorphism_ntt": 15,
        "mul_channel_scalars": keys, "pointwise_sub": keys,
        "pointwise_add": 1 + keys, "negate": 1}
    assert 2 + keys == 274


def test_tfhe_bootstrap_kit(kernel_calls):
    """A ``TEST_PARAMS`` kit: 64 bootstrapping-key samples of 6 rows are
    four blocks of 16 samples (96 TRLWE rows).  Each block makes one
    spectrum call for its masks, one ``mul_sum_multi`` pass against the
    ring key (a forward NTT of the key, a ``mac`` and an inverse NTT), and
    one spectrum call for every row's mask and one for every row's body.
    The keyswitch key's 46,080 LWE encryptions make no kernel call.  Was
    896 forward NTT, 384 inverse NTT and 384 ``mac`` calls when each row
    was encrypted alone."""
    calls = kernel_calls(
        lambda: BootstrapKit(TEST_PARAMS, np.random.default_rng(3)))
    assert dict(calls) == {"ntt_forward": 16, "ntt_inverse": 4, "mac": 4}
