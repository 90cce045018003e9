"""Census of key generation: the exact kernel calls that make each key.

Key generation draws its random stream one polynomial at a time, in a
fixed order, but transforms in batches:

* generating a switching key makes its draws and no kernel call; the
  key is formed on its first use, by one forward NTT of all its digits'
  drawn ``a_t`` and ``e_t`` (drawn again from the generator state
  recorded at generation) and no inverse, since both secrets arrive in
  NTT form;
* a CKKS generator transforms its secret once, and its squared and
  Galois secrets are a pointwise product and a gather of that transform;
* a TFHE ``BootstrapKit`` encrypts its bootstrapping key in blocks (one
  ring product per block, and one spectrum call each for the block's
  masks and bodies) and its keyswitch key with no transform at all.

``tests/test_key_pins.py`` pins what the keys are; this file pins how many
kernel calls make them.  A key generator that transforms each ``a_t`` on
its own, or each TRLWE row, fails here, and so does one that forms a
switching key when it is generated.
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
    """Generating a key makes no kernel call.  Forming it, on the first
    read of its ``data``, brings every digit's ``a_t`` and ``e_t`` into
    the NTT domain in one call (``2·dnum`` rows per channel), and nothing
    leaves it; a second read makes no call."""
    level = CKKS_BOOT.num_levels
    chain = CKKS_BOOT.primes_at_level(level)
    digits = CKKS_BOOT.digits_at_level(level)
    s = keygen._secret_ntt

    def make():
        return make_switching_key(
            keygen.ring, s, s, chain, CKKS_BOOT.special_primes, digits,
            np.random.default_rng(1), CKKS_BOOT.error_std)

    assert not kernel_calls(make)
    key = make()
    assert dict(kernel_calls(lambda: key.data)) == {
        "ntt_forward": 1, "pointwise_mul": 1, "mul_channel_scalars": 1,
        "pointwise_sub": 1, "pointwise_add": 1}
    assert not kernel_calls(lambda: key.data)
    extended = len(chain) + len(CKKS_BOOT.special_primes)
    key = make()
    assert kernel_rows(lambda: key.data)["ntt_forward"] == (
        extended * 2 * len(digits))


def test_switching_key_secrets_must_be_in_ntt_form(keygen):
    chain = CKKS_BOOT.primes_at_level(0)
    with pytest.raises(ValueError, match="NTT form"):
        make_switching_key(keygen.ring, keygen._secret_ntt, keygen._secret,
                           chain, CKKS_BOOT.special_primes, [chain],
                           np.random.default_rng(1), CKKS_BOOT.error_std)


def test_ckks_bootstrap_key_set(kernel_calls):
    """The ``ckks-bootstrap`` key set, in two phases.  Generating it makes
    one forward NTT for the secret, one for the public key's ``a`` (with
    one inverse for ``b``), the squared secret's product and one gather
    per Galois element.  Forming its keys makes one forward NTT per
    switching key: 17 relinearization keys and 15 Galois elements (14
    rotations and the conjugation) at 17 levels each.  The two phases sum
    to the 274 forward calls of a generator that formed every key at once;
    that was 1,476 when every digit's ``a_t``, ``e_t`` and keyed term was
    transformed on its own."""
    encoder = CKKSEncoder(CKKS_BOOT.n, CKKS_BOOT.scale)
    rotations = CKKSBootstrapper(
        CKKS_BOOT, encoder, CKKSEvaluator(CKKS_BOOT, encoder), r=BOOT_R,
        taylor_terms=BOOT_TAYLOR).required_rotations()
    assert len(set(rotations)) == 14
    levels = CKKS_BOOT.num_levels + 1
    made = []

    def generate():
        keygen = CKKSKeyGenerator(CKKS_BOOT, np.random.default_rng(2))
        keygen.secret_key()
        keygen.public_key()
        made.extend(keygen.relin_key().levels.values())
        made.extend(keygen.rotation_key(rotations).keys.values())
        made.extend(keygen.conjugation_key().keys.values())

    def form():
        for level in made:
            level.key.data

    keys = levels * (1 + 15)
    generation = kernel_calls(generate)
    assert dict(generation) == {
        "ntt_forward": 2, "ntt_inverse": 1, "pointwise_mul": 2,
        "automorphism_ntt": 15, "pointwise_add": 1, "negate": 1}
    assert len(made) == keys == 272
    forming = kernel_calls(form)
    assert dict(forming) == {
        kernel: keys for kernel in ("ntt_forward", "pointwise_mul",
                                    "mul_channel_scalars", "pointwise_sub",
                                    "pointwise_add")}
    assert dict(generation + forming) == {
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
