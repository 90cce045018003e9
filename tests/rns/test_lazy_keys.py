"""Switching keys are drawn at generation and formed on first use.

:func:`repro.rns.keyswitch.make_switching_key` makes a key's draws, so the
generator advances as if the key were formed, and records the state they
start from; the key's first ``data`` read draws them again from that state
and forms the key.  A key is therefore the same whenever, and in whatever
order, it is formed, and a session forms only the keys its requests touch.
``tests/test_key_pins.py`` pins the keys themselves; this file checks
when they are formed and that the forming order cannot change them, on
every kernel backend.
"""

from collections import Counter

import numpy as np
import pytest

from repro.bfv import BFVEncoder, BFVEncryptor, BFVKeyGenerator, BFVParams
from repro.ckks.encoder import CKKSEncoder
from repro.ckks.encryptor import CKKSEncryptor
from repro.ckks.evaluator import CKKSEvaluator
from repro.ckks.keys import CKKSKeyGenerator
from repro.ckks.params import CKKSParams
from repro.kernels import available_backends, backend_scope, get_backend
from repro.rns.keyswitch import make_switching_key

CKKS = CKKSParams(n=64, num_levels=5, dnum=3, hamming_weight=16)
BFV = BFVParams(n=64, num_primes=4, dnum=3)
#: The ``ckks-chain`` workload's parameters: 45 levels, up to 4 digits.
CKKS_CHAIN = CKKSParams(n=256, num_levels=44, dnum=4)
EXPAND_SEED = 0x1A2F

#: One key's forming: one call of each kernel.
FORMING = ("ntt_forward", "pointwise_mul", "mul_channel_scalars",
           "pointwise_sub", "pointwise_add")

backends = pytest.mark.parametrize("backend", available_backends())


@pytest.fixture(scope="module")
def secrets():
    """A CKKS generator's ring, NTT-form secret and squared secret."""
    keygen = CKKSKeyGenerator(CKKS, np.random.default_rng(0x1A))
    return keygen.ring, keygen._secret_ntt, keygen._squared_secret()


def _top_key(secrets):
    """A top-level CKKS relinearization key, not yet formed."""
    ring, s, s_squared = secrets
    level = CKKS.num_levels
    return make_switching_key(
        ring, s, s_squared, CKKS.primes_at_level(level),
        CKKS.special_primes, CKKS.digits_at_level(level),
        np.random.default_rng(1), CKKS.error_std)


@backends
def test_making_a_key_makes_no_kernel_call(backend, secrets, kernel_calls):
    with backend_scope(backend):
        assert not kernel_calls(lambda: _top_key(secrets))


@backends
def test_first_read_forms_the_key_once(backend, secrets, kernel_calls,
                                       kernel_rows):
    """The first ``data`` read is one forward NTT of ``2·dnum`` rows per
    channel and one call of each forming kernel; later reads, ``pairs``
    and ``dnum`` make none."""
    level = CKKS.num_levels
    extended = len(CKKS.primes_at_level(level)) + len(CKKS.special_primes)
    dnum = len(CKKS.digits_at_level(level))
    with backend_scope(backend):
        key = _top_key(secrets)
        assert dict(kernel_calls(lambda: key.data)) == dict.fromkeys(
            FORMING, 1)
        assert not kernel_calls(lambda: (key.data, key.pairs, key.dnum))
        key = _top_key(secrets)
        assert kernel_rows(lambda: key.data)["ntt_forward"] == (
            2 * dnum * extended)
    assert key.data.shape == (extended, dnum, 2, CKKS.n)


def test_formed_key_drops_its_secrets(secrets):
    key = _top_key(secrets)
    assert key._form is not None
    key.data
    assert key._form is None


def _formed(keys, form):
    """``keys``, each formed now when ``form`` is set."""
    for key in keys if form else ():
        key.data
    return keys


def _ckks_keys(seed, expand_seed, form):
    """Relinearization keys, then the keys of rotations by 1 and 3, then
    the conjugation's, each set in level order; with ``form``, each set
    is formed as soon as it is made, as a generator that formed every key
    at once would."""
    keygen = CKKSKeyGenerator(CKKS, np.random.default_rng(seed),
                              expand_seed=expand_seed)
    relin = keygen.relin_key()
    keys = _formed([relin.levels[lvl].key for lvl in sorted(relin.levels)],
                   form)
    for galois in (keygen.rotation_key([1, 3]), keygen.conjugation_key()):
        keys += _formed([galois.keys[k].key for k in sorted(galois.keys)],
                        form)
    return keygen, keys


def _bfv_keys(seed, expand_seed, form):
    keygen = BFVKeyGenerator(BFV, np.random.default_rng(seed),
                             expand_seed=expand_seed)
    keys = _formed([keygen.relin_key().key], form)
    return keygen, keys + _formed(
        list(keygen.galois_keys([3, 5]).keys.values()), form)


def _draw_more(scheme, keygen):
    """A public key and one encryption from the generator's own stream."""
    if scheme == "ckks":
        encoder = CKKSEncoder(CKKS.n, CKKS.scale)
        CKKSEncryptor(CKKS, encoder, keygen.rng,
                      public_key=keygen.public_key()).encrypt_values(
                          np.ones(CKKS.slots))
    else:
        encoder = BFVEncoder(BFV.n, BFV.plain_modulus)
        BFVEncryptor(BFV, keygen.rng, keygen.public_key(),
                     encoder).encrypt_values(np.arange(BFV.n))


def _first_key_uniforms(scheme, seed, key):
    """The transforms of the ``a_t`` a same-seed generator draws for its
    first switching key, right after its secret: digit by digit, ``a_t``
    and then ``e_t``."""
    twin = np.random.default_rng(seed)
    keygen = (CKKSKeyGenerator(CKKS, twin) if scheme == "ckks"
              else BFVKeyGenerator(BFV, twin))
    drawn = []
    for _ in range(key.dnum):
        drawn.append(keygen.ring.sample_uniform(twin, primes=key.primes).data)
        keygen.ring.sample_error(twin, primes=key.primes,
                                 sigma=keygen.params.error_std)
    return get_backend().ntt_forward(np.stack(drawn, axis=1), key.primes)


@backends
@pytest.mark.parametrize("expand_seed", [None, EXPAND_SEED])
@pytest.mark.parametrize("scheme", ["ckks", "bfv"])
def test_keys_do_not_depend_on_forming_order(backend, expand_seed, scheme):
    """Keys formed in reverse order, after the generator has drawn a
    public key and an encryption, equal the keys of a same-seed generator
    that formed each key set as it made it: CKKS relinearization and
    Galois keys at every level, BFV relinearization and Galois keys.
    Without a seed expander, the first key's ``a_t`` are the draws made
    at its call."""
    make = _ckks_keys if scheme == "ckks" else _bfv_keys
    with backend_scope(backend):
        keygen, late = make(0x1B, expand_seed, form=False)
        _draw_more(scheme, keygen)
        formed = [key.data for key in reversed(late)][::-1]
        _, early = make(0x1B, expand_seed, form=True)
        uniforms = _first_key_uniforms(scheme, 0x1B, late[0])
    assert len(formed) == len(early) == (
        4 * (CKKS.num_levels + 1) if scheme == "ckks" else 3)
    for got, want in zip(formed, early):
        assert np.array_equal(got, want.data)
    if expand_seed is None:
        assert np.array_equal(formed[0][:, :, 1], uniforms)


@backends
def test_ckks_chain_forms_only_the_keys_a_request_touches(backend,
                                                          kernel_calls):
    """At ``ckks-chain``'s parameters, generating the 90 switching keys
    forms none: no NTT, only the source secrets ``s²`` (one product) and
    ``σ_5(s)`` (one gather).  The first Cmult + rescale and rotation form
    their two keys (relinearization at 44, ``rot:1`` at 43): one call of
    each forming kernel per key more than the second."""
    with backend_scope(backend):
        rng = np.random.default_rng(0x1E)
        keygen = CKKSKeyGenerator(CKKS_CHAIN, rng)
        encoder = CKKSEncoder(CKKS_CHAIN.n, CKKS_CHAIN.scale)
        ev = CKKSEvaluator(CKKS_CHAIN, encoder)

        def generate():
            ev.relin_key = keygen.relin_key()
            ev.galois_key = keygen.rotation_key([1])

        assert dict(kernel_calls(generate)) == {
            "pointwise_mul": 1, "automorphism_ntt": 1}
        encryptor = CKKSEncryptor(CKKS_CHAIN, encoder, rng,
                                  public_key=keygen.public_key())
        a, b = (encryptor.encrypt_values(rng.uniform(-1, 1, CKKS_CHAIN.slots))
                for _ in range(2))

        def request():
            ev.rotate(ev.multiply_rescale(a, b), 1)

        first, second = kernel_calls(request), kernel_calls(request)
    assert first == second + Counter(dict.fromkeys(FORMING, 2))
