"""Tests for the hybrid keyswitch building blocks and the stacked key."""

import numpy as np
import pytest

from repro.ckks.keys import CKKSKeyGenerator
from repro.ckks.params import CKKSParams
from repro.kernels import available_backends, backend_scope, get_backend
from repro.rns.keyswitch import (
    SwitchingKey,
    hybrid_keyswitch,
    raise_digits,
    switch_raised,
)
from repro.rns.rns_poly import RNSRing

PARAMS = CKKSParams(n=64, num_levels=3, dnum=2, hamming_weight=16)


@pytest.fixture(scope="module")
def relin():
    keygen = CKKSKeyGenerator(PARAMS, np.random.default_rng(0x4B5))
    return keygen.relin_key()


def _poly(level, seed):
    ring = RNSRing(PARAMS.n, PARAMS.all_primes)
    return ring.sample_uniform(np.random.default_rng(seed),
                               primes=PARAMS.primes_at_level(level))


@pytest.mark.parametrize("backend", available_backends())
def test_hybrid_keyswitch_moddowns_both_parts_in_one_call(
        relin, kernel_calls, backend):
    """One Moddown call for ``(k0, k1)``, bit-identical to a Moddown of
    each part on its own."""
    level = PARAMS.num_levels
    d = _poly(level, 1)
    key = relin.levels[level].key
    key.data    # formed on first use: count the keyswitch alone
    digits = PARAMS.digits_at_level(level)
    special = PARAMS.special_primes
    with backend_scope(backend):
        calls = kernel_calls(lambda: hybrid_keyswitch(
            d.ctx, d, digits, special, key))
        k0, k1 = hybrid_keyswitch(d.ctx, d, digits, special, key)
        b = get_backend()
        extended = d.primes + special
        acc = b.ntt_inverse(
            switch_raised(raise_digits(d, digits, special), key), extended)
        want = [b.moddown(acc[:, k], d.primes, special) for k in (0, 1)]
    assert calls["moddown"] == 1
    assert calls["ntt_forward"] == calls["ntt_inverse"] == calls["mac"] == 1
    assert np.array_equal(k0.data, want[0])
    assert np.array_equal(k1.data, want[1])


def test_switching_key_pairs_are_views_of_one_array(relin):
    key = relin.levels[PARAMS.num_levels].key
    assert key.data.shape == (len(key.primes), PARAMS.dnum, 2, PARAMS.n)
    for t, (b, a) in enumerate(key.pairs):
        assert b.ntt_form and a.ntt_form and b.primes == key.primes
        assert np.shares_memory(b.data, key.data)
        assert np.array_equal(b.data, key.data[:, t, 0])
        assert np.array_equal(a.data, key.data[:, t, 1])
    halves = [half.data for pair in key.pairs for half in pair]
    again = SwitchingKey.from_halves(key.ring, halves, key.primes)
    assert np.array_equal(again.data, key.data)


def test_switching_key_rejects_a_bad_layout(relin):
    key = relin.levels[PARAMS.num_levels].key
    with pytest.raises(ValueError):
        SwitchingKey(key.ring, key.data[:, :, :1], key.primes)
    with pytest.raises(ValueError):
        SwitchingKey(key.ring, key.data, key.primes[1:])


def test_hybrid_keyswitch_rejects_a_mismatched_key(relin):
    level = PARAMS.num_levels
    d = _poly(level, 2)
    special = PARAMS.special_primes
    with pytest.raises(ValueError, match="digits"):
        hybrid_keyswitch(d.ctx, d, PARAMS.digits_at_level(level)[:1],
                         special, relin.levels[level].key)
    lower = _poly(level - 1, 3)
    with pytest.raises(ValueError, match="chain \\+ special"):
        hybrid_keyswitch(lower.ctx, lower, PARAMS.digits_at_level(level - 1),
                         special, relin.levels[level].key)
