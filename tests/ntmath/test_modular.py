"""Unit and property tests for vectorized modular arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ntmath.modular import (
    MAX_FAST_MODULUS_BITS,
    addmod,
    centered,
    invmod,
    mulmod,
    mulmod_scalar,
    negmod,
    powmod,
    submod,
    to_mod_array,
)

# Mix of tiny primes, a 36-bit prime (the paper's word size) and a 41-bit
# prime near the fast-path's 42-bit ceiling.
MODULI = [17, 257, 65537, 68719476731, 2199023255531]


@pytest.mark.parametrize("q", MODULI)
def test_addmod_matches_python(q, rng):
    a = rng.integers(0, q, 1000, dtype=np.uint64)
    b = rng.integers(0, q, 1000, dtype=np.uint64)
    expected = (a.astype(object) + b.astype(object)) % q
    assert np.array_equal(addmod(a, b, q).astype(object), expected)


@pytest.mark.parametrize("q", MODULI)
def test_submod_matches_python(q, rng):
    a = rng.integers(0, q, 1000, dtype=np.uint64)
    b = rng.integers(0, q, 1000, dtype=np.uint64)
    expected = (a.astype(object) - b.astype(object)) % q
    assert np.array_equal(submod(a, b, q).astype(object), expected)


@pytest.mark.parametrize("q", MODULI)
def test_mulmod_matches_python(q, rng):
    a = rng.integers(0, q, 1000, dtype=np.uint64)
    b = rng.integers(0, q, 1000, dtype=np.uint64)
    expected = (a.astype(object) * b.astype(object)) % q
    assert np.array_equal(mulmod(a, b, q).astype(object), expected)


@pytest.mark.parametrize("q", MODULI)
def test_mulmod_extremes(q):
    ext = np.array([0, 1, q - 1, q // 2, q // 2 + 1], dtype=np.uint64)
    for a in ext:
        got = mulmod(np.full(5, a, dtype=np.uint64), ext, q)
        expected = [(int(a) * int(b)) % q for b in ext]
        assert got.tolist() == expected


def test_mulmod_rejects_oversized_modulus():
    with pytest.raises(ValueError):
        mulmod(np.uint64(1), np.uint64(1), 1 << (MAX_FAST_MODULUS_BITS + 1))


def test_mulmod_rejects_trivial_modulus():
    with pytest.raises(ValueError):
        mulmod(np.uint64(0), np.uint64(0), 1)


@pytest.mark.parametrize("q", MODULI)
def test_negmod(q, rng):
    a = rng.integers(0, q, 100, dtype=np.uint64)
    assert np.all(addmod(a, negmod(a, q), q) == 0)
    assert negmod(np.uint64(0), q) == 0


def test_to_mod_array_negative_ints():
    q = 97
    got = to_mod_array([-1, -96, -97, 5, 200], q)
    assert got.tolist() == [96, 1, 0, 5, 200 % 97]


def test_to_mod_array_bigints():
    q = 68719476731
    big = [1 << 200, -(1 << 100), 12345]
    got = to_mod_array(big, q)
    assert got.tolist() == [v % q for v in big]


def test_to_mod_array_preserves_shape():
    q = 97
    got = to_mod_array(np.arange(12).reshape(3, 4), q)
    assert got.shape == (3, 4)


def test_powmod_negative_exponent():
    q = 65537
    assert powmod(3, -1, q) == invmod(3, q)
    assert (powmod(3, -5, q) * pow(3, 5, q)) % q == 1


def test_invmod_error_on_zero():
    with pytest.raises(ZeroDivisionError):
        invmod(0, 97)


def test_invmod_roundtrip():
    q = 68719476731  # prime
    for a in (2, 3, 12345, q - 1):
        assert (invmod(a, q) * a) % q == 1


def test_centered_bounds(rng):
    q = 65537
    a = rng.integers(0, q, 500, dtype=np.uint64)
    c = centered(a, q)
    assert c.min() >= -(q // 2)
    assert c.max() <= q // 2
    assert np.array_equal(np.mod(c, q).astype(np.uint64), a)


@settings(max_examples=200, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=(1 << 42) - 1),
    b=st.integers(min_value=0, max_value=(1 << 42) - 1),
    q=st.integers(min_value=2, max_value=(1 << 42) - 1),
)
def test_mulmod_property(a, b, q):
    a %= q
    b %= q
    got = int(mulmod(np.uint64(a), np.uint64(b), q))
    assert got == (a * b) % q == mulmod_scalar(a, b, q)


@settings(max_examples=100, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=(1 << 42) - 1),
    b=st.integers(min_value=0, max_value=(1 << 42) - 1),
    q=st.integers(min_value=2, max_value=(1 << 42) - 1),
)
def test_addsub_inverse_property(a, b, q):
    a %= q
    b %= q
    s = addmod(np.uint64(a), np.uint64(b), q)
    assert int(submod(s, np.uint64(b), q)) == a
