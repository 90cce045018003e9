"""Tests for Torus32 arithmetic and message encoding."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tfhe.torus import (
    TORUS_MODULUS,
    decode_message,
    double_to_torus,
    encode_message,
    from_int64,
    gaussian_noise,
    to_centered_int64,
    torus_to_double,
)


def test_double_torus_roundtrip(rng):
    x = rng.uniform(-0.5, 0.5, 100)
    back = torus_to_double(double_to_torus(x))
    diff = np.abs(back - x)
    diff = np.minimum(diff, 1 - diff)  # distance on the circle
    assert diff.max() < 1e-9


def test_double_to_torus_wraps():
    assert double_to_torus(1.25) == double_to_torus(0.25)
    assert double_to_torus(-0.75) == double_to_torus(0.25)


def test_encode_decode_roundtrip():
    for space in (2, 4, 8, 16):
        msgs = np.arange(space)
        assert np.array_equal(decode_message(encode_message(msgs, space), space), msgs)


def test_decode_is_nearest_rounding():
    space = 4
    base = encode_message(1, space)
    # perturb by less than half a step: still decodes to 1
    step = TORUS_MODULUS // space
    for delta in (-(step // 2) + 1, step // 2 - 1):
        noisy = np.uint32((int(base) + delta) % TORUS_MODULUS)
        assert decode_message(noisy, space) == 1


def test_encode_negative_messages():
    assert decode_message(encode_message(-1, 4), 4) == 3


def test_centered_int64_range(rng):
    t = rng.integers(0, TORUS_MODULUS, 1000, dtype=np.int64).astype(np.uint32)
    c = to_centered_int64(t)
    assert c.min() >= -(TORUS_MODULUS // 2)
    assert c.max() < TORUS_MODULUS // 2
    assert np.array_equal(from_int64(c), t)


def test_gaussian_noise_scale(rng):
    noise = to_centered_int64(gaussian_noise(rng, 2**-20, 10000))
    measured = noise.std() / TORUS_MODULUS
    assert 0.8 * 2**-20 < measured < 1.2 * 2**-20


def test_gaussian_noise_zero_std(rng):
    assert np.all(gaussian_noise(rng, 0.0, 100) == 0)


@settings(max_examples=100, deadline=None)
@given(v=st.integers(min_value=-(1 << 62), max_value=(1 << 62) - 1))
def test_from_int64_mod_property(v):
    assert int(from_int64(np.int64(v))) == v % TORUS_MODULUS
