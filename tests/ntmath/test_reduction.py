"""Tests for the Barrett/Montgomery dataflow models and their op counts.

These dataflows underpin the paper's Table 2/3 mult-count claims, so the
tests check both arithmetic correctness and the exact multiplication tally.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ntmath.reduction import BarrettReducer, MontgomeryReducer

Q36 = 68719476731  # 36-bit prime


def test_barrett_reduce_correct(rng):
    red = BarrettReducer(Q36)
    for _ in range(200):
        x = int(rng.integers(0, Q36)) * int(rng.integers(0, Q36))
        assert red.reduce(x) == x % Q36


def test_barrett_reduce_rejects_out_of_range():
    red = BarrettReducer(97)
    with pytest.raises(ValueError):
        red.reduce(97 * 97)
    with pytest.raises(ValueError):
        red.reduce(-1)


def test_barrett_mulmod_counts_three_mults():
    red = BarrettReducer(Q36)
    red.mulmod(12345, 67890)
    assert red.counter.mults == 3  # 1 product + 2 in reduction


def test_barrett_lazy_accumulate_correct_and_cheaper(rng):
    red = BarrettReducer(Q36)
    pairs = [
        (int(rng.integers(0, Q36)), int(rng.integers(0, Q36))) for _ in range(8)
    ]
    expected = sum(a * b for a, b in pairs) % Q36
    got = red.lazy_accumulate_mulmod(pairs)
    assert got == expected
    # n + 2 mults (Table 2), versus 3n for eager reduction
    assert red.counter.mults == len(pairs) + 2

    eager = BarrettReducer(Q36)
    acc = 0
    for a, b in pairs:
        acc = eager.addmod(acc, eager.mulmod(a, b))
    assert acc == expected
    assert eager.counter.mults == 3 * len(pairs)


def test_barrett_lazy_accumulate_empty():
    red = BarrettReducer(Q36)
    assert red.lazy_accumulate_mulmod([]) == 0
    assert red.counter.mults == 0


def test_barrett_lazy_accumulate_large_n(rng):
    """Accumulations longer than q can still reduce exactly (guard bits)."""
    red = BarrettReducer(97)
    pairs = [(96, 96)] * 50  # accumulator greatly exceeds q^2
    got = red.lazy_accumulate_mulmod(pairs)
    assert got == (96 * 96 * 50) % 97
    assert red.counter.mults == 52


def test_montgomery_roundtrip(rng):
    red = MontgomeryReducer(Q36)
    for _ in range(100):
        a = int(rng.integers(0, Q36))
        b = int(rng.integers(0, Q36))
        assert red.mulmod(a, b) == (a * b) % Q36


def test_montgomery_domain_mapping():
    red = MontgomeryReducer(65537)
    a = 12345
    assert red.from_mont(red.to_mont(a)) == a


def test_montgomery_rejects_even_modulus():
    with pytest.raises(ValueError):
        MontgomeryReducer(100)


def test_op_counter_accumulates():
    red = BarrettReducer(97)
    red.mulmod(5, 6)
    before = red.counter.mults
    red.mulmod(7, 8)
    assert red.counter.mults == 2 * before
    red.counter.reset()
    assert red.counter.mults == 0


@settings(max_examples=100, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=Q36 - 1),
    b=st.integers(min_value=0, max_value=Q36 - 1),
)
def test_barrett_montgomery_agree(a, b):
    barrett = BarrettReducer(Q36)
    mont = MontgomeryReducer(Q36)
    assert barrett.mulmod(a, b) == mont.mulmod(a, b)
