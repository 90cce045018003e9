"""Tests for encrypted-integer arithmetic (every bit op is a real PBS).

Kept to 3-bit operands: a single add is already ~15 bootstrapped gates.
"""

import pytest

from repro.tfhe.gates import TFHEGates
from repro.tfhe.integers import EncryptedInt, EncryptedIntEvaluator

WIDTH = 3


@pytest.fixture(scope="module")
def ev(tfhe_kit):
    return EncryptedIntEvaluator(TFHEGates(tfhe_kit))


def test_encrypt_decrypt_roundtrip(ev):
    for value in (0, 3, 7):
        assert ev.decrypt(ev.encrypt(value, WIDTH)) == value


def test_encrypt_range_check(ev):
    with pytest.raises(ValueError):
        ev.encrypt(8, WIDTH)
    with pytest.raises(ValueError):
        ev.encrypt(-1, WIDTH)


def test_width_mismatch(ev):
    with pytest.raises(ValueError):
        ev.add(ev.encrypt(1, 2), ev.encrypt(1, 3))


@pytest.mark.parametrize("a,b", [(5, 3), (7, 7), (0, 6)])
def test_add(ev, a, b):
    out = ev.add(ev.encrypt(a, WIDTH), ev.encrypt(b, WIDTH))
    assert out.width == WIDTH + 1  # includes carry-out
    assert ev.decrypt(out) == a + b


@pytest.mark.parametrize("a,b", [(6, 2), (3, 3), (1, 5)])
def test_sub_and_borrow_flag(ev, a, b):
    out = ev.sub(ev.encrypt(a, WIDTH), ev.encrypt(b, WIDTH))
    diff = ev.decrypt(EncryptedInt(out.bits[:WIDTH]))
    no_borrow = ev.gates.decrypt_bit(out.bits[-1])
    assert diff == (a - b) % (1 << WIDTH)
    assert no_borrow == (a >= b)


@pytest.mark.parametrize("a,b", [(6, 2), (2, 6), (4, 4)])
def test_greater_equal_and_max(ev, a, b):
    ca, cb = ev.encrypt(a, WIDTH), ev.encrypt(b, WIDTH)
    assert ev.gates.decrypt_bit(ev.greater_equal(ca, cb)) == (a >= b)
    assert ev.decrypt(ev.maximum(ca, cb)) == max(a, b)


def test_equal(ev):
    assert ev.gates.decrypt_bit(
        ev.equal(ev.encrypt(5, WIDTH), ev.encrypt(5, WIDTH)))
    assert not ev.gates.decrypt_bit(
        ev.equal(ev.encrypt(5, WIDTH), ev.encrypt(4, WIDTH)))


def test_select(ev):
    ca, cb = ev.encrypt(2, WIDTH), ev.encrypt(6, WIDTH)
    yes = ev.gates.encrypt_bit(True)
    no = ev.gates.encrypt_bit(False)
    assert ev.decrypt(ev.select(yes, ca, cb)) == 2
    assert ev.decrypt(ev.select(no, ca, cb)) == 6


def test_empty_width_is_rejected(ev):
    """Width 0 used to return ``None`` from ``equal`` and a ``None`` bit
    from ``add``."""
    empty = EncryptedInt([])
    for op in (ev.equal, ev.add, ev.sub):
        with pytest.raises(ValueError, match="at least one bit"):
            op(empty, empty)
    with pytest.raises(ValueError, match="at least one bit"):
        ev.select(ev.gates.encrypt_bit(True), empty, empty)


# ------------------------ one blind-rotation pass per level ------------- #

def _bsk_passes(ev, run):
    """``run()``'s result and how many blind-rotation passes it made."""
    kit = ev.gates.kit
    kit.key_trace = []
    try:
        out = run()
        return out, kit.key_trace.count("bsk")
    finally:
        kit.key_trace = None


@pytest.mark.parametrize("a,b", [(9, 9), (9, 13)])
def test_equal_width4_runs_three_passes(ev, a, b):
    """One XNOR pass plus a two-level AND tree (a chain made 7 PBS)."""
    ca, cb = ev.encrypt(a, 4), ev.encrypt(b, 4)
    out, passes = _bsk_passes(ev, lambda: ev.equal(ca, cb))
    assert passes == 3
    assert ev.gates.decrypt_bit(out) == (a == b)


def test_add_width3_runs_five_passes(ev):
    """One XOR/AND pass, then two passes per carry stage (was 12 PBS)."""
    ca, cb = ev.encrypt(6, WIDTH), ev.encrypt(3, WIDTH)
    out, passes = _bsk_passes(ev, lambda: ev.add(ca, cb))
    assert passes == 5
    assert ev.decrypt(out) == 9


def test_select_runs_two_passes(ev):
    ca, cb = ev.encrypt(2, WIDTH), ev.encrypt(6, WIDTH)
    no = ev.gates.encrypt_bit(False)
    out, passes = _bsk_passes(ev, lambda: ev.select(no, ca, cb))
    assert passes == 2
    assert ev.decrypt(out) == 6
