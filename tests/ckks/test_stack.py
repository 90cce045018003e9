"""Stacks of CKKS ciphertexts, and squaring with three products.

``Ciphertext.stack`` holds ``B`` ciphertexts at one level and scale as
``(C, B, n)`` parts, so EvalMod runs its head and tail halves through one
set of kernel calls.  Every op with a stack path must give, unstacked, the
op applied to each ciphertext bit for bit; every op without one must
raise ``ValueError`` rather than broadcast: with ``B == C`` a ``(C, n)``
plaintext or secret would broadcast silently against ``(C, B, n)`` parts,
so most stacks below are built at level 1 over ``C = 2`` primes.

``square`` transforms its two parts once and forms three products; it
must equal ``multiply(ct, ct)`` bit for bit.  Both hold on the active and
the per-limb reference backend.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.ckks.encryptor import Ciphertext, CKKSEncryptor
from repro.ckks.linear import SlotLinearTransform
from repro.ckks.params import CKKSParams
from repro.serialization import save_ciphertext
from tests.ckks.test_scheme import BACKENDS, _on, _same


@pytest.fixture(scope="module")
def s(ckks512_stack):
    """The shared n=512 keys and evaluator, with a symmetric encryptor and
    a value stream of this module's own: the shared ``rng`` stays as the
    modules after this one expect it."""
    shared = ckks512_stack
    rng = np.random.default_rng(0x57AC)
    encryptor = CKKSEncryptor(shared.params, shared.encoder, rng,
                              secret_key=shared.keygen.secret_key())
    return SimpleNamespace(params=shared.params, evaluator=shared.evaluator,
                           decryptor=shared.decryptor, encryptor=encryptor,
                           rng=rng)


def _values(s):
    return s.rng.uniform(-1, 1, s.params.slots)


def _pair(s, level):
    return [s.encryptor.encrypt_values(_values(s), level=level)
            for _ in range(2)]


def _stacked_equals_each(op, *pairs):
    """``op`` on the stacks of ``pairs`` unstacks to ``op`` on each."""
    out = op(*(Ciphertext.stack(pair) for pair in pairs))
    assert out.stack_size == 2
    got = out.unstack()
    for b in range(2):
        assert _same(got[b], op(*(pair[b] for pair in pairs)))


# ------------------------------ stack paths ----------------------------- #


def test_stack_round_trips(s):
    pair = _pair(s, level=2)
    stacked = Ciphertext.stack(pair)
    assert (stacked.stack_size, stacked.level, stacked.size) == (2, 2, 2)
    assert stacked.parts[0].data.shape == (3, 2, s.params.n)
    assert all(_same(a, b) for a, b in zip(stacked.unstack(), pair))
    assert pair[0].stack_size is None


@BACKENDS
@pytest.mark.parametrize("op", [
    "add_plain", "mul_plain", "mul_plain_scaled", "mul_scalar_int",
    "rescale", "mod_switch_to", "negate", "square", "square_relin"])
def test_unary_op_on_a_stack_is_the_op_on_each(s, backend, op):
    ev, values = s.evaluator, _values(s)
    ops = {
        "add_plain": lambda ct: ev.add_plain(ct, values),
        "mul_plain": lambda ct: ev.mul_plain(ct, values),
        "mul_plain_scaled": lambda ct: ev.mul_plain(ct, values, scale=2.0**20),
        "mul_scalar_int": lambda ct: ev.mul_scalar_int(ct, -3),
        "rescale": ev.rescale,
        "mod_switch_to": lambda ct: ev.mod_switch_to(ct, 1),
        "negate": ev.negate,
        "square": lambda ct: ev.square(ct, relin=False),
        "square_relin": ev.square,
    }
    pair = _pair(s, level=3)
    with _on(backend):
        _stacked_equals_each(ops[op], pair)


@BACKENDS
@pytest.mark.parametrize("op", ["multiply", "multiply_relin", "add", "sub"])
def test_binary_op_on_stacks_is_the_op_on_each(s, backend, op):
    """Operands at levels 3 and 2: the stack is mod-switched as one."""
    ev = s.evaluator
    ops = {
        "multiply": lambda a, b: ev.multiply(a, b, relin=False),
        "multiply_relin": ev.multiply,
        "add": ev.add,
        "sub": ev.sub,
    }
    with _on(backend):
        _stacked_equals_each(ops[op], _pair(s, level=3), _pair(s, level=2))


@BACKENDS
def test_relinearize_on_a_stack_is_relinearize_on_each(s, backend):
    ev = s.evaluator
    pair = [ev.multiply(a, b, relin=False)
            for a, b in zip(_pair(s, level=1), _pair(s, level=1))]
    assert pair[0].size == 3
    with _on(backend):
        _stacked_equals_each(ev.relinearize, pair)


@BACKENDS
@pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
def test_relinearized_product_is_relinearize_of_the_tensor(s, backend,
                                                           stacked):
    """``multiply`` and ``square`` hand ``relinearize`` the tensor in NTT
    form, which inverse-transforms only ``d2`` and adds ``P·(d0, d1)`` to
    the switched pair before its one Moddown.  That must equal, bit for
    bit, ``relinearize`` of the coefficient-form product, whose digest
    ``tests/ckks/test_transform_digests.py`` pins."""
    ev = s.evaluator
    a, b = _pair(s, level=1), _pair(s, level=1)
    if stacked:
        a, b = Ciphertext.stack(a), Ciphertext.stack(b)
    else:
        a, b = a[0], b[0]
    with _on(backend):
        assert _same(ev.multiply(a, b),
                     ev.relinearize(ev.multiply(a, b, relin=False)))
        assert _same(ev.square(a), ev.relinearize(ev.square(a, relin=False)))


# ------------------------------ typed errors ---------------------------- #


def test_stack_rejects_mismatched_ciphertexts(s):
    a, b = _pair(s, level=2)
    ev = s.evaluator
    other = CKKSParams(n=512, num_levels=4, dnum=1, hamming_weight=32)
    for bad in (ev.mod_switch_to(b, 1),
                ev.mul_scalar_int(ev.mul_plain(b, _values(s)), 1),
                Ciphertext([p.copy() for p in b.parts], b.scale, other),
                ev.multiply(a, b, relin=False)):
        with pytest.raises(ValueError, match="differ in"):
            Ciphertext.stack([a, bad])
    with pytest.raises(ValueError, match="stack a stack"):
        Ciphertext.stack([Ciphertext.stack([a, b]), a])
    with pytest.raises(ValueError):
        Ciphertext.stack([])
    with pytest.raises(ValueError, match="not a stack"):
        a.unstack()


@pytest.fixture(scope="module")
def square_stack(s):
    """A stack of two at level 1: ``B == C == 2``."""
    stacked = Ciphertext.stack(_pair(s, level=1))
    assert stacked.stack_size == len(stacked.primes) == 2
    return stacked


@pytest.mark.parametrize("op", [
    "rotate", "conjugate", "apply_galois", "mul_by_i",
    "rotate_batch_hoisted", "linear_transform", "decrypt",
    "decrypt_poly"])
def test_ops_without_a_stack_path_reject_a_stack(s, square_stack, op):
    ev = s.evaluator
    ops = {
        "rotate": lambda ct: ev.rotate(ct, 1),
        "conjugate": ev.conjugate,
        "apply_galois": lambda ct: ev.apply_galois(ct, 5),
        "mul_by_i": ev.mul_by_i,
        "rotate_batch_hoisted": lambda ct: ev.rotate_batch_hoisted(ct, [1]),
        "linear_transform": lambda ct: SlotLinearTransform(
            np.eye(s.params.slots)).apply(ev, ct),
        "decrypt": s.decryptor.decrypt,
        "decrypt_poly": s.decryptor.decrypt_poly,
    }
    with pytest.raises(ValueError, match="not a stack"):
        ops[op](square_stack)


def test_save_ciphertext_rejects_a_stack(square_stack, tmp_path):
    for compressed in (False, True):
        with pytest.raises(ValueError, match="not a stack"):
            save_ciphertext(tmp_path / "ct.npz", square_stack,
                            compressed=compressed)
    assert not list(tmp_path.iterdir())


def test_a_stack_meets_no_single_operand(s, square_stack):
    """Mixing a stack with one ciphertext or a ``(C, n)`` plaintext is a
    typed error, not a silent broadcast."""
    ev = s.evaluator
    single = s.encryptor.encrypt_values(_values(s), level=1)
    for op in (ev.add, ev.multiply):
        for args in ((square_stack, single), (single, square_stack)):
            with pytest.raises(ValueError, match="stacks of different"):
                op(*args)
    plain = s.encryptor.encode(_values(s), level=1)
    with pytest.raises(ValueError, match="one polynomial"):
        ev.mul_plaintext(square_stack, plain)
    with pytest.raises(ValueError, match="one polynomial"):
        square_stack.parts[0] + plain.poly


# ------------------------------ squaring -------------------------------- #


@BACKENDS
@pytest.mark.parametrize("level", [4, 1])
def test_square_is_multiply_bit_for_bit(s, backend, level):
    ev = s.evaluator
    ct = s.encryptor.encrypt_values(_values(s), level=level)
    with _on(backend):
        for relin in (False, True):
            assert _same(ev.square(ct, relin=relin),
                         ev.multiply(ct, ct, relin=relin))


def test_square_transforms_two_parts_and_forms_three_products(
        s, kernel_rows):
    """A squaring's tensor forward-transforms ``2C`` channel-rows and its
    ``pointwise_mul`` covers ``3C``; a product of two ciphertexts takes
    ``4C`` and ``4C``.  Both take one inverse transform of ``3C``."""
    ev = s.evaluator
    ct = s.encryptor.encrypt_values(_values(s))
    c = len(ct.primes)
    square = kernel_rows(lambda: ev.square(ct, relin=False))
    product = kernel_rows(lambda: ev.multiply(ct, ct, relin=False))
    assert (square["ntt_forward"], square["pointwise_mul"],
            square["ntt_inverse"]) == (2 * c, 3 * c, 3 * c)
    assert (product["ntt_forward"], product["pointwise_mul"],
            product["ntt_inverse"]) == (4 * c, 4 * c, 3 * c)


def test_square_rejects_an_unrelinearized_input(s):
    ev = s.evaluator
    ct = s.encryptor.encrypt_values(_values(s), level=2)
    with pytest.raises(ValueError, match="size-2"):
        ev.square(ev.multiply(ct, ct, relin=False))
