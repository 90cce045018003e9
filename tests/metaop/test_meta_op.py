"""Tests for the Meta-OP representation and executable semantics."""

import numpy as np
import pytest

from repro.metaop.meta_op import AccessPattern, MetaOp, MetaOpExecutor, MetaOpTally
from repro.ntmath.primes import generate_ntt_prime, root_of_unity

Q = generate_ntt_prime(36, 64)


def test_meta_op_cycle_and_mult_model():
    op = MetaOp(8, 3, AccessPattern.SLOTS)
    assert op.core_cycles == 5          # n + 2 (Figure 5(d))
    assert op.raw_mults == 3 * 8 + 16   # 24 products + reduction reuse
    assert op.raw_adds == 3 * 8 + 8


def test_meta_op_validation():
    with pytest.raises(ValueError):
        MetaOp(0, 3, AccessPattern.SLOTS)
    with pytest.raises(ValueError):
        MetaOp(8, 0, AccessPattern.SLOTS)


def test_meta_op_repr():
    op = MetaOp(8, 4, AccessPattern.CHANNEL)
    assert repr(op) == "(M8A8)_4R8[channel]"


def test_executor_plain_mac(rng):
    """Lane k accumulates its own products: sum_c a[c,k]*b[c,k] mod q."""
    ex = MetaOpExecutor(j=8)
    op = MetaOp(8, 5, AccessPattern.DNUM_GROUP)
    a = rng.integers(0, Q, (5, 8), dtype=np.uint64)
    b = rng.integers(0, Q, (5, 8), dtype=np.uint64)
    got = ex.execute(op, a, b, Q)
    expected = [
        sum(int(a[c, k]) * int(b[c, k]) for c in range(5)) % Q for k in range(8)
    ]
    assert got.tolist() == expected


def test_executor_with_combine_matrix(rng):
    """The addition array can recombine products before accumulation."""
    ex = MetaOpExecutor(j=8)
    op = MetaOp(8, 2, AccessPattern.SLOTS)
    a = rng.integers(0, Q, (2, 8), dtype=np.uint64)
    b = rng.integers(0, Q, (2, 8), dtype=np.uint64)
    combine = rng.integers(-1, 2, (2, 8, 8))
    got = ex.execute(op, a, b, Q, combine=combine)
    expected = []
    for k in range(8):
        acc = 0
        for c in range(2):
            for p in range(8):
                acc += int(combine[c, k, p]) * int(a[c, p]) * int(b[c, p])
        expected.append(acc % Q)
    assert got.tolist() == expected


def test_executor_shape_validation(rng):
    ex = MetaOpExecutor(j=8)
    op = MetaOp(8, 2, AccessPattern.SLOTS)
    with pytest.raises(ValueError):
        ex.execute(op, np.zeros((3, 8)), np.zeros((2, 8)), Q)
    with pytest.raises(ValueError):
        ex.execute(op, np.zeros((2, 8)), np.zeros((2, 8)), Q,
                   combine=np.zeros((2, 8, 7)))
    with pytest.raises(ValueError):
        MetaOpExecutor(j=4).execute(op, np.zeros((2, 8)), np.zeros((2, 8)), Q)


def test_executor_tally(rng):
    ex = MetaOpExecutor(j=8)
    op = MetaOp(8, 3, AccessPattern.SLOTS)
    a = rng.integers(0, Q, (3, 8), dtype=np.uint64)
    ex.execute(op, a, a, Q)
    ex.execute(op, a, a, Q)
    assert ex.tally.meta_ops == 2
    assert ex.tally.core_cycles == 10
    assert ex.tally.raw_mults == 80


def test_tally_record_counts():
    tally = MetaOpTally()
    tally.record(MetaOp(8, 4, AccessPattern.CHANNEL), count=10)
    assert tally.meta_ops == 10
    assert tally.core_cycles == 60


def test_executor_radix8_butterfly():
    """The (M8A8)_3R8 Meta-OP computes an exact 8-point DFT — the paper's
    Figure 4(c) claim, executed through the real core semantics."""
    from repro.poly.radix import dft8_product_assignment, dft8_reference

    omega8 = root_of_unity(8, Q)
    rng = np.random.default_rng(5)
    groups, combine = dft8_product_assignment(Q, omega8)
    a_vals = rng.integers(0, Q, 8, dtype=np.uint64)
    a_in = np.empty((3, 8), dtype=object)
    b_in = np.empty((3, 8), dtype=object)
    for c, slots in enumerate(groups):
        for p, (src, tw) in enumerate(slots):
            a_in[c, p] = int(a_vals[src])
            b_in[c, p] = tw
    ex = MetaOpExecutor(j=8)
    op = MetaOp(8, 3, AccessPattern.SLOTS)
    got = ex.execute(op, a_in, b_in, Q, combine=combine)
    assert np.array_equal(got, dft8_reference(a_vals, Q, omega8))


def test_executor_bconv_aggregation(rng):
    """(M8A8)_L R8 reproduces the Bconv channel aggregation exactly."""
    from repro.kernels import get_backend
    from repro.ntmath.primes import generate_ntt_primes
    from repro.rns.basis import get_conversion_table

    primes = generate_ntt_primes(30, 8, 4)
    source, target = primes[:3], (primes[3],)
    x = np.stack([rng.integers(0, q, 8, dtype=np.uint64) for q in source])
    expected = get_backend().bconv(x, source, target)[0]

    table = get_conversion_table(tuple(source), tuple(target))
    from repro.ntmath.modular import mulmod

    t = np.stack(
        [mulmod(x[i], table.qhat_inv[i], q) for i, q in enumerate(source)]
    )
    ex = MetaOpExecutor(j=8)
    op = MetaOp(8, len(source), AccessPattern.CHANNEL)
    b_in = np.tile(table.qhat_mod_target[0][:, None], (1, 8))
    got = ex.execute(op, t, b_in, int(target[0]))
    assert np.array_equal(got, expected)


def test_executor_decomp_polymult(rng):
    """(M8A8)_dnum R8 reproduces the evk accumulation of keyswitching."""
    q = Q
    dnum = 4
    digits = rng.integers(0, q, (dnum, 8), dtype=np.uint64)
    evk = rng.integers(0, q, (dnum, 8), dtype=np.uint64)
    ex = MetaOpExecutor(j=8)
    op = MetaOp(8, dnum, AccessPattern.DNUM_GROUP)
    got = ex.execute(op, digits, evk, q)
    expected = [
        sum(int(digits[t, k]) * int(evk[t, k]) for t in range(dnum)) % q
        for k in range(8)
    ]
    assert got.tolist() == expected


def test_execute_mac_stream(rng):
    ex = MetaOpExecutor(j=8)
    pairs = rng.integers(0, Q, (4, 8, 2), dtype=np.uint64)
    got = ex.execute_mac_stream(pairs, Q, AccessPattern.ELEMENTWISE)
    expected = [
        sum(int(pairs[c, k, 0]) * int(pairs[c, k, 1]) for c in range(4)) % Q
        for k in range(8)
    ]
    assert got.tolist() == expected
