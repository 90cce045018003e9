"""Differential property tests: the batched numpy backend must be
bit-identical to the per-limb reference backend on every kernel.

This is the contract that makes the backend refactor safe: both backends
compute exact modular results (the float-assisted Barrett path is exact
for the moduli in use, and the batched Bconv recombines exact-integer
matmul partials), so their outputs agree to the last bit — not merely
within floating-point tolerance.  Hypothesis drives random bases, ring
degrees, and inputs through both backends and asserts ``array_equal``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import available_backends, backend_scope
from repro.kernels.contract import MAC_MAX_TERMS
from repro.ntmath.modular import (
    MAX_FAST_MODULUS_BITS,
    addmod_channels,
    channel_moduli,
    mulmod_channels,
    submod_channels,
)
from repro.ntmath.primes import generate_ntt_primes

DEGREES = st.sampled_from([16, 32, 64])
PRIME_BITS = st.sampled_from([20, 28, 36])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

#: The NTT at every ring degree the workloads use (and the two smallest),
#: up to the enforced 42-bit prime width.
NTT_DEGREES = st.sampled_from([2, 4, 16, 32, 64, 128, 256])
NTT_PRIME_BITS = st.sampled_from([20, 28, 36, MAX_FAST_MODULUS_BITS])
#: Batch axes between the channel and coefficient axes: none (``(C, n)``),
#: ``(C, B, n)`` and the TFHE external product's ``(C, rows, B, n)``.
BATCHES = st.sampled_from([(), (1,), (3,), (6, 2), (2, 4)])
#: Random residues, then the worst cases of the lazy ``[0, 4q)`` bound:
#: every coefficient at ``q - 1``, and one ``q - 1`` spike among zeros.
FILLS = st.sampled_from(["random", "q-1", "spike"])


def _residues(rng, primes, n):
    return np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in primes])


def _batch(rng, primes, batch, n, fill):
    x = np.stack([rng.integers(0, q, batch + (n,), dtype=np.uint64)
                  for q in primes])
    top = (np.array(primes, dtype=np.uint64) - np.uint64(1)).reshape(
        (-1,) + (1,) * (x.ndim - 1))
    if fill == "q-1":
        x[...] = top
    elif fill == "spike":
        x[...] = 0
        x[..., :1] = top
    return x


def _both(op):
    """Run ``op(backend)`` under reference and numpy; return both results."""
    with backend_scope("reference") as ref:
        want = op(ref)
    with backend_scope("numpy") as batched:
        got = op(batched)
    return want, got


@settings(max_examples=40, deadline=None)
@given(n=NTT_DEGREES, bits=NTT_PRIME_BITS, count=st.integers(1, 4),
       batch=BATCHES, fill=FILLS, seed=SEEDS)
def test_ntt_forward_inverse_bit_identical(n, bits, count, batch, fill, seed):
    """Both backends agree on ``(C, ..., n)`` batches at the workloads'
    degrees and prime widths, including the lazy-range worst cases, and
    neither writes the caller's array."""
    primes = generate_ntt_primes(bits, n, count)
    x = _batch(np.random.default_rng(seed), primes, batch, n, fill)
    before = x.copy()
    want_fwd, got_fwd = _both(lambda b: b.ntt_forward(x, primes))
    assert np.array_equal(x, before)
    assert np.array_equal(want_fwd, got_fwd)
    spectrum = got_fwd.copy()
    want_inv, got_inv = _both(lambda b: b.ntt_inverse(spectrum, primes))
    assert np.array_equal(spectrum, got_fwd)
    assert np.array_equal(want_inv, got_inv)
    assert np.array_equal(got_inv, x)  # and the round-trip is the identity
    # the inverse's worst case: every spectrum value at q - 1
    top = _batch(np.random.default_rng(seed), primes, batch, n, "q-1")
    want, got = _both(lambda b: b.ntt_inverse(top, primes))
    assert np.array_equal(want, got)


def _channel_case(bits, seed):
    """A ``(C, 16)`` operand pair at ``bits``-bit moduli with the corner
    cases spliced in: ``0``, ``1``, ``q - 1``, and products just below,
    at and just above multiples of ``q``."""
    rng = np.random.default_rng(seed)
    moduli = [int(rng.integers(1 << (bits - 1), 1 << bits)) for _ in range(3)]
    a = np.empty((3, 16), dtype=np.uint64)
    b = np.empty((3, 16), dtype=np.uint64)
    for c, q in enumerate(moduli):
        row_a = [int(v) for v in rng.integers(0, q, 16)]
        row_b = [int(v) for v in rng.integers(0, q, 16)]
        row_a[:4], row_b[:4] = [0, 1, q - 1, q - 1], [q - 1, q - 1, 1, q - 1]
        for i in range(4, 16, 3):
            x = max(row_a[i], 1)
            j = int(rng.integers(0, x))      # a * b close to j * q
            k = -(-j * q // x)               # smallest b with a*b >= j*q
            for d in (-1, 0, 1):
                row_a[i + 1 + d] = x
                row_b[i + 1 + d] = min(max(k + d, 0), q - 1)
        a[c], b[c] = row_a, row_b
    return moduli, a, b


@settings(max_examples=60, deadline=None)
@given(bits=st.integers(2, MAX_FAST_MODULUS_BITS), seed=SEEDS)
def test_channel_modular_primitives_match_python_ints(bits, seed):
    """``mulmod/addmod/submod_channels`` against exact Python integers."""
    moduli, a, b = _channel_case(bits, seed)
    a_in, b_in = a.copy(), b.copy()
    qq, q_quot = channel_moduli(moduli)
    for fn, exact in (
        (lambda: mulmod_channels(a, b, qq, q_quot), lambda x, y, q: x * y % q),
        (lambda: addmod_channels(a, b, qq), lambda x, y, q: (x + y) % q),
        (lambda: submod_channels(a, b, qq), lambda x, y, q: (x - y) % q),
    ):
        got = fn()
        want = [[exact(int(x), int(y), q) for x, y in zip(ra, rb)]
                for ra, rb, q in zip(a, b, moduli)]
        assert got.tolist() == want
        assert np.array_equal(a, a_in) and np.array_equal(b, b_in)


def test_channel_moduli_enforce_the_fast_path_bound():
    with pytest.raises(ValueError):
        channel_moduli([1 << MAX_FAST_MODULUS_BITS])


@settings(max_examples=25, deadline=None)
@given(n=DEGREES, bits=PRIME_BITS, count=st.integers(1, 4), seed=SEEDS)
def test_pointwise_ops_bit_identical(n, bits, count, seed):
    primes = generate_ntt_primes(bits, n, count)
    rng = np.random.default_rng(seed)
    a = _residues(rng, primes, n)
    b = _residues(rng, primes, n)
    scalars = [int(rng.integers(0, q)) for q in primes]
    for op in (
        lambda k: k.pointwise_mul(a, b, primes),
        lambda k: k.pointwise_add(a, b, primes),
        lambda k: k.pointwise_sub(a, b, primes),
        lambda k: k.negate(a, primes),
        lambda k: k.mul_channel_scalars(a, scalars, primes),
    ):
        want, got = _both(op)
        assert np.array_equal(want, got)


#: ``(C, a, b)``: a channel count and the operand shapes after the channel
#: axis, in every caller's broadcast pattern.  The numpy backend sums in one
#: expression below 3,072 result elements and term by term from there; the
#: CoeffToSlot, keyswitch, four-sample TFHE and first J-broadcast cases take
#: the second form, the others the first.
MAC_CASES = [
    (17, (8, 2, 128), (8, 1, 128)),   # CoeffToSlot group: babies x diagonal
    (4, (8, 2, 128), (8, 1, 128)),    # SlotToCoeff group
    (26, (2, 2, 128), (2, 1, 128)),   # bootstrap keyswitch: key halves x digit
    (57, (4, 2, 256), (4, 1, 256)),   # paper-chain keyswitch
    (2, (6, 1, 4, 256), (6, 2, 1, 256)),  # TFHE rows x both spectra, 4 samples
    (2, (6, 1, 1, 256), (6, 2, 1, 256)),  # TFHE rows, one sample
    (3, (1, 4, 256), (5, 4, 256)),    # one term of a broadcast along J
    (3, (5, 3, 16), (1, 3, 16)),
]
#: The most terms a caller sums: a 64-slot transform's giant step (the
#: bootstrap's; keyswitches sum at most 4 digits and TFHE 6 rows).
LARGEST_CALLER_TERMS = 8



@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(MAC_CASES), bits=NTT_PRIME_BITS, fill=FILLS,
       seed=SEEDS)
def test_mac_matches_reference_and_python_ints(case, bits, fill, seed):
    """``sum_t a[:, t] * b[:, t] mod q`` at every caller's shape and
    broadcast pattern, on both backends and against Python integers,
    with the operands unchanged."""
    count, a_shape, b_shape = case
    primes = generate_ntt_primes(bits, a_shape[-1], count)
    rng = np.random.default_rng(seed)
    a = _batch(rng, primes, a_shape[:-1], a_shape[-1], fill)
    b = _batch(rng, primes, b_shape[:-1], b_shape[-1], fill)
    before = a.copy(), b.copy()
    want, got = _both(lambda k: k.mac(a, b, primes))
    assert np.array_equal(a, before[0]) and np.array_equal(b, before[1])
    full = np.broadcast_shapes(a.shape, b.shape)
    q_col = np.array(primes, dtype=object).reshape(
        (count,) + (1,) * (len(full) - 2))
    exact = (np.broadcast_to(a, full).astype(object)
             * np.broadcast_to(b, full).astype(object)).sum(axis=1) % q_col
    assert want.dtype == got.dtype == np.uint64
    assert np.array_equal(want, got)
    assert np.array_equal(got.astype(object), exact)


@pytest.mark.parametrize("terms", [LARGEST_CALLER_TERMS, 4096])
@pytest.mark.parametrize("n", [16, 2048])
def test_mac_worst_lazy_sum_is_exact(terms, n):
    """Every operand at ``q - 1``, the largest lazy sum, at 42-bit primes:
    ``terms * (q - 1)**2 = terms mod q``, in one expression (n = 16) and
    term by term (n = 2048)."""
    primes = generate_ntt_primes(MAX_FAST_MODULUS_BITS, n, 2)
    top = (np.array(primes, dtype=np.uint64) - np.uint64(1)).reshape(2, 1, 1)
    a = np.broadcast_to(top, (2, terms, n))
    want = np.array([[terms % q] * n for q in primes], dtype=np.uint64)
    for got in _both(lambda k: k.mac(a, top, primes)):
        assert np.array_equal(got, want)


def test_mac_rejects_more_terms_than_it_sums_exactly():
    """The term limit raises before any work: the operand is a broadcast
    view, so this allocates nothing.  An empty sum raises too."""
    primes = generate_ntt_primes(20, 16, 1)
    a = np.broadcast_to(np.uint64(1), (1, MAC_MAX_TERMS + 1, 16))
    for name in available_backends():
        with backend_scope(name) as backend:
            with pytest.raises(ValueError, match="terms"):
                backend.mac(a, a, primes)
            with pytest.raises(ValueError, match="terms"):
                backend.mac(a[:, :0], a[:, :0], primes)
            with pytest.raises(ValueError, match="one rank"):
                backend.mac(a[:, :2], a[:, 0], primes)


@settings(max_examples=25, deadline=None)
@given(n=DEGREES, bits=PRIME_BITS, seed=SEEDS,
       k=st.integers(0, 63).map(lambda i: 2 * i + 1))
def test_automorphism_bit_identical(n, bits, seed, k):
    primes = generate_ntt_primes(bits, n, 3)
    x = _residues(np.random.default_rng(seed), primes, n)
    want, got = _both(lambda b: b.automorphism(x, k, primes))
    assert np.array_equal(want, got)


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("n", [8, 32, 128])
def test_automorphism_ntt_is_the_transformed_automorphism(backend, n):
    """For every odd ``k``, the NTT-domain gather of ``NTT(x)`` equals the
    forward NTT of the coefficient automorphism of ``x``."""
    primes = generate_ntt_primes(MAX_FAST_MODULUS_BITS, n, 3)
    x = _residues(np.random.default_rng(n), primes, n)
    with backend_scope(backend) as b:
        spectrum = b.ntt_forward(x, primes)
        for k in range(1, 2 * n, 2):
            want = b.ntt_forward(b.automorphism(x, k, primes), primes)
            assert np.array_equal(
                b.automorphism_ntt(spectrum, k, primes), want), k


@settings(max_examples=20, deadline=None)
@given(k=st.integers(0, 255).map(lambda i: 2 * i + 1),
       batch=st.sampled_from([(), (3, 2)]), seed=SEEDS)
def test_automorphism_ntt_batches_at_256(k, batch, seed):
    """Sampled ``k`` at n = 256 on ``(C, n)`` and ``(C, J, parts, n)``
    batches: both backends equal the per-row transformed automorphism,
    and the caller's array is unchanged."""
    n = 256
    primes = generate_ntt_primes(MAX_FAST_MODULUS_BITS, n, 2)
    x = _batch(np.random.default_rng(seed), primes, batch, n, "random")
    rows = x.reshape(len(primes), -1, n)
    for name in available_backends():
        with backend_scope(name) as b:
            coeff = np.stack([b.automorphism(rows[:, r], k, primes)
                              for r in range(rows.shape[1])], axis=1)
            want = b.ntt_forward(coeff.reshape(x.shape), primes)
            spectrum = b.ntt_forward(x, primes)
            before = spectrum.copy()
            got = b.automorphism_ntt(spectrum, k, primes)
            assert np.array_equal(got, want)
            assert np.array_equal(spectrum, before)


def test_automorphism_ntt_rejects_an_even_index():
    primes = generate_ntt_primes(36, 16, 2)
    x = _residues(np.random.default_rng(0), primes, 16)
    for name in available_backends():
        with backend_scope(name) as b:
            for k in (0, 2, 16, 32):
                with pytest.raises(ValueError, match="odd"):
                    b.automorphism_ntt(x, k, primes)


@settings(max_examples=25, deadline=None)
@given(n=DEGREES, bits=PRIME_BITS, src=st.integers(1, 5),
       tgt=st.integers(1, 5), seed=SEEDS)
def test_bconv_bit_identical(n, bits, src, tgt, seed):
    primes = generate_ntt_primes(bits, n, src + tgt)
    source, target = primes[:src], primes[src:]
    x = _residues(np.random.default_rng(seed), source, n)
    want, got = _both(lambda b: b.bconv(x, source, target))
    assert np.array_equal(want, got)


@settings(max_examples=25, deadline=None)
@given(n=DEGREES, bits=PRIME_BITS, base=st.integers(1, 4),
       special=st.integers(1, 3), seed=SEEDS)
def test_modup_moddown_bit_identical(n, bits, base, special, seed):
    primes = generate_ntt_primes(bits, n, base + special)
    base_primes, special_primes = primes[:base], primes[base:]
    rng = np.random.default_rng(seed)
    x = _residues(rng, base_primes, n)
    want_up, got_up = _both(
        lambda b: b.modup(x, base_primes, special_primes))
    assert np.array_equal(want_up, got_up)
    y = _residues(rng, primes, n)
    want_down, got_down = _both(
        lambda b: b.moddown(y, base_primes, special_primes))
    assert np.array_equal(want_down, got_down)


@settings(max_examples=25, deadline=None)
@given(n=DEGREES, bits=PRIME_BITS, count=st.integers(2, 5), seed=SEEDS)
def test_rescale_bit_identical(n, bits, count, seed):
    primes = generate_ntt_primes(bits, n, count)
    x = _residues(np.random.default_rng(seed), primes, n)
    want, got = _both(lambda b: b.rescale(x, primes))
    assert np.array_equal(want, got)


@settings(max_examples=5, deadline=None)
@given(seed=SEEDS)
def test_full_cmult_rescale_bit_identical(seed):
    """End-to-end: a CKKS multiply (tensor + relinearize keyswitch) and
    rescale produce bit-identical ciphertexts under both backends."""
    from repro.ckks.encoder import CKKSEncoder
    from repro.ckks.encryptor import CKKSEncryptor
    from repro.ckks.evaluator import CKKSEvaluator
    from repro.ckks.keys import CKKSKeyGenerator
    from repro.ckks.params import CKKSParams

    params = CKKSParams(n=64, num_levels=3, dnum=2, hamming_weight=8)
    rng = np.random.default_rng(seed)
    encoder = CKKSEncoder(params.n, params.scale)
    keygen = CKKSKeyGenerator(params, rng)
    evaluator = CKKSEvaluator(params, encoder, relin_key=keygen.relin_key())
    encryptor = CKKSEncryptor(
        params, encoder, rng, secret_key=keygen.secret_key())
    ct = encryptor.encrypt_values(rng.normal(size=params.slots))

    want, got = _both(lambda b: evaluator.multiply_rescale(ct, ct))
    for want_part, got_part in zip(want.parts, got.parts):
        assert want_part.primes == got_part.primes
        assert np.array_equal(want_part.data, got_part.data)
