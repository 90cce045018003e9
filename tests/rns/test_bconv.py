"""Tests for the active kernel backend's Bconv / Modup / Moddown / rescale
(paper equations (1)-(3))."""

import numpy as np
import pytest

from repro.kernels import get_backend
from repro.ntmath.primes import generate_ntt_primes

PRIMES = generate_ntt_primes(30, 64, 8)
N = 16


def _residues(values, primes):
    return np.array([[v % q for v in values] for q in primes], dtype=np.uint64)


def test_bconv_exact_up_to_alpha_q(rng):
    """Bconv returns (x + alpha*Q) mod p with 0 <= alpha < L (eq. 1)."""
    source = PRIMES[:4]
    target = PRIMES[4:6]
    product = np.prod([int(q) for q in source], dtype=object)
    values = [int(rng.integers(0, 1 << 50)) % product for _ in range(N)]
    out = get_backend().bconv(_residues(values, source), source, target)
    for j, p in enumerate(target):
        for k in range(N):
            candidates = {
                (values[k] + alpha * product) % p for alpha in range(len(source))
            }
            assert int(out[j][k]) in candidates


def test_bconv_alpha_matches_exact_formula(rng):
    """The overshoot alpha equals floor(sum_i t_i / q_i) computed exactly,
    and is strictly below the number of source channels."""
    source = PRIMES[:4]
    target = PRIMES[4:6]
    product = 1
    for q in source:
        product *= q
    values = [int(v) for v in rng.integers(0, 1 << 20, N)]
    out = get_backend().bconv(_residues(values, source), source, target)
    for k in range(N):
        total = 0
        for q in source:
            qhat = product // q
            t = (values[k] * pow(qhat, -1, q)) % q
            total += t * qhat
        alpha = (total - values[k]) // product
        assert 0 <= alpha < len(source)
        for j, p in enumerate(target):
            assert int(out[j][k]) == total % p


def test_bconv_shape_validation():
    with pytest.raises(ValueError):
        get_backend().bconv(np.zeros((2, N), dtype=np.uint64), PRIMES[:3], PRIMES[3:4])


def test_bconv_single_source_channel(rng):
    source = PRIMES[:1]
    target = PRIMES[1:3]
    values = [int(v) for v in rng.integers(0, source[0], N)]
    out = get_backend().bconv(_residues(values, source), source, target)
    for j, p in enumerate(target):
        assert out[j].tolist() == [v % p for v in values]


def test_modup_preserves_source_channels(rng):
    source = PRIMES[:3]
    special = PRIMES[3:5]
    x = np.stack(
        [rng.integers(0, q, N, dtype=np.uint64) for q in source]
    )
    up = get_backend().modup(x, source, special)
    assert up.shape == (5, N)
    assert np.array_equal(up[:3], x)


def test_moddown_inverts_modup_scaled(rng):
    """Moddown(Modup(x) * P) should recover x (exactly, since the P-channels vanish).

    We multiply the raised value by P exactly (per-channel scalars), then
    Moddown divides by P; the result must equal x plus a tiny rounding term.
    """
    source = PRIMES[:3]
    special = PRIMES[3:5]
    p_product = int(special[0]) * int(special[1])
    x = np.stack([rng.integers(0, q, N, dtype=np.uint64) for q in source])
    up = get_backend().modup(x, source, special)
    # scale by P in every channel
    from repro.ntmath.modular import mulmod

    scaled = np.empty_like(up)
    for i, q in enumerate(list(source) + list(special)):
        scaled[i] = mulmod(up[i], np.uint64(p_product % q), q)
    down = get_backend().moddown(scaled, source, special)
    # Moddown returns x + round(alpha*Q/P)-ish; alpha*Q/P error here shows up
    # as a small additive integer. Compare per channel allowing |err| <= L.
    for i, q in enumerate(source):
        diff = (down[i].astype(np.int64) - x[i].astype(np.int64)) % q
        diff = np.where(diff > q // 2, diff - q, diff)
        assert np.abs(diff).max() <= len(source) + len(special), i


def test_moddown_exact_for_multiples_of_p(rng):
    """A value that is exactly P*y (with y small) moddowns to exactly y."""
    source = PRIMES[:3]
    special = PRIMES[3:5]
    p_product = int(special[0]) * int(special[1])
    y = [int(v) for v in rng.integers(0, 1 << 20, N)]
    value = [p_product * v for v in y]
    x = _residues(value, list(source) + list(special))
    down = get_backend().moddown(x, source, special)
    for i, q in enumerate(source):
        assert down[i].tolist() == [v % q for v in y]


def test_moddown_channel_count_validation():
    with pytest.raises(ValueError):
        get_backend().moddown(np.zeros((3, N), dtype=np.uint64), PRIMES[:3], PRIMES[3:5])


def test_rescale_divides_by_last_prime(rng):
    primes = PRIMES[:4]
    last = int(primes[-1])
    y = [int(v) for v in rng.integers(0, 1 << 40, N)]
    value = [last * v for v in y]  # exactly divisible
    x = _residues(value, primes)
    out = get_backend().rescale(x, primes)
    assert out.shape == (3, N)
    for i, q in enumerate(primes[:-1]):
        assert out[i].tolist() == [v % q for v in y]


def test_rescale_rounding_error_bounded(rng):
    """For non-divisible values the result is floor-ish division: the error
    versus true division is below 1 in absolute value per channel."""
    primes = PRIMES[:3]
    last = int(primes[-1])
    values = [int(rng.integers(0, 1 << 55)) for _ in range(N)]
    x = _residues(values, primes)
    out = get_backend().rescale(x, primes)
    for i, q in enumerate(primes[:-1]):
        expected = [((v - (v % last)) // last) % q for v in values]
        assert out[i].tolist() == expected


def test_rescale_validations():
    with pytest.raises(ValueError):
        get_backend().rescale(np.zeros((1, N), dtype=np.uint64), PRIMES[:1])
    with pytest.raises(ValueError):
        get_backend().rescale(np.zeros((2, N), dtype=np.uint64), PRIMES[:3])
