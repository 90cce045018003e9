"""Tests for the heuristic security estimator."""

import pytest

from repro.analysis.security import (
    SecurityReport,
    check_params,
    estimate_security_bits,
    max_logq_128bit,
    paper_scale_parameters_are_secure,
)
from repro.ckks.params import CKKSParams
from repro.tfhe.params import PARAM_SET_I, TEST_PARAMS


def test_table_anchor_points():
    assert max_logq_128bit(4096) == 109
    assert max_logq_128bit(32768) == 881


def test_interpolation_monotone():
    values = [max_logq_128bit(n) for n in (1024, 3000, 4096, 10000, 65536)]
    assert values == sorted(values)


def test_extrapolation_edges():
    assert max_logq_128bit(512) == pytest.approx(27 / 2)
    assert max_logq_128bit(131072) == pytest.approx(2 * 1772)


def test_estimate_near_the_standard_line():
    """At each HE-standard (n, logQ) anchor the estimate is ~128 bits."""
    for n, logq in ((2048, 54), (8192, 218), (32768, 881)):
        bits = estimate_security_bits(n, logq)
        assert 110 < bits < 145, (n, bits)
    # half the modulus budget -> roughly double the security
    assert estimate_security_bits(8192, 109) == pytest.approx(
        2 * estimate_security_bits(8192, 218), rel=0.05)


def test_estimate_noise_correction():
    """Larger relative noise buys security at fixed (n, q) — the TFHE
    regime."""
    low_noise = estimate_security_bits(630, 32.0, sigma=3.2)
    tfhe_noise = estimate_security_bits(630, 32.0, sigma=3.05e-5 * 2**32)
    assert tfhe_noise > 1.5 * low_noise
    assert tfhe_noise > 120


def test_estimate_validation():
    with pytest.raises(ValueError):
        estimate_security_bits(1024, 0)
    with pytest.raises(ValueError):
        max_logq_128bit(0)


def test_toy_ckks_params_flagged():
    """Our functional test parameters must be loudly flagged as toy."""
    toy = CKKSParams(n=128, num_levels=4, dnum=2, hamming_weight=16)
    report = check_params(toy)
    assert not report.secure_128
    assert "TOY" in str(report)
    assert report.note  # sparse-secret warning


def test_tfhe_production_set():
    report = check_params(PARAM_SET_I)
    assert report.scheme == "TFHE"
    assert report.dimension == 630
    assert report.estimated_bits > 110  # production-grade TFHE-lib regime


def test_tfhe_test_set_flagged():
    report = check_params(TEST_PARAMS)
    assert not report.secure_128


def test_check_params_type_error():
    with pytest.raises(TypeError):
        check_params("not params")


def test_paper_scale_structural_claim():
    assert paper_scale_parameters_are_secure()


def test_report_rendering():
    report = SecurityReport("CKKS", 1024, 300.0, 11.5, False)
    text = str(report)
    assert "n=1024" in text and "TOY" in text
