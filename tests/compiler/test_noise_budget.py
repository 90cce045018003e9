"""Unit tests for the noise-budget abstract domains (ALC7xx).

The differential harness proves the model against real executions and
the mutation corpus proves the diagnostics reachable; this file pins
the *mechanics*: the log-domain helpers, the per-scheme transfer
functions (including the CKKS level/overflow axis and the BFV wrap
terms), metadata gating, and the diagnose decision tree.
"""

import math

import pytest

from repro.compiler.ops import HighLevelOp, OpKind, Program
from repro.compiler.verify import Linter
from repro.compiler.verify.noise import (
    NoiseBudgetAnalysis,
    NoiseState,
    _BFVDomain,
    _CKKSDomain,
    _TFHEDomain,
    noise_domain,
    rss_log2,
    sum_log2,
)

CKKS_META = {
    "scheme": "ckks", "n": 512, "scale_bits": 35, "first_prime_bits": 41,
    "sigma": 3.2, "hamming_weight": 32, "dnum": 2, "num_levels": 4,
    "value_bound": 0.5, "pt_bound": 1.0, "tolerance": 0.05,
}
BFV_META = {
    "scheme": "bfv", "n": 64, "log2_q": 108.0, "log2_t": 17.0,
    "sigma": 3.2, "dnum": 2,
}
TFHE_META = {
    "scheme": "tfhe", "lwe_dim": 630, "ring_degree": 1024, "bg_bit": 7,
    "decomp_length": 3, "ks_base_bit": 2, "ks_length": 8,
    "lwe_noise_std": 3.05e-5, "ring_noise_std": 3.73e-9,
}


def _op(kind=OpKind.EW_MULT, role=None, label="op", uses=("a",)):
    return HighLevelOp(kind, label, poly_degree=512, channels=1, polys=2,
                       defs=(label,), uses=tuple(uses), role=role)


# ------------------------------ helpers --------------------------------- #


@pytest.mark.parametrize("a,b", [(0.0, 0.0), (10.0, 3.0), (-5.0, -80.0)])
def test_rss_log2_matches_linear_domain(a, b):
    expected = math.log2(math.sqrt(4.0 ** a + 4.0 ** b))
    assert rss_log2(a, b) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("a,b", [(0.0, 0.0), (10.0, 3.0), (-5.0, -80.0)])
def test_sum_log2_matches_linear_domain(a, b):
    expected = math.log2(2.0 ** a + 2.0 ** b)
    assert sum_log2(a, b) == pytest.approx(expected, abs=1e-9)


def test_log_helpers_saturate_instead_of_overflowing():
    assert rss_log2(0.0, -500.0) == 0.0
    assert sum_log2(300.0, -300.0) == 300.0


# --------------------------- metadata gating ----------------------------- #


def test_unannotated_program_is_skipped():
    prog = Program("plain", poly_degree=512, inputs=("x",))
    prog.add(_op(uses=("x",)))
    assert NoiseBudgetAnalysis.program_headroom_bits(prog) is None
    assert Linter([NoiseBudgetAnalysis()]).run(prog).diagnostics == []


def test_unknown_scheme_is_skipped():
    assert noise_domain({"scheme": "bgv"}) is None
    assert noise_domain({"scheme": 42}) is None


def test_known_schemes_resolve():
    assert isinstance(noise_domain(CKKS_META), _CKKSDomain)
    assert isinstance(noise_domain(BFV_META), _BFVDomain)
    assert isinstance(noise_domain(TFHE_META), _TFHEDomain)


def test_malformed_metadata_values_fall_back_to_defaults():
    domain = noise_domain(dict(CKKS_META, n="huge", tolerance=None))
    assert domain.n == 1 << 15          # default, not a crash
    assert domain.tolerance == 0.05


# ----------------------------- CKKS domain ------------------------------- #


def test_ckks_fresh_starts_at_top_level():
    domain = _CKKSDomain(CKKS_META)
    state = domain.fresh()
    assert state.level == 4.0
    assert state.scale_units == 1.0
    assert state.seeded


def test_ckks_rescale_spends_a_level_and_a_scale_unit():
    domain = _CKKSDomain(CKKS_META)
    prod = NoiseState(noise=-30.0, scale_units=2.0, log2_bound=0.0,
                      seeded=False, level=4.0)
    out = domain.transfer(_op(role="rescale"), [prod])
    assert out.level == 3.0
    assert out.scale_units == 1.0
    assert not out.seeded


def test_ckks_seeded_rescale_widens_instead_of_destroying_precision():
    domain = _CKKSDomain(CKKS_META)
    seeded = domain.fresh()
    assert seeded.scale_units == 1.0
    out = domain.transfer(_op(role="rescale"), [seeded])
    # a rescale on a seed proves the seed really sat at >= Delta^2
    assert out.scale_units == 1.0
    assert not out.seeded


def test_ckks_modraise_resets_noise_and_level_but_keeps_bound():
    domain = _CKKSDomain(CKKS_META)
    deep = NoiseState(noise=10.0, scale_units=1.0, log2_bound=7.0,
                      seeded=False, level=0.0)
    out = domain.transfer(_op(role="modraise"), [deep])
    assert out.level == 4.0
    assert out.log2_bound == 7.0
    assert out.noise < deep.noise


def test_ckks_headroom_is_min_of_noise_and_overflow_axes():
    domain = _CKKSDomain(CKKS_META)
    # tiny noise, huge carried value at the bottom level: the overflow
    # axis must dominate even though the noise axis is comfortable
    state = NoiseState(noise=-60.0, scale_units=1.0, log2_bound=20.0,
                       seeded=False, level=0.0)
    headroom = domain.headroom_bits(state)
    overflow = (41.0 - 1.0) - (20.0 + 35.0)
    assert headroom == pytest.approx(overflow)
    assert headroom < 0.0


def test_ckks_overflow_axis_relaxes_with_level():
    domain = _CKKSDomain(CKKS_META)
    lo = NoiseState(noise=-60.0, scale_units=1.0, log2_bound=5.0,
                    seeded=False, level=0.0)
    hi = NoiseState(noise=-60.0, scale_units=1.0, log2_bound=5.0,
                    seeded=False, level=4.0)
    assert domain.headroom_bits(hi) > domain.headroom_bits(lo)


def test_ckks_add_role_sums_value_bounds():
    domain = _CKKSDomain(CKKS_META)
    a = NoiseState(noise=-30.0, scale_units=1.0, log2_bound=3.0, level=4.0)
    b = NoiseState(noise=-30.0, scale_units=1.0, log2_bound=3.0, level=4.0)
    summed = domain.transfer(
        _op(OpKind.EW_ADD, role="add", uses=("a", "b")), [a, b])
    folded = domain.transfer(
        _op(OpKind.EW_ADD, role=None, uses=("a", "b")), [a, b])
    assert summed.log2_bound == pytest.approx(4.0)   # 8 + 8 = 16
    assert folded.log2_bound == pytest.approx(3.0)   # plumbing keeps max


# ------------------------------ BFV domain ------------------------------- #


def test_bfv_tensor_has_noise_independent_rounding_floor():
    domain = _BFVDomain(BFV_META)
    tiny = NoiseState(noise=-300.0)
    out = domain.transfer(_op(role="tensor"), [tiny])
    # Delta-rounding floor n * t^2: log2(64) + 2 * 17 = 40 bits
    assert out.noise == pytest.approx(40.0, abs=0.1)


def test_bfv_add_carries_message_wrap_term():
    domain = _BFVDomain(BFV_META)
    tiny = NoiseState(noise=-300.0)
    out = domain.transfer(
        _op(OpKind.EW_ADD, role="add", uses=("a", "b")), [tiny, tiny])
    # wrap of m mod t leaves a (q mod t) < t term: 17 bits
    assert out.noise == pytest.approx(17.0, abs=0.1)


def test_bfv_headroom_matches_decryptor_budget_line():
    domain = _BFVDomain(BFV_META)
    state = NoiseState(noise=30.0)
    assert domain.headroom_bits(state) == pytest.approx(108.0 - 17.0 - 1.0
                                                        - 30.0)


# ------------------------------ TFHE domain ------------------------------ #


def test_tfhe_pbs_output_is_independent_of_input_noise():
    domain = _TFHEDomain(TFHE_META)
    clean = NoiseState(noise=1e-12)
    dirty = NoiseState(noise=1e-2)
    op = _op(OpKind.DECOMP_POLY_MULT, role="pbs")
    assert domain.transfer(op, [clean]).noise == \
        domain.transfer(op, [dirty]).noise


def test_tfhe_lincomb_weight_defaults_to_gate_weight_two():
    domain = _TFHEDomain(TFHE_META)
    state = NoiseState(noise=1e-10)
    out = domain.transfer(_op(OpKind.EW_ADD, role="lincomb"), [state])
    assert out.noise == pytest.approx(2e-10)


def test_tfhe_lincomb_weight_is_label_addressable():
    domain = _TFHEDomain(dict(TFHE_META,
                              lincomb_weights={"dot": 64.0}))
    state = NoiseState(noise=1e-10)
    out = domain.transfer(
        _op(OpKind.EW_ADD, role="lincomb", label="dot"), [state])
    assert out.noise == pytest.approx(6.4e-9)


def test_tfhe_keyswitch_adds_key_dependent_variance():
    domain = _TFHEDomain(TFHE_META)
    state = NoiseState(noise=1e-10)
    out = domain.transfer(_op(OpKind.EW_ADD, role="lwe-keyswitch"), [state])
    assert out.noise == pytest.approx(
        1e-10 + domain.params.keyswitch_variance())


# --------------------------- diagnose paths ------------------------------ #


def _annotated_chain(meta, steps):
    prog = Program("chain", poly_degree=512, inputs=("x0",),
                   metadata={"noise": dict(meta)})
    cur = "x0"
    for i, role in enumerate(steps):
        label = f"s{i}"
        # channels=3: leave modulus chain for the *structural* levels
        # check (ALC103), so only the noise family can fire
        prog.add(HighLevelOp(OpKind.EW_MULT, label, poly_degree=512,
                             channels=3, polys=2, defs=(label,),
                             uses=(cur,), role=role))
        cur = label
    return prog


def test_exhausted_program_draws_alc701_and_always_alc704():
    prog = _annotated_chain(dict(CKKS_META, tolerance=1e-12),
                            ["pmult", "rescale"])
    codes = [d.code for d in
             Linter([NoiseBudgetAnalysis()]).run(prog).diagnostics]
    assert "ALC701" in codes
    assert "ALC704" in codes
    assert "ALC702" not in codes       # error and warning never co-fire


def test_marginal_program_draws_alc702_not_alc701():
    meta = dict(BFV_META, log2_q=60.0)  # ~2 bits of headroom after mult
    prog = _annotated_chain(meta, ["tensor", "keyswitch"])
    codes = [d.code for d in
             Linter([NoiseBudgetAnalysis()]).run(prog).diagnostics]
    assert "ALC702" in codes
    assert "ALC701" not in codes


def test_clean_program_draws_only_the_headroom_note():
    prog = _annotated_chain(BFV_META, ["tensor", "keyswitch"])
    codes = [d.code for d in
             Linter([NoiseBudgetAnalysis()]).run(prog).diagnostics]
    assert codes == ["ALC704"]


def test_diagnostics_point_at_the_offending_op():
    prog = _annotated_chain(dict(CKKS_META, tolerance=1e-12),
                            ["pmult", "rescale"])
    report = Linter([NoiseBudgetAnalysis()]).run(prog)
    err = next(d for d in report.diagnostics if d.code == "ALC701")
    assert err.op_label in ("s0", "s1")
    assert err.op_index is not None


def test_program_headroom_bits_equals_worst_alc704_note():
    prog = _annotated_chain(BFV_META, ["tensor", "keyswitch", "tensor"])
    report = Linter([NoiseBudgetAnalysis()]).run(prog)
    note = next(d for d in report.diagnostics if d.code == "ALC704")
    headroom = NoiseBudgetAnalysis.program_headroom_bits(prog)
    assert f"{headroom:.1f}" in note.message

