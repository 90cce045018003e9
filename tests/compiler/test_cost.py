"""Tests for the static cost analyzer (`repro.compiler.cost`).

Three layers of guarantees:

* golden per-op cost tables at paper scale (N = 2^16, 44 levels,
  dnum = 4) pin the Table 7 anchors — keyswitch-class operators are
  HBM-bound at ~135 us from evaluation-key streaming;
* differential equivalence: static totals equal the cycle simulator
  exactly (shared cost model) and bracket the event-driven engine, on
  every shipped workload and on hypothesis-random programs;
* the ALC6xx diagnostic family fires on the facts the analyzer proves
  (critical-path HBM ops, scratchpad overflow, idle lanes, profitable
  fusions) and stays advisory (NOTE) so shipped workloads lint clean.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.bfv_programs import bfv_cmult_program
from repro.compiler.ckks_programs import (
    bootstrapping_program,
    cmult_program,
    hadd_program,
    helr_iteration_program,
    keyswitch_program,
    lola_mnist_program,
    pmult_program,
    rotation_program,
)
from repro.compiler.cost import (
    BOUND_PRIORITY,
    ResourceBound,
    analyze_program,
    classify_bound,
    cost_op,
    differential_check,
    format_roofline,
    roofline_points,
)
from repro.compiler.ops import HighLevelOp, OpKind, Program
from repro.compiler.tfhe_programs import PBS_SET_I, pbs_batch_program
from repro.compiler.verify import CostAnalysis, Severity, lint_program
from repro.hw.config import ALCHEMIST_DEFAULT
from repro.sim.simulator import CycleSimulator

ALL_BUILDERS = (
    pmult_program, hadd_program, keyswitch_program, cmult_program,
    rotation_program, bootstrapping_program, helr_iteration_program,
    lola_mnist_program, bfv_cmult_program,
    lambda: pbs_batch_program(PBS_SET_I, batch=128),
)

#: The evaluation key of the paper-scale hybrid keyswitch: dnum x 2 polys
#: x (L + k) channels x N words — 134.5 MB streamed at 1 TB/s = ~135 us.
EVK_HBM_CYCLES = 134479.872


# ------------------------- tie-break (satellite) ------------------------- #


class TestClassifyBound:
    def test_priority_order(self):
        assert BOUND_PRIORITY == ("hbm", "sram", "compute")

    def test_clear_winners(self):
        assert classify_bound(10.0, 1.0, 1.0) == "compute"
        assert classify_bound(1.0, 10.0, 1.0) == "sram"
        assert classify_bound(1.0, 1.0, 10.0) == "hbm"

    def test_all_zero_is_free(self):
        assert classify_bound(0.0, 0.0, 0.0) == "free"
        assert ResourceBound().bottleneck == "free"

    def test_three_way_tie_resolves_to_hbm(self):
        assert classify_bound(5.0, 5.0, 5.0) == "hbm"

    def test_two_way_ties_follow_priority(self):
        # a ridge point is bandwidth-bound: bandwidth wins over compute,
        # and the scarcer off-chip bandwidth wins over on-chip
        assert classify_bound(5.0, 5.0, 1.0) == "sram"
        assert classify_bound(5.0, 1.0, 5.0) == "hbm"
        assert classify_bound(1.0, 5.0, 5.0) == "hbm"

    def test_resource_bound_delegates(self):
        rb = ResourceBound(compute_cycles=7.0, sram_cycles=7.0,
                           hbm_cycles=7.0)
        assert rb.bottleneck == "hbm"
        assert rb.serialized_cycles == 7.0

    def test_no_ties_in_shipped_workloads(self):
        """The tie-break is latent for every shipped program (which is why
        changing it never moved a BENCH golden)."""
        for builder in ALL_BUILDERS:
            report = analyze_program(builder())
            for row in report.rows:
                c = row.cost
                nonzero = [x for x in (c.compute_cycles, c.sram_cycles,
                                       c.hbm_cycles) if x > 0]
                assert len(nonzero) == len(set(nonzero)), row.label


# --------------------- golden tables at paper scale ---------------------- #


class TestPaperScaleGoldens:
    """Table 7 anchors, statically predicted (no simulation)."""

    @pytest.mark.parametrize("builder", (keyswitch_program, cmult_program,
                                         rotation_program),
                             ids=("keyswitch", "cmult", "rotation"))
    def test_keyswitch_class_hbm_bound_at_135us(self, builder):
        report = analyze_program(builder())
        assert report.bottleneck == "hbm"
        assert report.totals.hbm_cycles == pytest.approx(EVK_HBM_CYCLES)
        # ~135 us at 1 GHz: the paper's Table 7 keyswitch-class latency
        assert report.seconds * 1e6 == pytest.approx(134.48, abs=0.01)

    def test_bootstrap_hbm_bound(self):
        report = analyze_program(bootstrapping_program())
        assert report.bottleneck == "hbm"
        # dozens of keyswitches: evk streaming dominates end to end
        assert report.totals.hbm_cycles > 50 * EVK_HBM_CYCLES

    def test_pmult_compute_hadd_sram(self):
        assert analyze_program(pmult_program()).bottleneck == "compute"
        assert analyze_program(hadd_program()).bottleneck == "sram"

    def test_keyswitch_per_op_golden_table(self):
        report = analyze_program(keyswitch_program())
        got = {r.label: (r.bound, r.cost.compute_cycles, r.cost.meta_ops)
               for r in report.rows}
        golden = {
            "ks.intt_in": ("compute", 5661.0, 2027520),
            "ks.modup0": ("compute", 2826.0, 466944),
            "ks.ntt_up0": ("compute", 5661.0, 2027520),
            "ks.evk": ("hbm", 0.0, 0),
            "ks.inner": ("sram", 3146.4, 933888),
            "ks.intt_down": ("compute", 14341.2, 5136384),
            "ks.moddown": ("compute", 5652.0, 933888),
            "ks.ntt_out": ("compute", 11322.0, 4055040),
        }
        for label, (bound, compute, meta_ops) in golden.items():
            assert got[label][0] == bound, label
            assert got[label][1] == pytest.approx(compute), label
            assert got[label][2] == meta_ops, label
        evk = next(r for r in report.rows if r.label == "ks.evk")
        assert evk.cost.hbm_cycles == pytest.approx(EVK_HBM_CYCLES)
        assert evk.critical  # the evk stream sits on the critical path

    def test_keyswitch_totals_golden(self):
        report = analyze_program(keyswitch_program())
        t = report.totals
        assert t.compute_cycles == pytest.approx(75454.8)
        assert t.sram_cycles == pytest.approx(34006.59904306219)
        assert t.hbm_cycles == pytest.approx(EVK_HBM_CYCLES)
        assert report.serialized_cycles == pytest.approx(212714.01668899524)
        assert report.critical_path_cycles == pytest.approx(
            173160.81668899523)
        assert report.total_meta_ops == 23937024


# ------------------------ differential validation ------------------------ #


@pytest.mark.parametrize("builder", ALL_BUILDERS,
                         ids=lambda b: getattr(b, "__name__", "pbs"))
def test_differential_check_all_workloads(builder):
    """Static == simulator exactly; engine within the static bracket."""
    program = builder()
    check = differential_check(program, analyze_program(program))
    assert check.exact, check.format()
    assert check.engine_within_bounds, check.format()
    assert check.ok


def test_static_totals_equal_simulator(sim=None):
    sim = CycleSimulator()
    for builder in ALL_BUILDERS:
        prog = builder()
        static = analyze_program(prog)
        report = sim.run(prog)
        assert static.serialized_cycles == report.serialized_cycles
        assert static.pipelined_cycles == report.pipelined_cycles
        assert static.bottleneck == report.bottleneck
        assert static.totals.compute_cycles == report.total_compute_cycles
        assert static.totals.sram_cycles == report.total_sram_cycles
        assert static.totals.hbm_cycles == report.total_hbm_cycles


@st.composite
def random_programs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    prog = Program("rand")
    for i in range(n):
        uses = draw(st.lists(st.integers(min_value=0, max_value=max(0, i - 1)),
                             max_size=2, unique=True)) if i else []
        kind = draw(st.sampled_from((OpKind.EW_MULT, OpKind.EW_ADD,
                                     OpKind.NTT, OpKind.HBM_LOAD)))
        if kind == OpKind.HBM_LOAD:
            op = HighLevelOp(kind, f"op{i}",
                             bytes_moved=draw(st.integers(0, 1 << 22)),
                             defs=(f"v{i}",),
                             uses=tuple(f"v{j}" for j in uses))
        else:
            op = HighLevelOp(kind, f"op{i}", poly_degree=64,
                             channels=draw(st.integers(1, 32)),
                             defs=(f"v{i}",),
                             uses=tuple(f"v{j}" for j in uses))
        prog.add(op)
    return prog


@given(random_programs())
@settings(max_examples=60, deadline=None)
def test_static_matches_simulator_on_random_programs(prog):
    """The ISSUE's property: static_total == serialized_sim_total."""
    static = analyze_program(prog)
    report = CycleSimulator().run(prog)
    assert static.serialized_cycles == report.serialized_cycles
    assert static.pipelined_cycles == report.pipelined_cycles
    assert static.bottleneck == report.bottleneck


@given(random_programs())
@settings(max_examples=30, deadline=None)
def test_differential_check_on_random_programs(prog):
    assert differential_check(prog, analyze_program(prog)).ok


def test_differential_check_reports_a_drifted_simulator(monkeypatch):
    """A simulator that charges different cost records than the static
    analyzer fails the check, names the drifted field, and makes
    ``repro analyze --check`` exit 1."""
    from dataclasses import replace

    import repro.sim.simulator as simulator
    from repro import cli

    def drifted(op, config):
        cost = cost_op(op, config)
        if cost.hbm_cycles:
            return replace(cost, hbm_cycles=2 * cost.hbm_cycles)
        return cost

    monkeypatch.setattr(simulator, "cost_op", drifted)
    program = keyswitch_program()
    check = differential_check(program, analyze_program(program))
    assert not check.exact
    assert not check.ok
    assert any(m.startswith("ks.evk.hbm_cycles:") for m in check.mismatches)
    assert cli.main(["analyze", "keyswitch", "--check"]) == 1


def test_differential_check_rejects_another_programs_report():
    """The static side comes from the caller: a report of another
    program, or one missing ops, must not be zipped against this one."""
    from dataclasses import replace

    program = keyswitch_program()
    with pytest.raises(ValueError, match="does not describe"):
        differential_check(program, analyze_program(cmult_program()))
    report = analyze_program(program)
    with pytest.raises(ValueError, match="does not describe"):
        differential_check(program, replace(report, rows=report.rows[:-1]))


@pytest.mark.parametrize("argv, per_program", [
    (("analyze", "--check", "--json"), 1),
    (("analyze", "--compressed", "--check", "--json"), 2),
    (("lint",), 1),
])
def test_each_command_builds_one_report_per_program_and_config(
        monkeypatch, capsys, argv, per_program):
    """``repro analyze`` reads its printed report, the ``--compressed``
    baseline, the ALC605 baseline and the static side of ``--check``
    from the lint run's context: one ``analyze_program`` call per
    (program, config) per command."""
    import collections
    import sys

    import repro.compiler.verify  # noqa: F401  (binds analyze_program)
    from repro import cli
    from repro.compiler.cost import analyzer

    original = analyzer.analyze_program
    calls = collections.Counter()

    def counting(program, *args, **kwargs):
        calls[program.name] += 1
        return original(program, *args, **kwargs)

    # wrap it in every module that imported it by name
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    assert cli.main(list(argv)) == 0
    capsys.readouterr()
    assert len(calls) == 12
    assert set(calls.values()) == {per_program}


# --------------------- critical path / peak occupancy -------------------- #


class TestGraphFacts:
    def test_chain_critical_path_is_serialized_total(self):
        prog = Program("chain")
        for i in range(4):
            prog.add(HighLevelOp(OpKind.EW_MULT, f"c{i}", poly_degree=1024,
                                 defs=(f"v{i}",),
                                 uses=(f"v{i - 1}",) if i else ()))
        report = analyze_program(prog)
        assert report.critical_path_cycles == pytest.approx(
            report.serialized_cycles)
        assert report.critical_path == (0, 1, 2, 3)

    def test_independent_ops_critical_path_is_max(self):
        prog = Program("par")
        for i in range(4):
            prog.add(HighLevelOp(OpKind.EW_MULT, f"p{i}",
                                 poly_degree=1024 * (i + 1),
                                 defs=(f"v{i}",)))
        report = analyze_program(prog)
        worst = max(r.cost.serialized_cycles for r in report.rows)
        assert report.critical_path_cycles == pytest.approx(worst)
        assert len(report.critical_path) == 1

    def test_critical_path_bracket(self):
        for builder in ALL_BUILDERS:
            report = analyze_program(builder())
            worst = max(r.cost.serialized_cycles for r in report.rows)
            assert (worst - 1e-9 <= report.critical_path_cycles
                    <= report.serialized_cycles + 1e-9)
            assert report.schedule_lower_bound_cycles == pytest.approx(
                max(report.pipelined_cycles, report.critical_path_cycles))

    def test_peak_occupancy_two_live_values(self):
        from repro.compiler.verify import value_bytes

        prog = Program("occ")
        prog.add(HighLevelOp(OpKind.EW_MULT, "a", poly_degree=4096,
                             channels=4, defs=("va",)))
        prog.add(HighLevelOp(OpKind.EW_MULT, "b", poly_degree=4096,
                             channels=4, defs=("vb",)))
        prog.add(HighLevelOp(OpKind.EW_ADD, "c", poly_degree=4096,
                             channels=4, defs=("vc",), uses=("va", "vb")))
        report = analyze_program(prog)
        wb = ALCHEMIST_DEFAULT.word_bytes
        per = value_bytes(prog.ops[0], wb)
        # at op c, all of va/vb/vc are live
        assert report.peak_occupancy_bytes == per * 3
        assert report.peak_occupancy_index == 2

    def test_keyswitch_peak_occupancy_exceeds_capacity(self):
        report = analyze_program(keyswitch_program())
        assert report.peak_occupancy_bytes == 87588864
        assert (report.peak_occupancy_bytes
                > ALCHEMIST_DEFAULT.total_onchip_bytes)


# ------------------------------- roofline -------------------------------- #


class TestRoofline:
    def test_points_include_program_last(self):
        report = analyze_program(keyswitch_program())
        points = roofline_points(report)
        assert len(points) == len(report.rows) + 1
        assert points[-1].name == "keyswitch"
        assert points[-1].bound == "hbm"

    def test_streaming_op_has_zero_intensity(self):
        report = analyze_program(keyswitch_program())
        evk = next(p for p in roofline_points(report) if p.name == "ks.evk")
        assert evk.intensity_hbm == 0.0
        assert evk.lane_ops == 0.0
        # pure streaming sits far below the HBM ridge point
        assert evk.intensity_hbm < ALCHEMIST_DEFAULT.hbm_ridge_intensity

    def test_compute_ops_near_peak(self):
        report = analyze_program(keyswitch_program())
        ntt = next(p for p in roofline_points(report)
                   if p.name == "ks.intt_in")
        assert ntt.bound == "compute"
        assert 0.8 < ntt.peak_fraction <= 1.0

    def test_ridge_points(self):
        c = ALCHEMIST_DEFAULT
        assert c.peak_lane_ops_per_cycle == c.total_mult_lanes
        assert c.hbm_ridge_intensity == pytest.approx(
            c.total_mult_lanes / c.hbm_bytes_per_cycle)
        assert c.sram_ridge_intensity == pytest.approx(
            c.total_mult_lanes / c.onchip_bytes_per_cycle)

    def test_format_roofline_renders(self):
        text = format_roofline(analyze_program(keyswitch_program()))
        assert "ridge intensity" in text
        assert "ks.evk" in text


# ---------------------------- ALC6xx family ------------------------------ #


def _diags(program, codes=None):
    report = lint_program(program)
    out = [d for d in report.diagnostics if d.code.startswith("ALC6")]
    if codes is not None:
        out = [d for d in out if d.code in codes]
    return out


class TestCostDiagnostics:
    def test_alc601_keyswitch_evk(self):
        found = _diags(keyswitch_program(), {"ALC601"})
        assert len(found) == 1
        assert found[0].op_label == "ks.evk"
        assert found[0].severity == Severity.NOTE
        assert "135" in found[0].message or "134" in found[0].message

    def test_alc602_keyswitch_overflow(self):
        found = _diags(keyswitch_program(), {"ALC602"})
        assert len(found) == 1
        assert "87.6" in found[0].message

    def test_alc602_absent_when_fits(self):
        assert _diags(pmult_program(), {"ALC602"}) == []

    def test_alc603_underutilized_lanes(self):
        prog = Program("tiny")
        prog.add(HighLevelOp(OpKind.NTT, "tiny_ntt", poly_degree=64,
                             channels=1, defs=("t",)))
        found = _diags(prog, {"ALC603"})
        assert len(found) == 1
        assert found[0].op_label == "tiny_ntt"

    def test_alc603_absent_at_full_utilization(self):
        assert _diags(pmult_program(), {"ALC603"}) == []

    def test_alc603_threshold_configurable(self):
        prog = keyswitch_program()
        strict = CostAnalysis(utilization_threshold=1.0)
        loose = CostAnalysis(utilization_threshold=0.01)
        strict_603 = [d for d in lint_program(prog, analyses=(strict,))
                      .diagnostics if d.code == "ALC603"]
        loose_603 = [d for d in lint_program(prog, analyses=(loose,))
                     .diagnostics if d.code == "ALC603"]
        assert len(strict_603) > len(loose_603)
        with pytest.raises(ValueError):
            CostAnalysis(utilization_threshold=0.0)

    def test_alc604_fusion_opportunity(self):
        found = _diags(keyswitch_program(), {"ALC604"})
        assert len(found) == 1
        assert "md_sub" in found[0].message
        assert "847" in found[0].message

    def test_all_alc6_are_notes(self):
        for builder in ALL_BUILDERS:
            for d in _diags(builder()):
                assert d.severity == Severity.NOTE, d

    def test_workloads_stay_lint_clean(self):
        """ALC6xx must not break the 'shipped workloads are clean' bar."""
        for builder in ALL_BUILDERS:
            report = lint_program(builder())
            assert not report.errors and not report.warnings, report.format()

    def test_one_cost_report_per_lint_run(self, monkeypatch):
        """ALC6xx and ALC803 both read the run's one cost report."""
        import repro.compiler.verify.base as base

        calls = []

        def counting(*args):
            calls.append(args)
            return analyze_program(*args)

        monkeypatch.setattr(base, "analyze_program", counting)
        codes = lint_program(cmult_program()).codes()
        assert "ALC601" in codes and "ALC803" in codes
        assert len(calls) == 1

    def test_cost_model_failure_is_not_swallowed(self, monkeypatch):
        """Only an ill-formed program (``ValueError``) silences the cost
        and key-dominance notes; a fault inside the cost model surfaces
        instead of quietly dropping ALC601/602/604/803."""
        import repro.compiler.cost.analyzer as analyzer

        def broken(op, config):
            raise TypeError("cost model fault")

        monkeypatch.setattr(analyzer, "cost_op", broken)
        with pytest.raises(TypeError, match="cost model fault"):
            lint_program(cmult_program())


# ------------------------------ report API ------------------------------- #


class TestCostReportApi:
    def test_as_dict_round_trips_json(self):
        import json

        report = analyze_program(cmult_program())
        blob = json.dumps(report.as_dict(), sort_keys=True)
        back = json.loads(blob)
        assert back["program"] == "cmult"
        assert back["bottleneck"] == "hbm"
        assert len(back["ops"]) == len(report.rows)

    def test_summary_and_table_render(self):
        report = analyze_program(cmult_program())
        assert "hbm-bound" in report.summary()
        table = report.per_op_table()
        assert "tensor" in table and "crit" in table

    def test_bound_histogram_counts_rows(self):
        report = analyze_program(keyswitch_program())
        hist = report.bound_histogram()
        assert sum(hist.values()) == len(report.rows)
        assert hist["hbm"] == 1

    def test_cost_op_matches_analyzer_rows(self):
        prog = cmult_program()
        report = analyze_program(prog)
        for row, op in zip(report.rows, prog.ops):
            assert row.cost == cost_op(op, ALCHEMIST_DEFAULT)

    def test_cyclic_program_degrades_to_serialized(self):
        prog = Program("cyc")
        prog.add(HighLevelOp(OpKind.EW_MULT, "a", poly_degree=64,
                             defs=("va",), uses=("vb",)))
        prog.add(HighLevelOp(OpKind.EW_MULT, "b", poly_degree=64,
                             defs=("vb",), uses=("va",)))
        report = analyze_program(prog)
        assert report.critical_path_cycles == pytest.approx(
            report.serialized_cycles)
