"""Tests for the static verification layer (repro.compiler.verify)."""

import dataclasses

import pytest

from repro.compiler.bfv_programs import bfv_add_program, bfv_cmult_program
from repro.compiler.ckks_programs import (
    CKKSWorkload,
    bootstrapping_program,
    cmult_program,
    hadd_program,
    helr_iteration_program,
    keyswitch_program,
    lola_mnist_program,
    pmult_program,
    rescale_ops,
    rescale_program,
    rotation_program,
)
from repro.compiler.ops import HighLevelOp, OpKind, Program, ProgramGraph
from repro.compiler.passes import (
    CompileError,
    _check_ssa,
    _fusable,
    fuse_elementwise,
    insert_spills,
)
from repro.compiler.tfhe_programs import PBS_SET_I, pbs_batch_program
from repro.compiler.verify import (
    CODES,
    AnalysisContext,
    Diagnostic,
    HazardAnalysis,
    LevelScaleAnalysis,
    Linter,
    LivenessAnalysis,
    Severity,
    SlotPartitionAnalysis,
    StructureAnalysis,
    code_meaning,
    code_table_markdown,
    default_analyses,
    lint_program,
    schedule_diagnostics,
)
from repro.compiler.verify.base import forward
from repro.hw.config import ALCHEMIST_DEFAULT
from repro.sim.engine import EventDrivenSimulator

ALL_BUILDERS = (
    pmult_program, hadd_program, keyswitch_program, cmult_program,
    rotation_program, rescale_program, bootstrapping_program,
    helr_iteration_program, lola_mnist_program,
    lambda: lola_mnist_program(encrypted_weights=False),
    lambda: pbs_batch_program(PBS_SET_I), bfv_cmult_program,
    bfv_add_program,
)


def _ew(label, defs=(), uses=(), **kw):
    kw.setdefault("poly_degree", 1024)
    kw.setdefault("channels", 2)
    return HighLevelOp(OpKind.EW_ADD, label, defs=tuple(defs),
                       uses=tuple(uses), **kw)


def _spill(program):
    return insert_spills(program, ALCHEMIST_DEFAULT.total_onchip_bytes,
                         ALCHEMIST_DEFAULT.word_bytes)


# ----------------------------- diagnostics ------------------------------- #


def test_severity_comes_from_the_code_registry():
    d = Diagnostic("ALC101", "mismatch")
    assert d.severity == Severity.ERROR
    assert Diagnostic("ALC401", "dead").severity == Severity.NOTE
    assert Diagnostic("ALC105", "redundant").severity == Severity.WARNING


def test_diagnostic_format_and_dict_roundtrip():
    d = Diagnostic("ALC101", "scales differ", op_index=3, op_label="add",
                   values=("x", "y"))
    text = d.format()
    assert "ALC101" in text and "@op3(add)" in text and "x, y" in text
    as_dict = d.as_dict()
    assert as_dict["severity"] == "error"
    assert as_dict["values"] == ["x", "y"]


def test_code_registry_is_documented():
    table = code_table_markdown()
    for code in CODES:
        assert f"`{code}`" in table
    assert code_meaning("ALC001") != ""
    assert code_meaning("ALC999") == ""


def test_every_check_family_is_represented():
    families = {code[3] for code in CODES}
    assert {"0", "1", "2", "3", "4", "5"} <= families


# ----------------------------- framework --------------------------------- #


def test_all_shipped_workloads_lint_clean():
    for build in ALL_BUILDERS:
        report = lint_program(build())
        assert report.ok, report.format()
        assert not report.warnings, report.format()


def test_report_is_deterministically_ordered():
    prog = Program("p", inputs=("in",))
    prog.add(HighLevelOp(OpKind.NTT, "bad_ntt", poly_degree=0, channels=2,
                         defs=("a",), uses=("in",)))
    prog.add(_ew("orphan", defs=("b",), uses=("ghost",)))
    r1 = lint_program(prog)
    r2 = lint_program(prog)
    assert [d.as_dict() for d in r1.diagnostics] == \
        [d.as_dict() for d in r2.diagnostics]
    indices = [d.op_index for d in r1.diagnostics if d.op_index is not None]
    assert indices == sorted(indices)


def test_linter_stamps_analysis_and_program():
    prog = Program("stamped", inputs=("in",))
    prog.add(_ew("orphan", defs=("b",), uses=("ghost",)))
    report = Linter(default_analyses()).run(prog)
    assert report.diagnostics
    for d in report.diagnostics:
        assert d.program == "stamped"
        assert d.analysis != ""


def test_report_format_hides_notes_by_default():
    report = lint_program(keyswitch_program())
    assert report.ok
    assert report.notes          # peak-live-set advisory
    assert "clean (0 diagnostics)" in report.format()
    assert "ALC402" in report.format(show_notes=True)


# ----------------------------- structure --------------------------------- #


def test_structure_flags_cycle_and_shape():
    prog = Program("bad")
    prog.add(_ew("a", defs=("a",), uses=("b",)))
    prog.add(_ew("b", defs=("b",), uses=("a",)))
    prog.add(HighLevelOp(OpKind.NTT, "ntt0", poly_degree=0, channels=1))
    codes = lint_program(prog).codes()
    assert "ALC001" in codes
    assert "ALC003" in codes


def test_validation_diagnostics_matches_legacy_messages():
    prog = Program("bad")
    prog.add(HighLevelOp(OpKind.BCONV, "bc", poly_degree=1024,
                         in_channels=0, channels=2))
    diags = StructureAnalysis().run(prog, AnalysisContext())
    assert [d.code for d in diags] == ["ALC004"]
    assert "in_channels" in diags[0].message


# ------------------------------ forward walk ------------------------------ #


def test_forward_seeds_each_external_once_and_skips_hbm_ops():
    prog = Program("f", inputs=("ct", "key"))
    prog.add(HighLevelOp(OpKind.HBM_LOAD, "load", bytes_moved=64,
                         defs=("k",), uses=("key",)))
    prog.add(_ew("a", defs=("a",), uses=("ct", "k")))
    prog.add(_ew("b", defs=("b",), uses=("a", "ct")))
    seeded = []

    def seed(op):
        seeded.append(op.label)
        return 0

    steps = [(i, op.label, ins, out) for i, op, ins, out in forward(
        ProgramGraph(prog), seed, lambda op, ins: 1 + sum(ins))]
    # "ct" is seeded by its first reader only; the load and the value it
    # streams in carry no state
    assert seeded == ["a"]
    assert steps == [(1, "a", [0], 1), (2, "b", [1, 0], 2)]


def test_forward_yields_nothing_on_a_cycle():
    prog = Program("c")
    prog.add(_ew("x", defs=("x",), uses=("y",)))
    prog.add(_ew("y", defs=("y",), uses=("x",)))
    assert list(forward(ProgramGraph(prog), lambda op: 0,
                        lambda op, ins: 0)) == []


# ----------------------------- level / scale ------------------------------ #


def test_level_checker_accepts_legal_last_level_multiply():
    assert lint_program(cmult_program(level=1)).ok


def test_rescale_below_last_level_is_alc100():
    wl = CKKSWorkload()
    prog = Program("m", poly_degree=wl.n, inputs=("rs.in",))
    prog.extend(rescale_ops(wl, 0))
    assert "ALC100" in lint_program(prog).codes()


def test_scale_mismatch_at_add_is_alc101():
    prog = Program("m", inputs=("ct", "pt"))
    prog.add(HighLevelOp(OpKind.EW_MULT, "mul", poly_degree=1024, channels=4,
                         defs=("mul",), uses=("ct", "pt"), role="tensor"))
    prog.add(_ew("add", defs=("add",), uses=("mul", "ct"), channels=4))
    assert "ALC101" in lint_program(prog).codes()


def test_chain_mismatch_at_add_is_alc104():
    prog = Program("m", inputs=("ct",))
    prog.add(HighLevelOp(OpKind.EW_MULT, "hi", poly_degree=1024, channels=4,
                         defs=("hi",), uses=("ct",)))
    prog.add(HighLevelOp(OpKind.EW_MULT, "lo", poly_degree=1024, channels=2,
                         defs=("lo",), uses=("ct",)))
    prog.add(_ew("join", defs=("join",), uses=("hi", "lo"), channels=2))
    assert "ALC104" in lint_program(prog).codes()


def test_omitted_rescale_chain_is_alc102():
    prog = Program("m", inputs=("ct", "pt"))
    cur = ("ct", "pt")
    for i in range(3):
        prog.add(HighLevelOp(OpKind.EW_MULT, f"t{i}", poly_degree=1024,
                             channels=4, defs=(f"t{i}",), uses=cur,
                             role="tensor"))
        cur = (f"t{i}",)
    assert "ALC102" in lint_program(prog).codes()


def test_multiply_at_exhausted_chain_is_alc103():
    prog = Program("m", inputs=("ct", "pt"))
    prog.add(HighLevelOp(OpKind.EW_MULT, "mul", poly_degree=1024, channels=1,
                         defs=("mul",), uses=("ct", "pt"), role="tensor"))
    assert "ALC103" in lint_program(prog).codes()


def test_double_rescale_is_alc105_warning():
    prog = Program("m", inputs=("ct",))
    prog.add(HighLevelOp(OpKind.EW_MULT, "rs1", poly_degree=1024, channels=4,
                         defs=("rs1",), uses=("ct",), role="rescale"))
    prog.add(HighLevelOp(OpKind.EW_MULT, "rs2", poly_degree=1024, channels=4,
                         defs=("rs2",), uses=("rs1",), role="rescale"))
    report = lint_program(prog)
    assert report.ok                     # warning, not error
    assert "ALC105" in [d.code for d in report.warnings]


def test_unroled_programs_skip_ckks_checks():
    # TFHE/BFV builders carry no CKKS roles, so no level checks fire
    for build in (lambda: pbs_batch_program(PBS_SET_I), bfv_cmult_program):
        codes = lint_program(build()).codes()
        assert not [c for c in codes if c.startswith("ALC1")]


# ----------------------------- slot partition ----------------------------- #


def test_unpartitionable_degree_is_alc200():
    prog = Program("m", inputs=("x",))
    prog.add(HighLevelOp(OpKind.NTT, "ntt", poly_degree=48, channels=2,
                         defs=("a",), uses=("x",)))
    assert "ALC200" in lint_program(prog).codes()


def test_degree_change_without_transpose_is_alc201():
    prog = Program("m", inputs=("x",))
    prog.add(HighLevelOp(OpKind.NTT, "small", poly_degree=1024, channels=2,
                         defs=("a",), uses=("x",)))
    prog.add(HighLevelOp(OpKind.NTT, "big", poly_degree=2048, channels=2,
                         defs=("b",), uses=("a",)))
    assert "ALC201" in lint_program(prog).codes()


def test_transpose_is_the_permitted_layout_change():
    prog = Program("m", inputs=("x",))
    prog.add(HighLevelOp(OpKind.NTT, "small", poly_degree=1024, channels=2,
                         defs=("a",), uses=("x",)))
    prog.add(HighLevelOp(OpKind.TRANSPOSE, "t", poly_degree=2048, channels=2,
                         defs=("b",), uses=("a",)))
    prog.add(HighLevelOp(OpKind.NTT, "big", poly_degree=2048, channels=2,
                         defs=("c",), uses=("b",)))
    assert lint_program(prog).ok


# ----------------------------- liveness ----------------------------------- #


def test_use_of_undefined_value_is_alc301_with_declared_inputs():
    prog = Program("m", inputs=("in",))
    prog.add(_ew("op", defs=("a",), uses=("in", "ghost")))
    report = lint_program(prog)
    assert "ALC301" in report.codes()
    assert any("ghost" in d.message for d in report.errors)


def test_undeclared_inputs_keep_legacy_external_convention():
    prog = Program("m")                  # no declared inputs
    prog.add(_ew("op", defs=("a",), uses=("anything",)))
    assert "ALC301" not in lint_program(prog).codes()


def test_forward_reference_is_alc302():
    prog = Program("m", inputs=("in",))
    prog.add(_ew("late", defs=("x",), uses=("y",)))
    prog.add(_ew("early", defs=("y",), uses=("in",)))
    assert "ALC302" in lint_program(prog).codes()


def test_shadowed_dead_def_is_an_advisory_note():
    # w1's acc is overwritten by w2 before anyone reads it: the WAW edge
    # gives w1 a successor, yet its def is never consumed
    prog = Program("m", inputs=("in",))
    prog.add(_ew("w1", defs=("acc",), uses=("in",)))
    prog.add(_ew("w2", defs=("acc",), uses=("in",)))
    report = lint_program(prog)
    assert report.ok                     # advisory, not an error
    assert "ALC401" in [d.code for d in report.notes]


def test_terminal_and_consumed_defs_are_not_dead():
    prog = Program("m", inputs=("in",))
    prog.add(_ew("a", defs=("a", "a.out"), uses=("in",)))
    prog.add(_ew("b", defs=("b",), uses=("a",)))   # 'a.out' alias exempt
    assert "ALC401" not in lint_program(prog).codes()
    prog2 = Program("m2", inputs=("in",))
    prog2.add(_ew("a", defs=("a",), uses=("in",)))
    prog2.add(_ew("tail", defs=("unused",), uses=("a",)))
    # 'tail' is terminal: its defs are the program outputs
    assert "ALC401" not in lint_program(prog2).codes()


def test_peak_live_set_note_fires_on_keyswitch():
    report = lint_program(keyswitch_program())
    assert "ALC402" in [d.code for d in report.notes]
    assert report.ok


def test_spill_prediction_matches_spill_insertion_pass():
    for build in ALL_BUILDERS:
        program = build()
        predicted = {
            d.op_label
            for d in lint_program(program).notes if d.code == "ALC403"
        }
        spilled = _spill(program)
        actual = {
            op.label[:-len(".spill")]
            for op in spilled.ops
            if op.kind == OpKind.HBM_STORE and op.label.endswith(".spill")
        }
        assert predicted == actual, program.name


# ----------------------------- hazards ------------------------------------ #


def _two_op_chain():
    prog = Program("m", inputs=("in",))
    prog.add(_ew("a", defs=("a",), uses=("in",)))
    prog.add(_ew("b", defs=("b",), uses=("a",)))
    return prog


def test_schedule_respecting_edges_is_clean():
    prog = _two_op_chain()
    assert schedule_diagnostics(prog, [(0, 0.0, 5.0), (1, 5.0, 9.0)]) == []


def test_raw_hazard_is_alc500():
    prog = _two_op_chain()
    diags = schedule_diagnostics(prog, [(0, 0.0, 5.0), (1, 2.0, 9.0)])
    assert [d.code for d in diags] == ["ALC500"]


def test_waw_hazard_is_alc501():
    prog = Program("m", inputs=("in",))
    prog.add(_ew("w1", defs=("acc",), uses=("in",)))
    prog.add(_ew("w2", defs=("acc",), uses=("in",)))
    diags = schedule_diagnostics(prog, [(0, 0.0, 5.0), (1, 1.0, 6.0)])
    assert "ALC501" in [d.code for d in diags]


def test_war_hazard_is_alc502():
    prog = Program("m", inputs=("in",))
    prog.add(_ew("w1", defs=("acc",), uses=("in",)))
    prog.add(_ew("reader", defs=("r",), uses=("acc",)))
    prog.add(_ew("w2", defs=("acc",), uses=("in",)))
    # reader runs [5,9) but the redefinition starts at 7 < 9
    diags = schedule_diagnostics(
        prog, [(0, 0.0, 5.0), (1, 5.0, 9.0), (2, 7.0, 12.0)])
    assert "ALC502" in [d.code for d in diags]


def test_missing_op_in_schedule_is_alc504():
    prog = _two_op_chain()
    diags = schedule_diagnostics(prog, [(0, 0.0, 5.0)])
    assert [d.code for d in diags] == ["ALC504"]


def test_spill_without_fill_is_alc503():
    prog = Program("m", inputs=("in",))
    prog.add(HighLevelOp(OpKind.HBM_STORE, "big.spill", bytes_moved=100,
                         defs=("big.spill",), uses=("in",)))
    prog.add(_ew("big", defs=("big",), uses=("in", "big.spill")))
    report = lint_program(prog)
    assert "ALC503" in report.codes()


def test_spilled_program_passes_hazard_analysis():
    program = pbs_batch_program(PBS_SET_I)
    spilled = _spill(program)
    assert len(spilled.ops) > len(program.ops)
    assert HazardAnalysis().run(spilled, AnalysisContext()) == []


# ----------------------------- engine audit -------------------------------- #


def test_engine_audit_is_clean_for_every_workload():
    sim = EventDrivenSimulator()
    for build in ALL_BUILDERS:
        report = sim.run(build(), audit=True)
        assert report.diagnostics == []


def test_engine_audit_clean_across_policies_and_spills():
    sim = EventDrivenSimulator()
    programs = [_spill(pbs_batch_program(PBS_SET_I)), cmult_program()]
    for policy in ("fcfs", "round-robin", "priority"):
        report = sim.run_mix(programs, policy=policy, audit=True)
        assert report.diagnostics == [], policy


def test_engine_audit_off_by_default():
    report = EventDrivenSimulator().run(cmult_program())
    assert report.diagnostics == []


# ----------------------------- fusion integrity ----------------------------- #


def test_fusion_propagates_inputs_and_stays_lintable():
    program = cmult_program()
    fused = fuse_elementwise(program)
    assert len(fused.ops) < len(program.ops)
    assert fused.inputs == program.inputs
    assert lint_program(fused).ok


def test_fusion_does_not_merge_distinct_roles():
    a = HighLevelOp(OpKind.EW_MULT, "t", poly_degree=64, channels=1,
                    defs=("t",), uses=("x",), role="tensor")
    b = HighLevelOp(OpKind.EW_MULT, "rs", poly_degree=64, channels=1,
                    defs=("rs",), uses=("t",), role="rescale")
    assert not _fusable(a, b, {"t": 1, "x": 1})


def test_fusion_ssa_recheck_catches_orphans():
    broken = Program("orphaned", inputs=("in",))
    broken.add(_ew("op", defs=("a",), uses=("ghost",)))
    with pytest.raises(CompileError) as exc:
        _check_ssa(broken)
    assert any(d.code == "ALC301" for d in exc.value.diagnostics)


def test_fusion_ssa_recheck_catches_forward_uses():
    scrambled = Program("scrambled", inputs=("in",))
    scrambled.add(_ew("early", defs=("b",), uses=("a",)))
    scrambled.add(_ew("late", defs=("a",), uses=("in",)))
    with pytest.raises(CompileError) as exc:
        _check_ssa(scrambled)
    assert [d.code for d in exc.value.diagnostics] == ["ALC302"]


def test_fusion_ssa_recheck_ignores_advisory_findings():
    """A dead def (ALC401), a peak live set (ALC402) and an op past the
    on-chip capacity (ALC403) are notes, not broken def/use integrity."""
    advisory = Program("advisory", inputs=("in",))
    advisory.add(_ew("w1", defs=("acc",), uses=("in",)))
    advisory.add(_ew("w2", defs=("acc",), uses=("in",)))
    advisory.add(_ew("big", defs=("out",), uses=("in",),
                     poly_degree=1 << 16, channels=1024))
    codes = [d.code for d in LivenessAnalysis().run(advisory,
                                                    AnalysisContext())]
    assert sorted(codes) == ["ALC401", "ALC402", "ALC403"]
    _check_ssa(advisory)


def test_fused_workloads_lint_clean():
    for build in ALL_BUILDERS:
        fused = fuse_elementwise(build())
        report = lint_program(fused)
        assert report.ok, f"{fused.name}: {report.format()}"


# ----------------------------- analysis isolation --------------------------- #


def test_analyses_never_mutate_the_program():
    program = cmult_program()
    snapshot = [dataclasses.replace(op) for op in program.ops]
    lint_program(program)
    assert program.ops == snapshot
    assert program.inputs == ("ct_a", "ct_b")


def test_single_analysis_runs_standalone():
    report = lint_program(cmult_program(),
                          analyses=[LevelScaleAnalysis()])
    assert report.ok
    assert report.diagnostics == []
    report2 = lint_program(keyswitch_program(),
                           analyses=[LivenessAnalysis()])
    assert "ALC402" in [d.code for d in report2.notes]


def test_structure_and_partition_standalone():
    prog = Program("m", inputs=("x",))
    prog.add(HighLevelOp(OpKind.NTT, "ntt", poly_degree=48, channels=2,
                         defs=("a",), uses=("x",)))
    assert lint_program(prog, analyses=[StructureAnalysis()]).ok
    assert not lint_program(prog, analyses=[SlotPartitionAnalysis()]).ok
