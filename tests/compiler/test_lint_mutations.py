"""Mutation corpus for the static verifier.

Each entry seeds one realistic defect into a shipped workload (or a
minimal synthetic program) and asserts the linter flags it with the
expected diagnostic code.  Hypothesis properties then drive randomized
versions of the same mutations: every builder stays clean across legal
workload shapes, and every random corruption is caught.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.bfv_programs import bfv_add_program, bfv_cmult_program
from repro.compiler.ckks_programs import (
    CKKSWorkload,
    cmult_program,
    hadd_program,
    keyswitch_program,
    pmult_program,
    rescale_ops,
    rescale_program,
    rotation_program,
)
from repro.compiler.ops import HighLevelOp, OpKind, Program
from repro.compiler.passes import insert_spills
from repro.compiler.tfhe_programs import PBS_SET_I, pbs_batch_program
from repro.compiler.verify import lint_program
from repro.hw.config import ALCHEMIST_DEFAULT
from repro.sim.engine import EventDrivenSimulator


def _ew(label, defs=(), uses=(), **kw):
    kw.setdefault("poly_degree", 1024)
    kw.setdefault("channels", 4)
    return HighLevelOp(OpKind.EW_ADD, label, defs=tuple(defs),
                       uses=tuple(uses), **kw)


def _spilled_pbs():
    return insert_spills(pbs_batch_program(PBS_SET_I),
                         ALCHEMIST_DEFAULT.total_onchip_bytes,
                         ALCHEMIST_DEFAULT.word_bytes)


def _engine_triples(program):
    schedule = EventDrivenSimulator().run(program).schedule
    return [(s.index, s.start, s.end) for s in schedule]


def _raw_edge(program):
    """First (consumer, producer) pair joined by a value the consumer reads."""
    edges = program.dependency_edges()
    for i in sorted(edges):
        for p in edges[i]:
            if set(program.ops[p].defs) & set(program.ops[i].uses):
                return i, p
    raise AssertionError("no RAW edge in program")


# --------------------------------------------------------------------- #
#                         the seeded-defect corpus                       #
# --------------------------------------------------------------------- #


def drop_rescale_scale():
    """Deleting the rescale's scale multiply orphans the final NTT."""
    program = cmult_program()
    program.ops = [op for op in program.ops if op.label != "rs.scale"]
    return program, None


def shapeless_ntt():
    program = keyswitch_program()
    i = next(i for i, op in enumerate(program.ops) if op.kind == OpKind.NTT)
    program.ops[i] = dataclasses.replace(program.ops[i], poly_degree=0)
    return program, None


def duplicate_out_alias():
    program = keyswitch_program()
    program.add(_ew("dup", defs=("ks.out",), uses=("ks.in",)))
    return program, None


def dependency_cycle():
    program = rescale_program()
    i = next(i for i, op in enumerate(program.ops)
             if op.label == "rs.intt")
    program.ops[i] = dataclasses.replace(
        program.ops[i], uses=program.ops[i].uses + ("rs.ntt",))
    return program, None


def zero_element_ew():
    program = pmult_program()
    program.ops[0] = dataclasses.replace(program.ops[0], elements=0)
    return program, None


def rescale_below_last_level():
    wl = CKKSWorkload()
    program = Program("rescale@0", poly_degree=wl.n, inputs=("rs.in",))
    program.extend(rescale_ops(wl, 0))
    return program, None


def add_at_mismatched_scales():
    program = pmult_program()
    chain = program.ops[0].channels
    program.add(HighLevelOp(OpKind.EW_ADD, "bad_add", poly_degree=program.ops[0].poly_degree,
                            channels=chain, polys=2,
                            defs=("bad_add",), uses=("pmult", "ct")))
    return program, None


def missing_rescale_chain():
    program = Program("unrescaled", inputs=("ct", "pt"))
    cur = ("ct", "pt")
    for i in range(3):
        program.add(HighLevelOp(OpKind.EW_MULT, f"t{i}", poly_degree=1024,
                                channels=4, defs=(f"t{i}",), uses=cur,
                                role="tensor"))
        cur = (f"t{i}",)
    return program, None


def multiply_at_exhausted_chain():
    return cmult_program(level=0), None


def add_on_mismatched_chains():
    program = Program("chains", inputs=("ct",))
    program.add(HighLevelOp(OpKind.EW_MULT, "hi", poly_degree=1024,
                            channels=4, defs=("hi",), uses=("ct",)))
    program.add(HighLevelOp(OpKind.EW_MULT, "lo", poly_degree=1024,
                            channels=2, defs=("lo",), uses=("ct",)))
    program.add(_ew("join", defs=("join",), uses=("hi", "lo"), channels=2))
    return program, None


def double_rescale():
    program = Program("rs-rs", inputs=("ct",))
    program.add(HighLevelOp(OpKind.EW_MULT, "rs1", poly_degree=1024,
                            channels=4, defs=("rs1",), uses=("ct",),
                            role="rescale"))
    program.add(HighLevelOp(OpKind.EW_MULT, "rs2", poly_degree=1024,
                            channels=4, defs=("rs2",), uses=("rs1",),
                            role="rescale"))
    return program, None


def unpartitionable_degree():
    program = keyswitch_program()
    i = next(i for i, op in enumerate(program.ops) if op.kind == OpKind.NTT)
    program.ops[i] = dataclasses.replace(program.ops[i], poly_degree=3072)
    return program, None


def layout_change_without_transpose():
    program = keyswitch_program()
    i = next(i for i, op in enumerate(program.ops) if op.kind == OpKind.NTT)
    program.ops[i] = dataclasses.replace(
        program.ops[i], poly_degree=program.poly_degree // 2)
    return program, None


def use_of_undefined_value():
    program = rotation_program()
    program.ops[0] = dataclasses.replace(
        program.ops[0], uses=("ct", "ghost"))
    return program, None


def use_before_definition():
    program = rescale_program()
    consumer, _ = _raw_edge(program)
    program.ops.insert(0, program.ops.pop(consumer))
    return program, None


def raw_hazard_schedule():
    program = rescale_program()
    triples = _engine_triples(program)
    consumer, producer = _raw_edge(program)
    by_index = {i: k for k, (i, _, _) in enumerate(triples)}
    p_end = triples[by_index[producer]][2]
    i, _, end = triples[by_index[consumer]]
    triples[by_index[consumer]] = (i, p_end - 1.0, end)
    return program, triples


def waw_hazard_schedule():
    program = Program("waw", inputs=("in",))
    program.add(_ew("w1", defs=("acc",), uses=("in",)))
    program.add(_ew("w2", defs=("acc",), uses=("in",)))
    return program, [(0, 0.0, 5.0), (1, 1.0, 6.0)]


def war_hazard_schedule():
    program = Program("war", inputs=("in",))
    program.add(_ew("w1", defs=("acc",), uses=("in",)))
    program.add(_ew("reader", defs=("r",), uses=("acc",)))
    program.add(_ew("w2", defs=("acc",), uses=("in",)))
    return program, [(0, 0.0, 5.0), (1, 5.0, 9.0), (2, 7.0, 12.0)]


def spill_without_fill():
    spilled = _spilled_pbs()
    i = next(i for i, op in enumerate(spilled.ops)
             if op.kind == OpKind.HBM_LOAD and op.label.endswith(".fill"))
    spilled.ops.pop(i)
    return spilled, None


def schedule_missing_an_op():
    program = rescale_program()
    return program, _engine_triples(program)[:-1]


CORPUS = [
    ("structure", dependency_cycle, "ALC001"),
    ("structure", duplicate_out_alias, "ALC002"),
    ("structure", shapeless_ntt, "ALC003"),
    ("structure", zero_element_ew, "ALC007"),
    ("level-scale", rescale_below_last_level, "ALC100"),
    ("level-scale", add_at_mismatched_scales, "ALC101"),
    ("level-scale", missing_rescale_chain, "ALC102"),
    ("level-scale", multiply_at_exhausted_chain, "ALC103"),
    ("level-scale", add_on_mismatched_chains, "ALC104"),
    ("level-scale", double_rescale, "ALC105"),
    ("slot-partition", unpartitionable_degree, "ALC200"),
    ("slot-partition", layout_change_without_transpose, "ALC201"),
    ("liveness", drop_rescale_scale, "ALC301"),
    ("liveness", use_of_undefined_value, "ALC301"),
    ("liveness", use_before_definition, "ALC302"),
    ("hazards", raw_hazard_schedule, "ALC500"),
    ("hazards", waw_hazard_schedule, "ALC501"),
    ("hazards", war_hazard_schedule, "ALC502"),
    ("hazards", spill_without_fill, "ALC503"),
    ("hazards", schedule_missing_an_op, "ALC504"),
]


@pytest.mark.parametrize(
    "analysis,mutate,expected",
    CORPUS,
    ids=[f"{m.__name__}-{code}" for _, m, code in CORPUS],
)
def test_seeded_defect_is_flagged(analysis, mutate, expected):
    program, schedule = mutate()
    report = lint_program(program, schedule=schedule)
    assert expected in report.codes(), report.format(show_notes=True)
    flagged = [d for d in report.diagnostics if d.code == expected]
    assert all(d.analysis == analysis for d in flagged), flagged


def test_corpus_spans_all_four_analyses_and_is_large_enough():
    assert len(CORPUS) >= 12
    assert {a for a, _, _ in CORPUS} >= {
        "structure", "level-scale", "slot-partition", "liveness",
        "hazards"}


# --------------------------------------------------------------------- #
#                      hypothesis: clean on legal shapes                 #
# --------------------------------------------------------------------- #

_SHAPED_BUILDERS = (pmult_program, hadd_program, keyswitch_program,
                    cmult_program, rotation_program, rescale_program)

workloads = st.builds(
    CKKSWorkload,
    n=st.sampled_from([1 << k for k in range(13, 18)]),
    num_levels=st.integers(min_value=2, max_value=44),
    dnum=st.integers(min_value=2, max_value=6),
)


@settings(max_examples=25, deadline=None)
@given(wl=workloads, builder=st.sampled_from(_SHAPED_BUILDERS))
def test_every_legal_workload_shape_lints_clean(wl, builder):
    report = lint_program(builder(wl))
    assert report.ok, report.format()
    assert not report.warnings, report.format()


@settings(max_examples=20, deadline=None)
@given(wl=workloads, level=st.integers(min_value=1, max_value=10))
def test_rescale_is_legal_at_any_positive_level(wl, level):
    level = min(level, wl.num_levels)
    assert lint_program(rescale_program(wl, level)).ok


def test_non_ckks_builders_lint_clean():
    for build in (lambda: pbs_batch_program(PBS_SET_I),
                  bfv_cmult_program, bfv_add_program):
        assert lint_program(build()).ok


# --------------------------------------------------------------------- #
#                  hypothesis: random corruptions are caught             #
# --------------------------------------------------------------------- #


@settings(max_examples=20, deadline=None)
@given(data=st.data(),
       builder=st.sampled_from((cmult_program, keyswitch_program,
                                rotation_program, rescale_program)))
def test_moving_a_consumer_before_its_producer_is_caught(data, builder):
    program = builder()
    edges = program.dependency_edges()
    raw = [(i, p) for i in sorted(edges) for p in edges[i]
           if set(program.ops[p].defs) & set(program.ops[i].uses)]
    consumer, _ = data.draw(st.sampled_from(raw))
    program.ops.insert(0, program.ops.pop(consumer))
    assert "ALC302" in lint_program(program).codes()


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_dropping_any_fill_breaks_spill_pairing(data):
    spilled = _spilled_pbs()
    fills = [i for i, op in enumerate(spilled.ops)
             if op.kind == OpKind.HBM_LOAD and op.label.endswith(".fill")]
    assert fills
    spilled.ops.pop(data.draw(st.sampled_from(fills)))
    assert "ALC503" in lint_program(spilled).codes()


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_dropping_any_schedule_entry_is_caught(data):
    program = rescale_program()
    triples = _engine_triples(program)
    victim = data.draw(st.integers(min_value=0, max_value=len(triples) - 1))
    triples.pop(victim)
    report = lint_program(program, schedule=triples)
    assert "ALC504" in report.codes()


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_starting_any_consumer_too_early_is_caught(data):
    program = cmult_program()
    triples = _engine_triples(program)
    edges = program.dependency_edges()
    raw = [(i, p) for i in sorted(edges) for p in edges[i]
           if set(program.ops[p].defs) & set(program.ops[i].uses)]
    consumer, producer = data.draw(st.sampled_from(raw))
    by_index = {i: k for k, (i, _, _) in enumerate(triples)}
    p_end = triples[by_index[producer]][2]
    i, _, end = triples[by_index[consumer]]
    triples[by_index[consumer]] = (i, p_end - 1.0, max(end, p_end))
    report = lint_program(program, schedule=triples)
    assert "ALC500" in report.codes()


def test_unmutated_engine_schedules_audit_clean():
    for builder in (cmult_program, rescale_program, keyswitch_program):
        program = builder()
        report = lint_program(program, schedule=_engine_triples(program))
        assert report.ok, report.format()
