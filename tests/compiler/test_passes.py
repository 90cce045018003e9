"""Tests for the program rewrites (spill insertion, elementwise fusion) and
the structure analysis that checks programs before they are costed."""

from repro.compiler.ckks_programs import cmult_program, pmult_program
from repro.compiler.ops import HighLevelOp, OpKind, Program
from repro.compiler.passes import (
    fuse_elementwise,
    insert_spills,
    peak_footprint_bytes,
)
from repro.compiler.verify import AnalysisContext, StructureAnalysis
from repro.hw.config import ALCHEMIST_DEFAULT
from repro.sim.engine import EventDrivenSimulator
from repro.sim.simulator import CycleSimulator

CAPACITY = ALCHEMIST_DEFAULT.total_onchip_bytes
WORD = ALCHEMIST_DEFAULT.word_bytes


def _structure(program):
    return StructureAnalysis().run(program, AnalysisContext())


def _oversized_op(label="huge"):
    # ~250 MB elementwise footprint, far beyond the 66 MB of on-chip SRAM
    return HighLevelOp(OpKind.EW_MULT, label, poly_degree=1 << 16,
                       channels=300, polys=2,
                       defs=(label,), uses=(f"{label}.in",))


# ------------------------------ structure -------------------------------- #

def test_validate_accepts_all_builders():
    for builder in (cmult_program, pmult_program):
        assert _structure(builder()) == []


def test_validate_rejects_cycles():
    prog = Program("cyclic")
    prog.add(HighLevelOp(OpKind.EW_ADD, "a", poly_degree=8,
                         defs=("x",), uses=("y",)))
    prog.add(HighLevelOp(OpKind.EW_ADD, "b", poly_degree=8,
                         defs=("y",), uses=("x",)))
    diags = _structure(prog)
    assert [d.code for d in diags] == ["ALC001"]
    assert "cycle" in diags[0].message


def test_validate_rejects_shapeless_ntt():
    prog = Program("bad")
    prog.add(HighLevelOp(OpKind.NTT, "ntt0", poly_degree=0))
    assert any("poly_degree" in d.message for d in _structure(prog))


def test_validate_rejects_duplicate_out_alias():
    prog = Program("dup")
    prog.add(HighLevelOp(OpKind.EW_ADD, "a", poly_degree=8,
                         defs=("ks.out",)))
    prog.add(HighLevelOp(OpKind.EW_ADD, "b", poly_degree=8,
                         defs=("ks.out",)))
    assert any("already defined" in d.message for d in _structure(prog))


def test_validate_nonstrict_notes_instead_of_raising():
    """The analysis reports a malformed program; it never raises and
    never edits it."""
    prog = Program("bad")
    prog.add(HighLevelOp(OpKind.NTT, "ntt0", poly_degree=0))
    before = list(prog.ops)
    assert [d.code for d in _structure(prog)] == ["ALC003"]
    assert prog.ops == before


# ------------------------------ fusion ----------------------------------- #

def test_fusion_merges_single_consumer_chain():
    prog = Program("chain")
    prog.add(HighLevelOp(OpKind.EW_MULT, "mul", poly_degree=256,
                         defs=("t",), uses=("a", "b")))
    prog.add(HighLevelOp(OpKind.EW_ADD, "add", poly_degree=256,
                         defs=("out",), uses=("t", "c")))
    out = fuse_elementwise(prog)
    assert len(out.ops) == 1
    assert out.name == prog.name
    fused = out.ops[0]
    assert fused.kind == OpKind.EW_MULT
    assert fused.defs == ("out",)
    assert set(fused.uses) == {"a", "b", "c"}
    # the intermediate write + re-read disappears
    before = sum(op.sram_bytes(WORD) for op in prog.ops)
    assert sum(op.sram_bytes(WORD) for op in out.ops) < before
    out.linearize()                  # fused graph stays acyclic


def test_fusion_respects_fanout():
    prog = Program("fanout")
    prog.add(HighLevelOp(OpKind.EW_MULT, "mul", poly_degree=256,
                         defs=("t",), uses=("a",)))
    prog.add(HighLevelOp(OpKind.EW_ADD, "add", poly_degree=256,
                         defs=("out",), uses=("t",)))
    prog.add(HighLevelOp(OpKind.EW_ADD, "other", poly_degree=256,
                         defs=("out2",), uses=("t",)))
    assert fuse_elementwise(prog) is prog   # intermediate has two consumers


def test_fusion_shrinks_cmult_without_breaking_bounds():
    prog = cmult_program()
    fused = fuse_elementwise(prog)
    assert len(fused.ops) < len(prog.ops)
    sim = CycleSimulator()
    assert (sim.run(fused).pipelined_cycles
            <= sim.run(prog).pipelined_cycles + 1e-6)


# ------------------------------ spill ------------------------------------ #

def test_spill_inserted_adjacent_to_offending_op():
    """Regression: spill/fill must land *at* the overflow, not at program
    end (the old ``schedule_with_spills`` appended them after all compute)."""
    prog = Program("huge")
    prog.add(HighLevelOp(OpKind.EW_ADD, "before", poly_degree=64,
                         defs=("before",)))
    prog.add(_oversized_op())
    prog.add(HighLevelOp(OpKind.EW_ADD, "after", poly_degree=64,
                         defs=("after",), uses=("huge",)))
    out = insert_spills(prog, CAPACITY, WORD)
    assert out.name == prog.name
    labels = [op.label for op in out.ops]
    assert labels == ["before", "huge.spill", "huge", "huge.fill", "after"]
    store, fill = out.ops[1], out.ops[3]
    assert store.kind == OpKind.HBM_STORE
    assert fill.kind == OpKind.HBM_LOAD
    assert store.bytes_moved == fill.bytes_moved > 0
    # dataflow: the op waits for the eviction; the fill waits for the op
    edges = out.dependency_edges()
    assert 1 in edges[2]
    assert 2 in edges[3]


def test_spill_resident_program_is_unchanged():
    prog = pmult_program()
    assert insert_spills(prog, CAPACITY, WORD) is prog


def test_scheduler_delegates_to_spill_pass():
    """Spilling is the rewrite's job; the scheduler only orders what it
    emits: evict before the oversized op, restore after it."""
    prog = Program("huge")
    prog.add(_oversized_op())
    spilled = insert_spills(prog, CAPACITY, WORD)
    assert [op.kind for op in spilled.ops] == [
        OpKind.HBM_STORE, OpKind.EW_MULT, OpKind.HBM_LOAD]
    # evict exactly the overflow of the largest footprint, restore it after
    overflow = peak_footprint_bytes(prog, WORD) - CAPACITY
    assert spilled.total_hbm_bytes() == 2 * overflow > 0
    store, op, fill = EventDrivenSimulator().run(spilled).schedule
    assert store.end <= op.start
    assert op.end <= fill.start
