"""Tests for the scheduling kernel and on-chip residency (Section 5.4).

Residency is decided by the per-op footprint check of
``insert_spills`` (with ``ALC403`` predicting each spill and
``ALC200``-``ALC202`` checking slot locality); start/end cycles come from
the one resource-frontier kernel, :func:`repro.sim.schedule.schedule`.
"""

import pytest

from repro.analysis.dse import sram_residency_sweep
from repro.compiler.ckks_programs import (
    bootstrapping_program,
    cmult_program,
    keyswitch_program,
    pmult_program,
)
from repro.compiler.ops import HighLevelOp, OpKind, Program, ProgramGraph
from repro.compiler.passes import insert_spills, peak_footprint_bytes
from repro.compiler.verify import AnalysisContext, SlotPartitionAnalysis, lint_program
from repro.hw.config import ALCHEMIST_DEFAULT
from repro.sim.schedule import schedule
from repro.sim.simulator import CycleSimulator

CAPACITY = ALCHEMIST_DEFAULT.total_onchip_bytes
WORD = ALCHEMIST_DEFAULT.word_bytes


def _spill(program):
    return insert_spills(program, CAPACITY, WORD)


def _ew(label, defs=(), uses=(), elements=1 << 16):
    return HighLevelOp(OpKind.EW_MULT, label, elements=elements,
                       defs=tuple(defs), uses=tuple(uses))


# ------------------------------ residency -------------------------------- #

def test_basic_operators_fit_onchip():
    """Section 5.4: 64+2 MB suffices for the evaluated workloads — no
    spills on any basic operator."""
    for builder in (pmult_program, cmult_program, keyswitch_program):
        program = builder()
        assert _spill(program) is program, builder.__name__
        assert "ALC403" not in lint_program(program).codes()
        assert 0 < peak_footprint_bytes(program, WORD) / CAPACITY < 1


def test_bootstrapping_fits_onchip():
    program = bootstrapping_program()
    assert peak_footprint_bytes(program, WORD) <= CAPACITY
    assert _spill(program) is program


def test_key_streaming_not_counted_resident():
    """HBM loads (evk streaming) do not count against residency."""
    prog = Program("keys_only")
    prog.add(HighLevelOp(OpKind.HBM_LOAD, bytes_moved=10**9))
    assert peak_footprint_bytes(prog, WORD) == 0
    assert _spill(prog) is prog


def test_oversized_working_set_spills():
    prog = Program("huge")
    # a single elementwise op over ~200MB of data
    prog.add(HighLevelOp(OpKind.EW_MULT, poly_degree=1 << 16,
                         channels=300, polys=2))
    overflow = peak_footprint_bytes(prog, WORD) - CAPACITY
    assert overflow > 0
    assert "ALC403" in lint_program(prog).codes()

    spilled = _spill(prog)
    assert len(spilled.ops) == len(prog.ops) + 2
    assert spilled.total_hbm_bytes() == 2 * overflow


def test_resident_program_unchanged_by_spill_pass():
    prog = pmult_program()
    assert _spill(prog) is prog


def test_locality_validation_passes():
    for builder in (cmult_program, keyswitch_program, bootstrapping_program):
        assert SlotPartitionAnalysis().run(builder(), AnalysisContext()) == []


def test_occupancy_reported():
    program = keyswitch_program()
    rows = sram_residency_sweep(program)
    default = next(r for r in rows
                   if r["onchip_mb"] == CAPACITY / (1 << 20))
    assert default["resident"]
    assert default["occupancy"] == peak_footprint_bytes(program, WORD) / CAPACITY
    # residency flips exactly where the capacity drops below the footprint
    assert [r["resident"] for r in rows] == [r["occupancy"] <= 1 for r in rows]


# ------------------------------ the kernel ------------------------------- #

def _chain():
    """A compute op feeding an HBM op, then a zero-cost marker."""
    prog = Program("chain")
    prog.add(_ew("prod", defs=("t",)))
    prog.add(HighLevelOp(OpKind.HBM_LOAD, "cons", bytes_moved=1 << 20,
                         defs=("c",), uses=("t",)))
    prog.add(HighLevelOp(OpKind.HBM_LOAD, "marker", bytes_moved=0,
                         defs=("m",), uses=("t",)))
    return prog


def test_program_order_mode_ignores_dependencies():
    """Without a graph an op waits only for its resources, so the HBM op
    overlaps its compute producer and the marker sits at the frontier."""
    prog = _chain()
    timings = CycleSimulator().time_program(prog)
    ops, makespan = schedule([("chain", None, timings)])
    prod, cons, marker = ops
    assert cons.start == 0.0 < prod.end
    assert marker.start == marker.end == max(prod.end, cons.end)
    assert makespan == max(prod.end, cons.end)


def test_dataflow_mode_stalls_on_producers():
    prog = _chain()
    timings = CycleSimulator().time_program(prog)
    ops, makespan = schedule([("chain", ProgramGraph(prog), timings)])
    by_label = {s.label: s for s in ops}
    assert by_label["cons"].start == by_label["prod"].end
    # a zero-cost op sits at its producers' finish
    assert by_label["marker"].start == by_label["marker"].end \
        == by_label["prod"].end
    assert makespan == by_label["cons"].end


@pytest.mark.parametrize("graph", [False, True])
def test_adjust_none_drains_the_tenant(graph):
    """An op the adjust hook turns down is left out; later ops it turns
    down too drain while other tenants keep running."""
    prog = _chain()
    timings = CycleSimulator().time_program(prog)
    seen = []

    def adjust(tenant, index, op, timing, start):
        seen.append((tenant, index))
        return None if tenant == "a" and index >= 1 else timing

    g = ProgramGraph(prog) if graph else None
    ops, _ = schedule([("a", g, timings), ("b", g, timings)], adjust=adjust)
    assert [(s.tenant, s.index) for s in ops if s.tenant == "a"] == [("a", 0)]
    assert [s.index for s in ops if s.tenant == "b"] == [0, 1, 2]
    assert sorted(seen) == [(t, i) for t in "ab" for i in range(3)]


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="policy"):
        schedule([], policy="lottery")
