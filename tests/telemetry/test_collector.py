"""Tests for the trace collector and the simulator that feeds it."""

import pytest

from repro.cli import _workloads
from repro.compiler.ckks_programs import (
    cmult_program,
    hadd_program,
    keyswitch_program,
    pmult_program,
    rotation_program,
)
from repro.compiler.ops import HighLevelOp, OpKind, Program
from repro.compiler.tfhe_programs import PBS_SET_I, pbs_batch_program
from repro.hw.config import ALCHEMIST_DEFAULT
from repro.sim.schedule import schedule
from repro.sim.simulator import CycleSimulator
from repro.telemetry import TraceCollector

TABLE7_BUILDERS = (
    pmult_program, hadd_program, keyswitch_program, cmult_program,
    rotation_program,
)


@pytest.fixture(scope="module")
def traced_cmult():
    collector = TraceCollector()
    report = CycleSimulator(collector=collector).run(cmult_program())
    return collector, report


def _ops(collector, name="cmult"):
    """The scheduled ops ``collector`` holds for program ``name``."""
    return collector.programs[name][1]


def _summary(collector, name="cmult"):
    return collector.summary_dict()["programs"][name]


def test_tracing_off_is_bit_identical():
    """The Table 7 calibration must not move by a single bit with tracing
    disabled vs the pre-telemetry simulator (collector=None path)."""
    plain = CycleSimulator()
    traced = CycleSimulator(collector=TraceCollector())
    for builder in TABLE7_BUILDERS + (
            lambda: pbs_batch_program(PBS_SET_I, batch=128),):
        a = plain.run(builder())
        b = traced.run(builder())
        assert a.total_compute_cycles == b.total_compute_cycles
        assert a.total_sram_cycles == b.total_sram_cycles
        assert a.total_hbm_cycles == b.total_hbm_cycles
        assert a.total_busy_core_cycles == b.total_busy_core_cycles
        assert a.pipelined_cycles == b.pipelined_cycles
        assert a.serialized_cycles == b.serialized_cycles
        for ta, tb in zip(a.timings, b.timings):
            assert ta.compute_cycles == tb.compute_cycles
            assert ta.sram_cycles == tb.sram_cycles
            assert ta.hbm_cycles == tb.hbm_cycles
            assert ta.bound == tb.bound


def test_one_event_per_op(traced_cmult):
    """The trace holds the report's own cost records, one per op."""
    collector, report = traced_cmult
    ops = _ops(collector)
    assert len(ops) == len(report.timings) == collector.num_events
    for s, t in zip(ops, report.timings):
        assert s.timing is t
        assert s.end - s.start == pytest.approx(t.serialized_cycles)


def test_event_schedule_matches_report_timeline(traced_cmult):
    """Collector start/end cycles are the program-order kernel schedule of
    the report's timings, and its makespan is scheduled_cycles()."""
    collector, report = traced_cmult
    ops, makespan = schedule([("cmult", None, report.timings)])
    assert _ops(collector) == ops
    assert (_summary(collector)["makespan_cycles"] == makespan
            == report.scheduled_cycles())


def test_per_resource_occupancy_never_overlaps(traced_cmult):
    """On each resource, successive ops' occupancy windows are disjoint."""
    collector, _ = traced_cmult
    free = {"compute": 0.0, "sram": 0.0, "hbm": 0.0}
    for s in _ops(collector):
        needs = {"compute": s.timing.compute_cycles,
                 "sram": s.timing.sram_cycles, "hbm": s.timing.hbm_cycles}
        for resource, cycles in needs.items():
            if cycles > 0:
                assert s.start >= free[resource] - 1e-9
                free[resource] = s.start + cycles


@pytest.mark.parametrize(
    "config",
    [ALCHEMIST_DEFAULT, ALCHEMIST_DEFAULT.with_overrides(num_units=100)],
    ids=["2048-cores", "1600-cores"])
def test_component_utilization_matches_report(config):
    """The trace's per-class utilization is the report's, bit for bit, on
    every shipped workload — also at a core count that is not a power of
    two, where any other summation order shows in the last digits."""
    for name, program in _workloads().items():
        collector = TraceCollector()
        report = CycleSimulator(config, collector=collector).run(program)
        assert (_summary(collector, program.name)["component_utilization"]
                == report.utilization_by_class()), name


def test_bound_histogram_counts_every_op(traced_cmult):
    collector, report = traced_cmult
    hist = _summary(collector)["bound_histogram"]
    assert sum(hist.values()) == len(report.timings)
    assert set(hist) <= {"compute", "sram", "hbm", "free"}
    assert hist["hbm"] >= 1          # cmult streams evaluation keys


def test_bandwidth_occupancy_bounds(traced_cmult):
    collector, _ = traced_cmult
    occ = _summary(collector)["bandwidth_occupancy"]
    assert set(occ) == {"compute", "sram", "hbm"}
    for value in occ.values():
        assert 0.0 <= value <= 1.0
    # cmult is HBM-bound: the HBM lane must be the most occupied
    assert occ["hbm"] == max(occ.values())


def test_summary_dict_structure(traced_cmult):
    collector, report = traced_cmult
    summary = collector.summary_dict()
    prog = summary["programs"]["cmult"]
    assert list(summary) == ["programs", "num_events"]
    assert list(prog) == [
        "num_ops", "makespan_cycles", "bound_histogram", "bound_cycles",
        "component_utilization", "bandwidth_occupancy", "waves", "meta_ops",
        "sram_bytes", "hbm_bytes"]
    assert prog["num_ops"] == len(report.timings)
    assert prog["makespan_cycles"] == max(s.end for s in _ops(collector))
    assert prog["meta_ops"] == sum(t.meta_ops for t in report.timings)
    assert sum(prog["bound_cycles"].values()) == pytest.approx(
        sum(s.end - s.start for s in _ops(collector)))
    assert summary["num_events"] == len(report.timings)


def test_multiple_programs_tracked_separately():
    collector = TraceCollector()
    sim = CycleSimulator(collector=collector)
    sim.run(pmult_program())
    sim.run(hadd_program())
    assert set(collector.programs) == {"pmult", "hadd"}
    assert _summary(collector, "pmult")["bound_histogram"] == {"compute": 1}
    assert _summary(collector, "hadd")["bound_histogram"] == {"sram": 1}


def test_recording_a_program_name_twice_raises():
    """A second run under a traced name would mix two schedules in one
    trace; the collector refuses it and keeps the first."""
    collector = TraceCollector()
    sim = CycleSimulator(collector=collector)
    sim.run(pmult_program())
    first = collector.programs["pmult"]
    with pytest.raises(ValueError, match="'pmult' is already traced"):
        sim.run(pmult_program())
    assert collector.programs["pmult"] is first
    assert collector.num_events == 1


def test_zero_cost_ops_get_zero_duration_markers():
    collector = TraceCollector()
    program = Program("markers").add(
        HighLevelOp(OpKind.HBM_LOAD, "nothing", bytes_moved=0))
    CycleSimulator(collector=collector).run(program)
    (op,) = _ops(collector, "markers")
    assert op.timing.bound == "free"
    assert op.end - op.start == 0.0
