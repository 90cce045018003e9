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
    collector, report = traced_cmult
    assert len(collector.events) == len(report.timings)
    for e, t in zip(collector.events, report.timings):
        assert e.compute_cycles == t.compute_cycles
        assert e.sram_cycles == t.sram_cycles
        assert e.hbm_cycles == t.hbm_cycles
        assert e.bound == t.bound
        assert e.waves == t.waves
        assert e.meta_ops == t.meta_ops
        assert e.duration_cycles == pytest.approx(
            max(t.compute_cycles, t.sram_cycles, t.hbm_cycles))


def test_event_schedule_matches_report_timeline(traced_cmult):
    """Collector start/end cycles are the program-order kernel schedule of
    the report's timings, and its makespan is scheduled_cycles()."""
    collector, report = traced_cmult
    ops, makespan = schedule([("cmult", None, report.timings)])
    assert len(collector.events) == len(ops)
    for e, s in zip(collector.events, ops):
        assert e.name == s.label
        assert (e.start_cycle, e.end_cycle) == (s.start, s.end)
    assert collector.makespan_cycles() == makespan == report.scheduled_cycles()


def test_per_resource_occupancy_never_overlaps(traced_cmult):
    """On each resource, successive ops' occupancy windows are disjoint."""
    collector, _ = traced_cmult
    free = {"compute": 0.0, "sram": 0.0, "hbm": 0.0}
    for e in collector.events:
        needs = {"compute": e.compute_cycles, "sram": e.sram_cycles,
                 "hbm": e.hbm_cycles}
        for resource, cycles in needs.items():
            if cycles > 0:
                assert e.start_cycle >= free[resource] - 1e-9
                free[resource] = e.start_cycle + cycles


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
        assert (collector.component_utilization(program.name)
                == report.utilization_by_class()), name


def test_bound_histogram_counts_every_op(traced_cmult):
    collector, report = traced_cmult
    hist = collector.bound_histogram()
    assert sum(hist.values()) == len(report.timings)
    assert set(hist) <= {"compute", "sram", "hbm", "free"}
    assert hist["hbm"] >= 1          # cmult streams evaluation keys


def test_bandwidth_occupancy_bounds(traced_cmult):
    collector, _ = traced_cmult
    occ = collector.bandwidth_occupancy()
    assert set(occ) == {"compute", "sram", "hbm"}
    for value in occ.values():
        assert 0.0 <= value <= 1.0
    # cmult is HBM-bound: the HBM lane must be the most occupied
    assert occ["hbm"] == max(occ.values())


def test_summary_dict_structure(traced_cmult):
    collector, report = traced_cmult
    summary = collector.summary_dict()
    prog = summary["programs"]["cmult"]
    assert prog["num_ops"] == len(report.timings)
    assert prog["makespan_cycles"] == pytest.approx(
        collector.makespan_cycles("cmult"))
    assert prog["meta_ops"] == sum(t.meta_ops for t in report.timings)
    assert summary["num_events"] == len(collector.events)


def test_multiple_programs_tracked_separately():
    collector = TraceCollector()
    sim = CycleSimulator(collector=collector)
    sim.run(pmult_program())
    sim.run(hadd_program())
    assert set(collector.summary_dict()["programs"]) == {"pmult", "hadd"}
    assert collector.bound_histogram("pmult") == {"compute": 1}
    assert collector.bound_histogram("hadd") == {"sram": 1}


def test_zero_cost_ops_get_zero_duration_markers():
    collector = TraceCollector()
    program = Program("markers").add(
        HighLevelOp(OpKind.HBM_LOAD, "nothing", bytes_moved=0))
    CycleSimulator(collector=collector).run(program)
    (event,) = collector.events
    assert event.bound == "free"
    assert event.duration_cycles == 0.0
