"""Tests for the cycle-level simulator, including the Table 7 calibration."""

import pytest

from repro.baselines.published import TABLE7_BASELINES
from repro.compiler.ckks_programs import (
    cmult_program,
    hadd_program,
    keyswitch_program,
    pmult_program,
    rotation_program,
)
from repro.compiler.ops import HighLevelOp, OpKind, Program
from repro.hw.config import ALCHEMIST_DEFAULT
from repro.sim.simulator import CycleSimulator


@pytest.fixture(scope="module")
def sim():
    return CycleSimulator()


def test_single_ntt_timing(sim):
    op = HighLevelOp(OpKind.NTT, poly_degree=65536, channels=1)
    t = sim.time_op(op)
    # 5 radix-8 stages of 8192 Meta-OPs (4 waves of 5+0.9 cycles) plus one
    # radix-2 tail stage
    assert t.compute_cycles == pytest.approx(5 * 4 * 5.9 + 2 * 3.9)
    assert t.busy_core_cycles == 5 * 8192 * 5 + 4096 * 3
    assert t.hbm_cycles == 0


def test_hbm_op_timing(sim):
    op = HighLevelOp(OpKind.HBM_LOAD, bytes_moved=1_000_000)
    t = sim.time_op(op)
    assert t.compute_cycles == 0
    assert t.hbm_cycles == pytest.approx(1000.0)
    assert t.bound == "hbm"


def test_ew_add_is_core_cheap(sim):
    op = HighLevelOp(OpKind.EW_ADD, poly_degree=65536, channels=45, polys=2)
    t = sim.time_op(op)
    assert t.compute_cycles == pytest.approx(360)  # 5.9M adds / 16384 lanes
    assert t.bound == "sram"


def test_report_totals_and_bottleneck(sim):
    prog = Program("mix")
    prog.add(HighLevelOp(OpKind.HBM_LOAD, bytes_moved=10_000_000))
    prog.add(HighLevelOp(OpKind.EW_MULT, poly_degree=1024, channels=1))
    report = sim.run(prog)
    assert report.bottleneck == "hbm"
    assert report.pipelined_cycles == pytest.approx(10_000)
    assert report.serialized_cycles >= report.pipelined_cycles
    assert report.hbm_gigabytes() == pytest.approx(0.01)
    assert "hbm-bound" in report.summary()


def test_throughput_helper(sim):
    prog = Program("tiny")
    prog.add(HighLevelOp(OpKind.HBM_LOAD, bytes_moved=1000_000_000))
    report = sim.run(prog)
    assert report.seconds == pytest.approx(1e-3)
    assert report.throughput_per_second() == pytest.approx(1000.0)
    assert report.throughput_per_second(10) == pytest.approx(10_000.0)


# ------------------------- Table 7 calibration ------------------------- #

TABLE7_PROGRAMS = {
    "Pmult": pmult_program,
    "Hadd": hadd_program,
    "Keyswitch": keyswitch_program,
    "Cmult": cmult_program,
    "Rotation": rotation_program,
}


@pytest.mark.parametrize("name", sorted(TABLE7_PROGRAMS))
def test_table7_throughput_matches_paper(sim, name):
    """Simulated throughput within 15% of the paper's Table 7."""
    program = TABLE7_PROGRAMS[name]()
    paper = TABLE7_BASELINES[name]["Alchemist_paper"]
    got = sim.run(program).throughput_per_second()
    assert got == pytest.approx(paper, rel=0.15), (name, got, paper)


def test_table7_bound_classes(sim):
    """Pmult is compute-bound, Hadd bandwidth-bound, Keyswitch/Cmult/
    Rotation HBM-bound (evk streaming) — the paper's roofline story."""
    assert sim.run(pmult_program()).bottleneck == "compute"
    assert sim.run(hadd_program()).bottleneck == "sram"
    for builder in (keyswitch_program, cmult_program, rotation_program):
        assert sim.run(builder()).bottleneck == "hbm"


def test_keyswitch_faster_at_lower_level(sim):
    high = sim.run(keyswitch_program(level=44)).seconds
    low = sim.run(keyswitch_program(level=11)).seconds
    assert low < high / 3


def test_utilization_accounting(sim):
    from repro.compiler.ckks_programs import bootstrapping_program

    report = sim.run(bootstrapping_program())
    per_class = report.utilization_by_class()
    assert 0.8 < per_class["ntt"] < 0.9
    assert 0.85 < per_class["bconv"] <= 1.0
    assert 0.8 < per_class["decomp"] < 0.95
    overall = report.overall_compute_utilization()
    assert 0.8 < overall < 0.95


def test_smaller_config_is_slower(sim):
    small = CycleSimulator(ALCHEMIST_DEFAULT.with_overrides(num_units=32))
    prog = pmult_program()
    assert small.run(prog).seconds > sim.run(prog).seconds


def test_operator_class_cycles(sim):
    cycles = sim.operator_class_cycles(keyswitch_program())
    assert set(cycles) == {"ntt", "bconv", "decomp", "ewise"}
    assert cycles["ntt"] > cycles["decomp"]


def test_energy_model_near_paper_average(sim):
    """Per-workload average power brackets the paper's 77.9 W."""
    from repro.compiler.ckks_programs import bootstrapping_program

    watts = [
        sim.run(prog).average_watts()
        for prog in (pmult_program(), cmult_program(), bootstrapping_program())
    ]
    assert all(40 < w < 110 for w in watts), watts
    # the evk-streaming Cmult is the hungriest of the three
    assert max(watts) == watts[1]


def test_energy_scales_with_work(sim):
    small = sim.run(keyswitch_program(level=11)).energy_joules()
    large = sim.run(keyswitch_program(level=44)).energy_joules()
    assert large > 3 * small


def test_timeline_schedule_bounds(sim):
    """pipelined <= scheduled <= serialized for every workload."""
    from repro.compiler.ckks_programs import bootstrapping_program
    from repro.compiler.tfhe_programs import PBS_SET_I, pbs_batch_program

    for prog in (cmult_program(), bootstrapping_program(),
                 pbs_batch_program(PBS_SET_I, batch=16)):
        report = sim.run(prog)
        scheduled = report.scheduled_cycles()
        assert report.pipelined_cycles <= scheduled + 1e-6
        assert scheduled <= report.serialized_cycles + 1e-6


def test_timeline_entries_ordered(sim):
    from repro.sim.schedule import schedule

    report = sim.run(cmult_program())
    timeline, makespan = schedule([("cmult", None, report.timings)])
    assert [s.index for s in timeline] == list(range(len(report.timings)))
    for s in timeline:
        assert s.end >= s.start >= 0
    # the makespan equals the last op to finish
    assert report.scheduled_cycles() == makespan == max(
        s.end for s in timeline)
    # the evk load may start while earlier compute is still running
    # (independent resources), so starts need not be monotone — but no op
    # may finish after the makespan
    assert all(s.end <= makespan for s in timeline)


def test_run_concurrent_cross_scheme(sim):
    """Co-scheduling CKKS and TFHE work keeps utilization high — the
    unified architecture has no scheme-specific engines to idle."""
    from repro.compiler.tfhe_programs import PBS_SET_I, pbs_batch_program
    from repro.sim.engine import EventDrivenSimulator

    ckks = cmult_program()
    tfhe = pbs_batch_program(PBS_SET_I, batch=64)
    combined = EventDrivenSimulator(sim.config).run_mix([ckks, tfhe])
    assert [t.name for t in combined.tenants] == [ckks.name, tfhe.name]
    # resource totals are the sums of the parts
    a, b = sim.run(ckks), sim.run(tfhe)
    totals = combined.resource_cycles()
    assert totals.compute_cycles == pytest.approx(
        a.total_compute_cycles + b.total_compute_cycles)
    assert totals.hbm_cycles == pytest.approx(
        a.total_hbm_cycles + b.total_hbm_cycles)
    # and the mix still sustains the paper-level utilization
    busy = sum(s.timing.busy_core_cycles for s in combined.schedule)
    assert busy / (totals.compute_cycles * sim.config.total_cores) > 0.8
    # co-scheduling overlaps the HBM-bound keyswitch with PBS compute:
    # the mix finishes faster than running the phases back-to-back
    assert combined.makespan_cycles < sum(
        t.solo_cycles for t in combined.tenants)


# ------------------- deterministic bottleneck tie-break ------------------- #


def test_op_timing_tie_break_is_deterministic():
    """Equal resource demands resolve by the documented BOUND_PRIORITY
    (hbm > sram > compute) — never by branch order."""
    from repro.compiler.cost.model import OpCost

    op = HighLevelOp(OpKind.EW_ADD, poly_degree=64)
    three_way = OpCost(op=op, compute_cycles=5.0, sram_cycles=5.0,
                       hbm_cycles=5.0)
    assert three_way.bound == "hbm"
    assert OpCost(op=op, compute_cycles=5.0, sram_cycles=5.0,
                  hbm_cycles=1.0).bound == "sram"
    assert OpCost(op=op, compute_cycles=5.0, sram_cycles=1.0,
                  hbm_cycles=5.0).bound == "hbm"
    assert OpCost(op=op, compute_cycles=0.0, sram_cycles=0.0,
                  hbm_cycles=0.0).bound == "free"


def test_simulator_and_analyzer_classify_identically(sim):
    """The simulator and the static analyzer share classify_bound, so
    their per-op and program-level bottlenecks can never disagree."""
    from repro.compiler.cost import analyze_program

    for builder in (pmult_program, hadd_program, keyswitch_program,
                    cmult_program, rotation_program):
        prog = builder()
        static = analyze_program(prog)
        report = sim.run(prog)
        assert static.bottleneck == report.bottleneck
        for row, timing in zip(static.rows, sim.time_program(prog)):
            assert row.bound == timing.bound


def test_tie_break_priority_is_exported():
    from repro.compiler.cost import BOUND_PRIORITY

    assert BOUND_PRIORITY == ("hbm", "sram", "compute")
