"""Tests for the event-driven engine (dependency scheduling + mixes)."""

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.bfv_programs import bfv_add_program, bfv_cmult_program
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
from repro.compiler.ops import HighLevelOp, OpKind, Program
from repro.compiler.tfhe_programs import PBS_SET_I, pbs_batch_program
from repro.sim import CycleSimulator, EventDrivenSimulator, POLICIES

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

ALL_BUILDERS = (
    pmult_program, hadd_program, keyswitch_program, cmult_program,
    rotation_program, bootstrapping_program, helr_iteration_program,
    lola_mnist_program, pbs_batch_program, bfv_cmult_program,
    bfv_add_program,
)


@pytest.fixture(scope="module")
def sim():
    return CycleSimulator()


@pytest.fixture(scope="module")
def engine():
    return EventDrivenSimulator()


# --------------------------- calibration bounds -------------------------- #

@pytest.mark.parametrize("builder", ALL_BUILDERS, ids=lambda b: b.__name__)
def test_event_makespan_bracketed(builder, sim, engine):
    """pipelined <= event <= serialized for every compiled workload."""
    prog = builder()
    report = sim.run(prog)
    mix = engine.run(prog)
    assert report.pipelined_cycles <= mix.makespan_cycles + 1e-6
    assert mix.makespan_cycles <= report.serialized_cycles + 1e-6


@pytest.mark.parametrize("policy", POLICIES)
def test_mix_makespan_bracketed(policy, sim, engine):
    """Under any policy the mix makespan stays within the combined
    pipelined/serialized envelope of its tenants, and the resource demand
    it schedules is the sum of its tenants' demands."""
    for progs in ([cmult_program(), pbs_batch_program(), bfv_cmult_program()],
                  [cmult_program(), pbs_batch_program(PBS_SET_I, batch=64)]):
        reports = [sim.run(p) for p in progs]
        mix = engine.run_mix(progs, policy=policy)
        totals = mix.resource_cycles()
        for field in ("compute_cycles", "sram_cycles", "hbm_cycles"):
            assert getattr(totals, field) == pytest.approx(
                sum(getattr(r, f"total_{field}") for r in reports))
        pipelined = max(
            sum(r.total_compute_cycles for r in reports),
            sum(r.total_sram_cycles for r in reports),
            sum(r.total_hbm_cycles for r in reports),
        )
        serialized = sum(r.serialized_cycles for r in reports)
        assert pipelined <= mix.makespan_cycles + 1e-6
        assert mix.makespan_cycles <= serialized + 1e-6


def test_pipelined_cycles_bit_identical_to_golden(sim):
    """The refactor must not move the calibrated single-program numbers:
    pipelined cycles == max resource total in the committed bench JSON."""
    committed = json.loads(
        (REPO_ROOT / "BENCH_table7.json").read_text())["operators"]
    builders = {
        "Pmult": pmult_program, "Hadd": hadd_program,
        "Keyswitch": keyswitch_program, "Cmult": cmult_program,
        "Rotation": rotation_program,
    }
    for name, builder in builders.items():
        report = sim.run(builder())
        golden = max(committed[name]["cycles"].values())
        assert report.pipelined_cycles == golden, name


# --------------------------- engine semantics ---------------------------- #

def test_engine_matches_timeline_without_deps(sim, engine):
    """For a dependency-free program under FCFS the engine reproduces the
    resource-pipelined timeline exactly (it subsumes timeline())."""
    prog = cmult_program()
    stripped = Program(prog.name, poly_degree=prog.poly_degree)
    for op in prog.ops:
        stripped.add(HighLevelOp(**{**op.__dict__, "defs": (), "uses": ()}))
    report = sim.run(stripped)
    mix = engine.run(stripped)
    assert mix.makespan_cycles == report.scheduled_cycles()


def test_dependencies_stall_consumers(engine):
    """A consumer on a *different* resource must still wait for its
    producer — the dep edge serializes what the timeline would overlap."""
    compute_only = HighLevelOp(OpKind.EW_MULT, "prod", elements=1 << 20,
                               traffic_words_per_element=0.0,
                               defs=("t",))
    hbm_only = HighLevelOp(OpKind.HBM_LOAD, "cons", bytes_moved=1 << 20,
                           defs=("c",), uses=("t",))
    dep = Program("dep").add(compute_only).add(hbm_only)
    free = Program("free").add(
        HighLevelOp(**{**compute_only.__dict__, "defs": (), "uses": ()})).add(
        HighLevelOp(**{**hbm_only.__dict__, "defs": (), "uses": ()}))
    with_dep = engine.run(dep).makespan_cycles
    without = engine.run(free).makespan_cycles
    assert without < with_dep
    sched = engine.run(dep).schedule
    assert sched[1].start == sched[0].end


def test_zero_duration_ops_propagate_dependencies(engine):
    prog = Program("markers")
    prog.add(HighLevelOp(OpKind.EW_MULT, "a", elements=1 << 16,
                         defs=("a",)))
    prog.add(HighLevelOp(OpKind.HBM_LOAD, "marker", bytes_moved=0,
                         defs=("m",), uses=("a",)))
    prog.add(HighLevelOp(OpKind.EW_MULT, "b", elements=1 << 16,
                         defs=("b",), uses=("m",)))
    sched = engine.run(prog).schedule
    by_label = {s.label: s for s in sched}
    assert by_label["marker"].start == by_label["marker"].end
    assert by_label["b"].start >= by_label["a"].end


# --------------------------- multi-tenant mixes -------------------------- #

def test_mix_reports_per_tenant_stats(engine):
    mix = engine.run_mix([bootstrapping_program(), pbs_batch_program()],
                         policy="fcfs")
    assert len(mix.tenants) == 2
    for t in mix.tenants:
        assert t.finish_cycles >= t.solo_cycles > 0
        assert t.slowdown >= 1.0
    assert 0.0 < mix.fairness_index() <= 1.0
    assert "fairness" in mix.summary()


def test_mix_duplicate_names_get_suffixed(engine):
    mix = engine.run_mix([cmult_program(), cmult_program()])
    assert [t.name for t in mix.tenants] == ["cmult", "cmult#1"]


def test_round_robin_alternates_tenants(engine):
    mix = engine.run_mix([cmult_program(), bfv_cmult_program()],
                         policy="round-robin")
    first_two = [s.tenant for s in mix.schedule[:2]]
    assert len(set(first_two)) == 2


def test_priority_policy_shields_high_priority_tenant(engine):
    progs = [bootstrapping_program(), pbs_batch_program()]
    favored = engine.run_mix(progs, policy="priority",
                             priorities={"pbs_batch128_N1024": 10})
    starved = engine.run_mix(progs, policy="priority",
                             priorities={"bootstrapping": 10})
    fav = favored.tenant("pbs_batch128_N1024").finish_cycles
    sta = starved.tenant("pbs_batch128_N1024").finish_cycles
    assert fav < sta
    assert favored.tenant("pbs_batch128_N1024").slowdown <= 1.0 + 1e-9


def test_unknown_policy_rejected(engine):
    with pytest.raises(ValueError, match="policy"):
        engine.run_mix([cmult_program()], policy="lottery")


# --------------------------- property: any DAG --------------------------- #

@st.composite
def random_ew_programs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    prog = Program("rand")
    for i in range(n):
        uses = draw(st.lists(st.integers(min_value=0, max_value=max(0, i - 1)),
                             max_size=2, unique=True)) if i else []
        kind = draw(st.sampled_from((OpKind.EW_MULT, OpKind.EW_ADD,
                                     OpKind.HBM_LOAD)))
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


@given(random_ew_programs(), st.sampled_from(POLICIES))
@settings(max_examples=60, deadline=None)
def test_bounds_hold_for_random_programs(prog, policy):
    sim = CycleSimulator()
    engine = EventDrivenSimulator()
    report = sim.run(prog)
    mix = engine.run_mix([prog], policy=policy)
    assert report.pipelined_cycles <= mix.makespan_cycles + 1e-6
    assert mix.makespan_cycles <= report.serialized_cycles + 1e-6
