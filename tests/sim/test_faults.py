"""Unit tests for the fault-injection & resilience layer.

Covers the fault model/policy validation, seeded-campaign determinism,
the zero-overhead invariant (empty fault model → bit-identical schedules
in the event engine, byte-identical BENCH goldens), each fault class's
timing effect, abort/availability accounting, the fault timeline, the
committed ``BENCH_faults.json`` golden, and the ``repro faults`` CLI.
Faults run on one path: :class:`EventDrivenSimulator` with a
:class:`FaultInjector`.
"""

import json
import pathlib

import pytest

from repro.cli import _workloads, main
from repro.hw.config import ALCHEMIST_DEFAULT
from repro.sim.engine import EventDrivenSimulator
from repro.sim.faults import (
    CAMPAIGNS,
    CoreDropout,
    FAULT_KINDS,
    FaultInjector,
    FaultModel,
    HbmDegradation,
    POLICY_PRESETS,
    ResiliencePolicy,
    ScratchpadLoss,
    TransientFaults,
    build_campaign,
    campaign_seed,
    run_campaign,
    run_workload_campaign,
)
from repro.sim.simulator import CycleSimulator

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

# --------------------------- model validation --------------------------- #


def test_hbm_window_validation():
    with pytest.raises(ValueError, match="bandwidth_factor"):
        HbmDegradation(0.0, 10.0, bandwidth_factor=0.0)
    with pytest.raises(ValueError, match="bandwidth_factor"):
        HbmDegradation(0.0, 10.0, bandwidth_factor=1.5)
    with pytest.raises(ValueError, match="positive length"):
        HbmDegradation(10.0, 10.0, bandwidth_factor=0.5)
    window = HbmDegradation(10.0, 20.0, bandwidth_factor=0.5)
    assert window.active_at(10.0) and window.active_at(19.9)
    assert not window.active_at(9.9) and not window.active_at(20.0)


def test_dropout_and_loss_validation():
    with pytest.raises(ValueError, match="at least one core"):
        CoreDropout(at_cycle=0.0, cores=0)
    with pytest.raises(ValueError, match="non-negative"):
        CoreDropout(at_cycle=-1.0, cores=1)
    with pytest.raises(ValueError, match="at least one byte"):
        ScratchpadLoss(bytes_lost=0)
    with pytest.raises(ValueError, match="probability"):
        TransientFaults(probability=1.0)
    with pytest.raises(ValueError, match="probability"):
        TransientFaults(probability=-0.1)


def test_model_queries():
    model = FaultModel(
        seed=7,
        hbm_events=(HbmDegradation(100.0, 200.0, 0.5),),
        dropouts=(CoreDropout(50.0, 8), CoreDropout(150.0, 4)),
        scratchpad_losses=(ScratchpadLoss(1024), ScratchpadLoss(2048)),
    )
    assert not model.is_empty()
    assert model.hbm_window_at(150.0).bandwidth_factor == 0.5
    assert model.hbm_window_at(250.0) is None
    assert model.cores_lost_at(0.0) == 0
    assert model.cores_lost_at(60.0) == 8
    assert model.cores_lost_at(151.0) == 12      # dropouts stack
    assert model.total_scratchpad_loss() == 3072
    assert FaultModel.empty().is_empty()


def test_attempt_draws_deterministic_and_distinct():
    model = FaultModel(seed=1, transient=TransientFaults(0.5))
    draws = [model.attempt_fails("w", i, 1) for i in range(64)]
    assert draws == [model.attempt_fails("w", i, 1) for i in range(64)]
    assert any(draws) and not all(draws)         # ~half fail at p=0.5
    other_seed = FaultModel(seed=2, transient=TransientFaults(0.5))
    assert draws != [other_seed.attempt_fails("w", i, 1) for i in range(64)]
    assert not FaultModel(seed=1).attempt_fails("w", 0, 1)  # no transient


# --------------------------- policy ------------------------------------- #


def test_policy_validation():
    with pytest.raises(ValueError, match="max_attempts"):
        ResiliencePolicy(max_attempts=0)
    with pytest.raises(ValueError, match="on_exhaust"):
        ResiliencePolicy(on_exhaust="panic")
    with pytest.raises(ValueError, match="degrade_factor"):
        ResiliencePolicy(degrade_factor=0.5)
    with pytest.raises(ValueError, match="backoff_multiplier"):
        ResiliencePolicy(backoff_multiplier=0.9)


def test_backoff_is_exponential():
    policy = ResiliencePolicy(backoff_base_cycles=10.0,
                              backoff_multiplier=2.0)
    assert policy.backoff_cycles(1) == 10.0
    assert policy.backoff_cycles(2) == 20.0
    assert policy.backoff_cycles(3) == 40.0
    with pytest.raises(ValueError, match="1-based"):
        policy.backoff_cycles(0)


def test_policy_presets_consistent():
    for name, policy in POLICY_PRESETS.items():
        assert policy.name == name
    assert POLICY_PRESETS["fail-fast"].max_attempts == 1
    assert POLICY_PRESETS["retry-abort"].on_exhaust == "abort"


# --------------------------- campaigns ---------------------------------- #


def test_build_campaign_deterministic():
    for name in CAMPAIGNS:
        a = build_campaign(name, 42, 1e6, ALCHEMIST_DEFAULT)
        b = build_campaign(name, 42, 1e6, ALCHEMIST_DEFAULT)
        assert a == b
    assert build_campaign("none", 42, 1e6, ALCHEMIST_DEFAULT).is_empty()
    assert (build_campaign("storm", 1, 1e6, ALCHEMIST_DEFAULT)
            != build_campaign("storm", 2, 1e6, ALCHEMIST_DEFAULT))


def test_build_campaign_unknown_name():
    with pytest.raises(ValueError, match="unknown campaign"):
        build_campaign("meteor", 0, 1e6, ALCHEMIST_DEFAULT)


def test_campaign_seed_varies_by_workload():
    assert campaign_seed(0, "hadd") != campaign_seed(0, "cmult")
    assert campaign_seed(5, "hadd") == campaign_seed(5, "hadd")


def test_campaign_events_land_inside_the_span():
    model = build_campaign("storm", 9, 1e6, ALCHEMIST_DEFAULT)
    for window in model.hbm_events:
        assert 0.0 < window.start_cycle < 1e6
    for drop in model.dropouts:
        assert 0.0 < drop.at_cycle < 1e6
    total = (ALCHEMIST_DEFAULT.num_units * ALCHEMIST_DEFAULT.cores_per_unit)
    assert 0 < model.cores_lost_at(float("inf")) < total // 2


# --------------------------- zero-overhead invariant --------------------- #


def test_empty_model_is_bit_identical_in_engine():
    for name, program in _workloads().items():
        engine = EventDrivenSimulator()
        plain = engine.run(program)
        injector = FaultInjector(FaultModel.empty())
        injected = engine.run(program, injector=injector)
        assert plain.makespan_cycles == injected.makespan_cycles, name
        assert plain.schedule == injected.schedule, name
        assert injector.ops_completed == injector.ops_total == len(program.ops)
        assert not injector.events


def test_bench_goldens_byte_identical_with_fault_layer_present():
    """Adding the fault layer must not move a single byte of the committed
    Table 7 / Figure 6 goldens (no faults configured anywhere)."""
    from repro.telemetry.bench import bench_fig6, bench_table7

    for stem, doc in (("BENCH_table7", bench_table7()),
                      ("BENCH_fig6", bench_fig6())):
        committed = (REPO_ROOT / f"{stem}.json").read_text()
        regenerated = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        assert regenerated == committed, stem


# --------------------------- fault effects ------------------------------- #


def _keyswitch():
    return _workloads()["keyswitch"]


def test_brownout_inflates_hbm_only():
    program = _keyswitch()
    engine = EventDrivenSimulator()
    base = engine.run(program)
    model = FaultModel(
        seed=0, hbm_events=(HbmDegradation(0.0, 1e12, 0.5),))
    hit = engine.run(program, injector=FaultInjector(model))
    before, after = base.resource_cycles(), hit.resource_cycles()
    assert after.hbm_cycles == 2 * before.hbm_cycles
    assert after.compute_cycles == before.compute_cycles
    assert after.sram_cycles == before.sram_cycles
    assert hit.makespan_cycles >= base.makespan_cycles


def test_dropout_inflates_compute_only():
    program = _keyswitch()
    engine = EventDrivenSimulator()
    base = engine.run(program)
    model = FaultModel(seed=0, dropouts=(CoreDropout(0.0, 1024),))
    hit = engine.run(program, injector=FaultInjector(model))
    before, after = base.resource_cycles(), hit.resource_cycles()
    assert after.compute_cycles > before.compute_cycles
    assert after.sram_cycles == before.sram_cycles
    assert after.hbm_cycles == before.hbm_cycles
    # the injector re-costs through the shared model: more waves, same work
    assert (sum(s.timing.waves for s in hit.schedule)
            > sum(s.timing.waves for s in base.schedule))


def test_dropout_emits_timeline_event():
    injector = FaultInjector(
        FaultModel(seed=0, dropouts=(CoreDropout(0.0, 64),)))
    EventDrivenSimulator().run(_keyswitch(), injector=injector)
    kinds = [e.kind for e in injector.events]
    assert "core_dropout" in kinds
    event = next(e for e in injector.events if e.kind == "core_dropout")
    total = ALCHEMIST_DEFAULT.num_units * ALCHEMIST_DEFAULT.cores_per_unit
    assert event.details["cores_remaining"] == total - 64


def test_transient_retries_are_bounded_and_counted():
    policy = ResiliencePolicy(max_attempts=3, backoff_base_cycles=16.0)
    model = FaultModel(seed=3, transient=TransientFaults(0.5))
    injector = FaultInjector(model, policy=policy)
    base = EventDrivenSimulator().run(_keyswitch())
    hit = EventDrivenSimulator().run(_keyswitch(), injector=injector)
    assert injector.total_failures > 0
    assert injector.max_retries_per_op() <= policy.max_attempts - 1
    assert hit.makespan_cycles >= base.makespan_cycles
    assert injector.availability == 1.0          # degrade never aborts
    kinds = {e.kind for e in injector.events}
    assert "transient_failure" in kinds


def test_abort_policy_skips_remaining_ops():
    """The op that exhausts a fail-fast policy and every op dispatched
    after it are left off the schedule."""
    model = FaultModel(seed=1, transient=TransientFaults(0.9))
    injector = FaultInjector(model, policy=POLICY_PRESETS["fail-fast"])
    program = _keyswitch()
    mix = EventDrivenSimulator().run(program, injector=injector)
    aborts = [e for e in injector.events if e.kind == "abort"]
    assert len(aborts) == 1
    abort = aborts[0]
    assert injector.events[-1] is abort       # skipped ops draw no faults
    assert abort.op_index not in {s.index for s in mix.schedule}
    assert all(s.start <= abort.cycle for s in mix.schedule)
    assert injector.ops_total - injector.ops_completed == (
        len(program.ops) - len(mix.schedule))


def test_abort_in_engine_drains_remaining_ops():
    model = FaultModel(seed=1, transient=TransientFaults(0.9))
    injector = FaultInjector(model, policy=POLICY_PRESETS["fail-fast"])
    program = _keyswitch()
    mix = EventDrivenSimulator().run(program, injector=injector)
    assert injector.aborted == {program.name}
    assert injector.ops_total == len(program.ops)
    assert injector.ops_completed < len(program.ops)
    assert injector.availability < 1.0
    assert len(mix.schedule) == injector.ops_completed
    assert any(e.kind == "abort" for e in injector.events)


def test_scratchpad_loss_triggers_respill():
    config = ALCHEMIST_DEFAULT
    loss = config.total_onchip_bytes - (2 << 20)   # leave only 2 MB
    model = FaultModel(seed=0, scratchpad_losses=(ScratchpadLoss(loss),))
    injector = FaultInjector(model, config=config)
    program = _keyswitch()
    prepared = injector.prepare(program)
    assert injector.respill_ops_added > 0
    assert len(prepared.ops) == len(program.ops) + injector.respill_ops_added
    assert prepared.name == program.name           # name stays stable
    assert any(e.kind == "scratchpad_loss" for e in injector.events)
    base = EventDrivenSimulator().run(program)
    hit = EventDrivenSimulator().run(program, injector=FaultInjector(
        model, config=config))
    assert hit.makespan_cycles > base.makespan_cycles


def test_scratchpad_loss_beyond_capacity_rejected():
    model = FaultModel(seed=0, scratchpad_losses=(
        ScratchpadLoss(ALCHEMIST_DEFAULT.total_onchip_bytes),))
    with pytest.raises(ValueError, match="exceeds on-chip capacity"):
        FaultInjector(model).prepare(_keyswitch())


def test_respill_with_supplied_timings_is_rejected():
    """A scratchpad loss that re-spills the program cannot be charged
    against timings of the original op list: the engine refuses instead
    of silently dropping (or skipping) the spill traffic."""
    from repro.compiler.ckks_programs import bootstrapping_program

    program = bootstrapping_program()
    largest = max(op.footprint_bytes(ALCHEMIST_DEFAULT.word_bytes)
                  for op in program.ops)
    model = FaultModel(seed=0, scratchpad_losses=(ScratchpadLoss(
        ALCHEMIST_DEFAULT.total_onchip_bytes - largest + 1),))
    timings = CycleSimulator().time_program(program)
    engine = EventDrivenSimulator()
    with pytest.raises(ValueError, match="supplied timings"):
        engine.run(program, timings=timings, injector=FaultInjector(model))
    # left to time the program itself, the engine charges the re-spill
    injector = FaultInjector(model)
    hit = engine.run(program, injector=injector)
    base = engine.run(program)
    assert injector.respill_ops_added > 0
    assert len(hit.schedule) == len(program.ops) + injector.respill_ops_added
    assert (hit.resource_cycles().hbm_cycles
            > base.resource_cycles().hbm_cycles)
    assert hit.makespan_cycles > base.makespan_cycles


# --------------------------- campaign reports ---------------------------- #


def test_run_workload_campaign_replay_is_identical():
    a = run_workload_campaign("cmult", [_workloads()["cmult"]],
                              campaign="storm", seed=11)
    b = run_workload_campaign("cmult", [_workloads()["cmult"]],
                              campaign="storm", seed=11)
    assert a.as_dict() == b.as_dict()
    assert a.inflation >= 1.0
    assert 0.0 <= a.availability <= 1.0


def test_run_campaign_rejects_unknown_workload():
    with pytest.raises(ValueError, match="unknown campaign workload"):
        run_campaign(workloads=["nonsense"], include_mix=False)


def test_bench_faults_golden_byte_identical():
    """`repro faults --seed 0 --campaign default` must reproduce the
    committed BENCH_faults.json byte for byte, and every fault kind on its
    timelines is one of FAULT_KINDS."""
    committed = (REPO_ROOT / "BENCH_faults.json").read_text()
    doc = run_campaign()
    regenerated = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    assert regenerated == committed
    reports = list(doc["workloads"].values()) + [doc["mix"]]
    kinds = {e["kind"] for r in reports for e in r["timeline"]}
    assert kinds and kinds <= set(FAULT_KINDS)


# --------------------------- CLI ----------------------------------------- #


def test_cli_faults_runs_and_is_deterministic(capsys):
    argv = ["faults", "--campaign", "storm", "--seed", "1",
            "hadd", "cmult", "--no-mix", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["schema"] == "alchemist-bench/faults/v1"
    assert set(doc["workloads"]) == {"hadd", "cmult"}


def test_cli_faults_accepts_aliases(capsys):
    assert main(["faults", "tfhe-pbs", "--no-mix", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["workloads"]) == {"pbs-i"}


def test_cli_faults_usage_errors():
    assert main(["faults", "--campaign", "meteor"]) == 2
    assert main(["faults", "--policy", "hope"]) == 2
    assert main(["faults", "nonsense"]) == 2


def test_cli_faults_abort_exit_code():
    assert main(["faults", "--campaign", "transient", "--policy",
                 "fail-fast", "bootstrapping", "--no-mix"]) == 1


def test_cli_faults_writes_output_file(tmp_path, capsys):
    out = tmp_path / "faults.json"
    assert main(["faults", "--campaign", "hbm", "--seed", "2",
                 "keyswitch", "--no-mix", "-o", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["campaign"] == "hbm" and doc["seed"] == 2
    assert list(doc["workloads"]) == ["keyswitch"]
