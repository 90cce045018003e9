"""Tests for the serving event loop and its report."""

import dataclasses

import pytest

from repro.serve import (
    AdmissionController,
    ServingSimulator,
    SlotBatcher,
    generate_trace,
    percentile,
)
from repro.serve.batching import BatchingError
from repro.serve.traffic import SlaClass
from repro.telemetry import TraceCollector


def _trace(profile="steady", seed=0, rate=2000.0, n=60):
    return generate_trace(profile, seed=seed, rate_rps=rate, n_requests=n)


# ----------------------------- percentile ------------------------------ #


def test_percentile_nearest_rank():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 50) == 20.0
    assert percentile(values, 75) == 30.0
    assert percentile(values, 99) == 40.0
    assert percentile(values, 100) == 40.0
    assert percentile([5.0], 99) == 5.0


def test_percentile_edge_cases():
    assert percentile([], 99) == 0.0
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)


# ---------------------------- the event loop ---------------------------- #


def test_single_request_latency_is_pure_service_time():
    trace = _trace(n=1)
    report = ServingSimulator().simulate(trace)
    (outcome,) = report.outcomes
    assert outcome.served and not outcome.shed
    assert outcome.dispatch_us == pytest.approx(trace[0].arrival_us)
    assert outcome.latency_us == pytest.approx(
        outcome.finish_us - trace[0].arrival_us)
    assert outcome.latency_us > 0


def test_every_offered_request_is_accounted_for():
    trace = _trace(n=120)
    report = ServingSimulator().simulate(trace)
    assert report.offered == 120
    assert report.served + report.shed == report.offered
    assert {o.request.rid for o in report.outcomes} == set(range(120))


def test_simulate_rejects_unsorted_trace():
    trace = list(_trace(n=5))
    trace[0], trace[-1] = trace[-1], trace[0]
    with pytest.raises(ValueError, match="sorted"):
        ServingSimulator().simulate(trace)


def test_replay_is_deterministic():
    trace = _trace(n=80)
    a = ServingSimulator().simulate(trace, profile="steady", seed=0,
                                    rate_rps=2000.0)
    b = ServingSimulator().simulate(trace, profile="steady", seed=0,
                                    rate_rps=2000.0)
    assert a.as_dict() == b.as_dict()


def test_goodput_never_exceeds_offered_load():
    for rate in (500.0, 4000.0, 32000.0):
        report = ServingSimulator().simulate(
            _trace(rate=rate, n=100), rate_rps=rate)
        assert report.goodput_rps <= report.offered_rps * (1 + 1e-9)


def test_machine_timeline_is_work_conserving_and_sequential():
    report = ServingSimulator().simulate(_trace(n=150, rate=8000.0))
    assert report.utilization <= 1.0
    batches = sorted(report.batches, key=lambda b: b.start_us)
    for prev, cur in zip(batches, batches[1:]):
        assert cur.start_us >= prev.finish_us - 1e-9
    for b in batches:
        assert b.service_us > 0
        assert b.total_width <= b.slots


def test_requests_never_dispatch_before_arrival():
    report = ServingSimulator().simulate(_trace(n=100, rate=500.0))
    for o in report.outcomes:
        if o.served:
            assert o.dispatch_us >= o.request.arrival_us - 1e-9
            assert o.finish_us > o.dispatch_us


def test_fifo_within_class_and_compat_group():
    """Within one admitted SLA class, requests of the same (scheme, kind,
    width) complete in arrival order — the batcher never reorders them."""
    report = ServingSimulator().simulate(_trace(n=200, rate=16000.0))
    groups = {}
    for o in report.outcomes:
        if not o.served:
            continue
        key = (o.sla, o.request.scheme, o.request.kind, o.request.width)
        groups.setdefault(key, []).append(o)
    for members in groups.values():
        by_arrival = sorted(members, key=lambda o: o.request.rid)
        finishes = [o.finish_us for o in by_arrival]
        assert finishes == sorted(finishes)


def test_tiny_queues_shed_under_shed_mode_but_degrade_first_otherwise():
    classes = (SlaClass("interactive", 1_000.0, 1, rank=0),
               SlaClass("standard", 5_000.0, 1, rank=1),
               SlaClass("batch", 50_000.0, 2, rank=2))
    trace = _trace(n=80, rate=200000.0)
    shed = ServingSimulator(
        admission=AdmissionController(classes=classes, mode="shed"),
    ).simulate(trace)
    degrade = ServingSimulator(
        admission=AdmissionController(classes=classes, mode="degrade"),
    ).simulate(trace)
    assert shed.shed > 0
    assert degrade.degraded > 0
    assert degrade.shed <= shed.shed


def test_shed_requests_never_occupy_the_machine():
    classes = (SlaClass("interactive", 1_000.0, 1, rank=0),
               SlaClass("standard", 5_000.0, 1, rank=1),
               SlaClass("batch", 50_000.0, 1, rank=2))
    report = ServingSimulator(
        admission=AdmissionController(classes=classes, mode="shed"),
    ).simulate(_trace(n=80, rate=200000.0))
    assert report.shed > 0
    for o in report.outcomes:
        if o.shed:
            assert o.batch_id is None and o.latency_us == 0.0


def test_collector_key_absent_without_serving_runs():
    """The trace summary holds traced programs only; serving runs
    report through ``ServeReport.as_dict``."""
    assert TraceCollector().summary_dict() == {"programs": {},
                                               "num_events": 0}


def test_report_dict_shape():
    report = ServingSimulator().simulate(
        _trace(n=60), profile="steady", seed=0, rate_rps=2000.0)
    d = report.as_dict()
    for key in ("profile", "offered", "served", "shed", "degraded",
                "goodput_rps", "p50_us", "p99_us", "sla_violations",
                "classes", "mean_occupancy", "mean_fill", "utilization"):
        assert key in d
    assert set(d["classes"]) == {"interactive", "standard", "batch"}
    for stats in d["classes"].values():
        assert stats["served"] <= stats["admitted"]
        assert 0.0 <= stats["violation_fraction"] <= 1.0


def _count_builds(sim):
    """Record the program key of every batch program ``sim`` builds."""
    real = sim.batcher.program
    built = []

    def counting(batch):
        built.append(batch.program_key())
        return real(batch)

    sim.batcher.program = counting
    return built


def test_shape_memo_builds_each_program_once_across_runs():
    sim = ServingSimulator()
    built = _count_builds(sim)
    first = sim.simulate(_trace(n=40))
    assert built                       # the batch shapes were built...
    assert len(built) == len(set(built))   # ...once per distinct key
    assert len(first.batches) > len(built)  # dispatches reuse shapes
    runs_before = len(built)
    again = sim.simulate(_trace(n=40))
    assert len(built) == runs_before   # a replay reads the memo only
    assert again.as_dict() == first.as_dict()


def test_zero_exchange_violation_raises_even_from_admission():
    """A shape's memo entry is linted when it is built, whether an
    admission probe or a dispatch builds it: a program that implies
    cross-unit slot traffic raises and is never read as admissible."""
    sim = ServingSimulator()
    real = sim.batcher.program

    def cross_unit(batch):
        program = real(batch)
        program.ops[0] = dataclasses.replace(program.ops[0],
                                             poly_degree=3072)
        return program

    sim.batcher.program = cross_unit
    trace = _trace(n=5)
    with pytest.raises(BatchingError, match="zero-exchange"):
        sim.noise_admissible(trace[0])
    with pytest.raises(BatchingError, match="zero-exchange"):
        ServingSimulator(batcher=sim.batcher).simulate(trace)


def test_batch_amortization_beats_unbatched_p99_at_high_load():
    """The headline: packing independent requests into shared ciphertexts
    collapses tail latency at load (CKKS/BFV batch cost is occupancy-
    independent)."""
    trace = _trace(n=250, rate=8000.0, seed=3)
    batched = ServingSimulator().simulate(trace)
    unbatched = ServingSimulator(
        batcher=SlotBatcher(max_requests=1)).simulate(trace)
    p99_b = percentile(batched.latencies_us(), 99)
    p99_u = percentile(unbatched.latencies_us(), 99)
    assert p99_b < p99_u


# ------------------------- noise-admission gate ------------------------- #


def _poison_ckks_programs(sim):
    """Tighten the CKKS programs' declared tolerance past the noise floor,
    so the static verifier proves every CKKS request undecryptable."""
    real = sim.batcher.program

    def poisoned(batch):
        program = real(batch)
        if batch.scheme == "ckks":
            program.metadata["noise"] = dict(
                program.metadata["noise"], tolerance=1e-12)
        return program

    sim.batcher.program = poisoned


def test_statically_undecryptable_requests_are_shed_pre_dispatch():
    trace = _trace(n=120)
    sim = ServingSimulator()
    _poison_ckks_programs(sim)
    report = sim.simulate(trace)
    noise_shed = [o for o in report.outcomes if o.shed_reason == "noise"]
    ckks = [r for r in trace if r.scheme == "ckks"]
    assert ckks, "trace has no CKKS requests; pick another seed"
    # every CKKS request is shed by the static gate, and nothing else is
    assert {o.request.rid for o in noise_shed} == {r.rid for r in ckks}
    assert report.shed_by_noise == len(ckks)
    for o in noise_shed:
        assert o.shed and not o.served
        assert o.sla is None           # no SLA class saves a broken program
    # non-CKKS traffic still flows
    assert any(o.served for o in report.outcomes
               if o.request.scheme != "ckks")


def test_noise_gate_memoizes_per_program_shape():
    sim = ServingSimulator()
    _poison_ckks_programs(sim)
    built = _count_builds(sim)
    trace = _trace(n=80)
    first = sim.simulate(trace)
    # one program build per distinct program key, not per request
    assert built and len(built) == len(set(built))
    assert any(key.startswith("ckks:") for key in built)
    runs_before = len(built)
    second = sim.simulate(trace)
    assert len(built) == runs_before
    # the poisoned shapes are still shed from the memoized verdict
    ckks = {r.rid for r in trace if r.scheme == "ckks"}
    for report in (first, second):
        assert {o.request.rid for o in report.outcomes
                if o.shed_reason == "noise"} == ckks


def test_shed_by_noise_key_only_present_when_nonzero():
    clean = ServingSimulator().simulate(_trace(n=60))
    assert clean.shed_by_noise == 0
    assert "shed_by_noise" not in clean.as_dict()

    sim = ServingSimulator()
    _poison_ckks_programs(sim)
    poisoned = sim.simulate(_trace(n=60))
    assert poisoned.shed_by_noise > 0
    assert poisoned.as_dict()["shed_by_noise"] == poisoned.shed_by_noise


def test_noise_shed_requests_count_as_shed_in_totals():
    trace = _trace(n=120)
    sim = ServingSimulator()
    _poison_ckks_programs(sim)
    report = sim.simulate(trace)
    assert report.served + report.shed == report.offered
    assert report.shed >= report.shed_by_noise


# -------------------------- key-admission gate -------------------------- #


def _unprovision_rotation_key(sim):
    """Drop ``rot:1`` from the CKKS dot programs' provisioned keys, so the
    static key verifier proves every dot request needs a Galois key the
    tenant never uploaded."""
    real = sim.batcher.program

    def unprovisioned(batch):
        program = real(batch)
        if batch.scheme == "ckks" and batch.kind == "dot":
            keys = dict(program.metadata["keys"])
            keys["provisioned"] = {
                name: size for name, size in keys["provisioned"].items()
                if name != "rot:1"}
            program.metadata["keys"] = keys
        return program

    sim.batcher.program = unprovisioned


def _dot_rids(trace):
    rids = {r.rid for r in trace if r.scheme == "ckks" and r.kind == "dot"}
    assert rids, "trace has no CKKS dot requests; pick another seed"
    return rids


def test_requests_needing_unprovisioned_keys_are_shed_pre_dispatch():
    trace = _trace(n=200)
    sim = ServingSimulator()
    _unprovision_rotation_key(sim)
    report = sim.simulate(trace)
    keys_shed = [o for o in report.outcomes if o.shed_reason == "keys"]
    # every CKKS dot request is shed by the key gate, and nothing else is
    assert {o.request.rid for o in keys_shed} == _dot_rids(trace)
    assert report.shed_by_keys == len(keys_shed)
    assert report.shed_by_noise == 0
    for o in keys_shed:
        assert o.shed and not o.served
        assert o.sla is None
    # traffic that needs no rotation key still flows
    assert any(o.served for o in report.outcomes
               if o.request.kind != "dot")


def test_shed_by_keys_key_only_present_when_nonzero():
    trace = _trace(n=200)
    clean = ServingSimulator().simulate(trace)
    assert clean.shed_by_keys == 0
    assert "shed_by_keys" not in clean.as_dict()

    sim = ServingSimulator()
    _unprovision_rotation_key(sim)
    unprovisioned = sim.simulate(trace)
    assert unprovisioned.shed_by_keys > 0
    assert unprovisioned.as_dict()["shed_by_keys"] == \
        unprovisioned.shed_by_keys


def test_shape_failing_both_gates_is_shed_as_noise():
    trace = _trace(n=200)
    sim = ServingSimulator()
    _poison_ckks_programs(sim)
    _unprovision_rotation_key(sim)
    report = sim.simulate(trace)
    reasons = {o.request.rid: o.shed_reason for o in report.outcomes}
    assert {reasons[rid] for rid in _dot_rids(trace)} == {"noise"}
    assert report.shed_by_keys == 0
