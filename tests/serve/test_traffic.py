"""Tests for the seeded open-loop traffic generator."""

import pytest

from repro.serve.traffic import (
    KINDS_BY_SCHEME,
    PROFILES,
    SLA_BY_NAME,
    SLA_CLASSES,
    Request,
    SlaClass,
    generate_trace,
    offered_load_rps,
    trace_digest,
)


def test_replay_is_identical():
    a = generate_trace("steady", seed=7, rate_rps=1000.0, n_requests=100)
    b = generate_trace("steady", seed=7, rate_rps=1000.0, n_requests=100)
    assert a == b
    assert trace_digest(a) == trace_digest(b)


def test_different_seeds_differ():
    a = generate_trace("steady", seed=1, rate_rps=1000.0, n_requests=50)
    b = generate_trace("steady", seed=2, rate_rps=1000.0, n_requests=50)
    assert a != b
    assert trace_digest(a) != trace_digest(b)


def test_profiles_share_population_but_not_arrivals():
    """The profile shapes *when* requests land, never *what* they are —
    the stream-alignment property the load sweeps rely on."""
    traces = {p: generate_trace(p, seed=3, rate_rps=1000.0, n_requests=80)
              for p in PROFILES}
    keys = {p: [(r.scheme, r.kind, r.width, r.sla, r.payload_seed)
                for r in t] for p, t in traces.items()}
    assert keys["steady"] == keys["diurnal"] == keys["storm"]
    arrivals = {p: [r.arrival_us for r in t] for p, t in traces.items()}
    assert arrivals["steady"] != arrivals["diurnal"]
    assert arrivals["steady"] != arrivals["storm"]
    digests = {trace_digest(t) for t in traces.values()}
    assert len(digests) == 3


def test_rate_rescales_arrivals_exactly():
    slow = generate_trace("diurnal", seed=5, rate_rps=100.0, n_requests=60)
    fast = generate_trace("diurnal", seed=5, rate_rps=400.0, n_requests=60)
    for s, f in zip(slow, fast):
        assert f.arrival_us == pytest.approx(s.arrival_us / 4.0, rel=1e-12)


def test_arrivals_sorted_and_fields_valid():
    trace = generate_trace("storm", seed=11, rate_rps=2000.0, n_requests=120)
    assert len(trace) == 120
    assert [r.rid for r in trace] == list(range(120))
    for prev, cur in zip(trace, trace[1:]):
        assert cur.arrival_us >= prev.arrival_us >= 0.0
    for r in trace:
        assert r.kind in KINDS_BY_SCHEME[r.scheme]
        assert r.sla in SLA_BY_NAME
        assert r.width >= 1 and r.width & (r.width - 1) == 0
        if r.scheme == "tfhe":
            assert r.width == 1


def test_steady_offered_load_tracks_rate():
    trace = generate_trace("steady", seed=0, rate_rps=5000.0,
                           n_requests=400)
    assert offered_load_rps(trace) == pytest.approx(5000.0, rel=0.25)


def test_offered_load_degenerate_cases():
    assert offered_load_rps(()) == 0.0
    one = generate_trace("steady", seed=0, rate_rps=100.0, n_requests=1)
    assert offered_load_rps(one) > 0.0


@pytest.mark.parametrize("kwargs", [
    {"profile": "nope", "seed": 0, "rate_rps": 1.0, "n_requests": 1},
    {"profile": "steady", "seed": 0, "rate_rps": 0.0, "n_requests": 1},
    {"profile": "steady", "seed": 0, "rate_rps": -5.0, "n_requests": 1},
    {"profile": "steady", "seed": 0, "rate_rps": float("nan"),
     "n_requests": 1},
    {"profile": "steady", "seed": 0, "rate_rps": float("inf"),
     "n_requests": 1},
    {"profile": "steady", "seed": 0, "rate_rps": 1.0, "n_requests": 0},
])
def test_generate_trace_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        generate_trace(**kwargs)


def test_sla_classes_are_ranked_and_loosening():
    ranks = [c.rank for c in SLA_CLASSES]
    assert ranks == sorted(ranks)
    targets = [c.latency_target_us for c in SLA_CLASSES]
    assert targets == sorted(targets)
    depths = [c.max_queue_depth for c in SLA_CLASSES]
    assert depths == sorted(depths)


@pytest.mark.parametrize("field,value", [
    ("scheme", "rsa"),
    ("kind", "gate"),          # gate is TFHE-only; request is CKKS
    ("width", 3),
    ("width", 0),
    ("sla", "platinum"),
    ("arrival_us", -1.0),
    ("arrival_us", float("nan")),      # no serving loop ever admits it
    ("arrival_us", float("inf")),
])
def test_request_validation(field, value):
    good = dict(rid=0, arrival_us=0.0, scheme="ckks", kind="scale",
                width=64, sla="standard", payload_seed=1)
    good[field] = value
    with pytest.raises(ValueError):
        Request(**good)


def test_sla_class_validation():
    with pytest.raises(ValueError):
        SlaClass("x", latency_target_us=0.0, max_queue_depth=1, rank=0)
    with pytest.raises(ValueError):
        SlaClass("x", latency_target_us=1.0, max_queue_depth=0, rank=0)


def test_request_as_dict_round_trips_fields():
    r = generate_trace("steady", seed=0, rate_rps=1.0, n_requests=1)[0]
    d = r.as_dict()
    assert d["rid"] == r.rid and d["payload_seed"] == r.payload_seed
    assert set(d) == {"rid", "arrival_us", "scheme", "kind", "width",
                      "sla", "payload_seed"}
