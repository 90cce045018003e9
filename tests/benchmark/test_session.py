"""Smoke runs, correctness oracles and traced-run invariants, in process.

One session per workload is set up once (seed 0, one warm-up request)
and shared: a 0.2 s untraced window, then one traced request whose
index already ran untraced, so the two outputs can be compared.
"""

import pytest

from benchmarks.e2e import workloads
from benchmarks.e2e.session import Sample, Session, Window
from benchmarks.e2e.speed import REFERENCE_S
from benchmarks.e2e.tracer import LAYERS, REQUEST, SPANS, Tracer, resolve
from benchmarks.e2e.workloads import WORKLOADS


@pytest.fixture(scope="module", params=list(WORKLOADS))
def traced_run(request):
    session = Session(request.param, seed=0, warmup=1)
    window = session.measure(0.2)
    first = window.samples[0]
    tracer = Tracer()
    with tracer.installed():
        traced = session.run_one(first.index, tracer)
    return session, window, first, traced, tracer


def test_smoke_run_is_correct(traced_run):
    session, window, _, _, _ = traced_run
    assert session.warmup_ok
    assert window.samples and window.failed == 0
    metrics = window.metrics()
    assert metrics["failed_fraction"] == 0.0
    assert metrics["latency_ms.p50"] > 0 and metrics["ops_per_s"] > 0
    # every timed request carries its own probe time
    assert all(s.probe_s != REFERENCE_S for s in window.samples)


def test_timings_are_scaled_to_the_reference_speed():
    def window(seconds, probe_s):
        return Window([Sample(i, s, True, probe_s=probe_s)
                       for i, s in enumerate(seconds)], elapsed_s=1.0)

    quiet = window([0.10, 0.12, 0.30], REFERENCE_S).metrics()
    # the same requests on a host running at half speed
    slow = window([0.20, 0.24, 0.60], 2 * REFERENCE_S).metrics()
    assert slow == pytest.approx(quiet)
    assert quiet["latency_ms.p50"] == pytest.approx(120.0)
    assert quiet["ops_per_s"] == pytest.approx(3 / 0.52)


def test_traced_output_equals_untraced(traced_run):
    _, _, first, traced, _ = traced_run
    assert traced.ok
    assert traced.digest == first.digest


def test_child_spans_lie_inside_their_parent(traced_run):
    spans = traced_run[4].spans
    assert spans and spans[0][0] == REQUEST
    for name, start, end, parent, _req, _work in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2], name


def test_layer_self_times_add_up_to_wall_time(traced_run):
    per_request = traced_run[4].per_request()
    assert len(per_request) == 1
    for m in per_request.values():
        total = sum(m.get(f"{layer}.self_ms", 0.0) for layer in LAYERS)
        total += m["request.self_ms"]
        assert total == pytest.approx(m["wall_ms"], rel=0.01)


def test_workload_touches_its_layer(traced_run):
    session, _, _, _, tracer = traced_run
    layer = {"ckks-chain": "kernels", "ckks-bootstrap": "ckks",
             "tfhe-int": "tfhe", "bfv-mult": "bfv",
             "toolchain": "cost"}[session.workload.name]
    assert tracer.per_layer(0.0)[f"{layer}.self_share"] > 0
    assert not tracer.missing


def test_uninstall_restores_every_wrapped_object():
    from repro import kernels

    targets = [t for _, _, group in SPANS for t in group]
    before = {t: resolve(t)[2] for t in targets}
    backend = kernels.get_backend()
    with Tracer().installed():
        assert kernels.get_backend() is not backend
        assert all(resolve(t)[2] is not before[t] for t in targets)
    assert kernels.get_backend() is backend
    assert all(resolve(t)[2] is before[t] for t in targets)
    # functions imported by name elsewhere are restored there too
    import repro.bfv.scheme
    import repro.rns.keyswitch

    assert (repro.bfv.scheme.hybrid_keyswitch
            is repro.rns.keyswitch.hybrid_keyswitch)


# ------------------------------ oracles --------------------------------- #


@pytest.fixture(scope="module")
def bfv_session():
    return Session("bfv-mult", seed=3, warmup=1)


def test_wrong_output_is_counted_and_the_loop_continues(bfv_session,
                                                        monkeypatch):
    from repro.bfv import BFVDecryptor

    calls = {"n": 0}
    original = BFVDecryptor.decrypt_values

    def every_other_wrong(self, ct):
        calls["n"] += 1
        out = original(self, ct)
        return out + 1 if calls["n"] % 2 else out

    monkeypatch.setattr(BFVDecryptor, "decrypt_values", every_other_wrong)
    window = bfv_session.measure(0.3)
    assert len(window.samples) >= 3
    assert 0 < window.failed < len(window.samples)
    assert window.metrics()["failed_fraction"] > 0


def test_raising_op_is_counted_and_the_loop_continues(bfv_session,
                                                      monkeypatch):
    from repro.bfv import BFVEvaluator

    calls = {"n": 0}
    original = BFVEvaluator.multiply

    def raise_once(self, a, b, relin=True):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("injected")
        return original(self, a, b, relin)

    monkeypatch.setattr(BFVEvaluator, "multiply", raise_once)
    window = bfv_session.measure(0.2)
    assert len(window.samples) >= 2
    assert window.failed == 1 and not window.samples[0].ok
    assert window.metrics()["failed_fraction"] > 0


def test_toolchain_checks_the_committed_goldens():
    # the real seed-0 outputs pass (the toolchain warm-up above); here the
    # oracle itself: the goldens pass, one changed byte fails
    from benchmarks.e2e.metrics import ROOT

    golden = {name: (ROOT / path).read_text()
              for name, path in workloads.TOOLCHAIN_GOLDENS.items()}
    wl = WORKLOADS["toolchain"]

    def check(serve_text):
        ctx = wl.setup(0, None)
        output = {"lint": (0, ""), "analyze": (0, "[]"),
                  "serve": (1, serve_text), "faults": (0, golden["faults"])}
        return wl.check(ctx, None, output).ok

    assert check(golden["serve"])
    assert not check(golden["serve"].replace("7345.9", "7345.8", 1))
