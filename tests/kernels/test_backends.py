"""Backend registry, selection, and plumbing tests for ``repro.kernels``."""

import numpy as np
import pytest

from repro.kernels import (
    DEFAULT_BACKEND,
    ENV_VAR,
    KernelBackend,
    available_backends,
    backend_scope,
    get_backend,
    set_backend,
)
from repro.kernels.contract import as_primes
from repro.ntmath.primes import generate_ntt_primes


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test here leaves the process-wide selection as it found it."""
    import repro.kernels as kernels

    prior = kernels._active
    yield
    kernels._active = prior


def test_registry_lists_all_backends_default_first():
    names = available_backends()
    assert names[0] == DEFAULT_BACKEND == "numpy"
    assert names == ("numpy", "reference")


def test_default_backend_is_numpy(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    set_backend(None)  # fall back to env var / default
    assert get_backend().name == "numpy"


def test_every_backend_satisfies_the_protocol():
    for name in available_backends():
        with backend_scope(name) as backend:
            assert isinstance(backend, KernelBackend)
            assert backend.name == name


def test_set_backend_by_name_and_instance():
    ref = set_backend("reference")
    assert get_backend() is ref and ref.name == "reference"
    np_backend = set_backend("numpy")
    assert set_backend(ref) is ref
    assert get_backend() is ref
    set_backend(np_backend)
    assert get_backend() is np_backend


def test_set_backend_unknown_name_raises():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        set_backend("cuda")


def test_env_var_selection(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "reference")
    set_backend(None)  # clear so the next get_backend re-reads the env
    assert get_backend().name == "reference"


def test_backend_scope_restores_prior():
    outer = get_backend()
    with backend_scope("reference") as inner:
        assert get_backend() is inner
        assert inner.name == "reference"
    assert get_backend() is outer


def test_backend_scope_rejects_none():
    """``None`` is a TypeError before any switch, also under ``python -O``
    (no ``assert`` guards it)."""
    outer = get_backend()
    with pytest.raises(TypeError):
        with backend_scope(None):
            pass
    assert get_backend() is outer


def test_backend_scope_restores_on_error():
    outer = get_backend()
    with pytest.raises(RuntimeError):
        with backend_scope("reference"):
            raise RuntimeError("boom")
    assert get_backend() is outer


def test_module_dispatch_follows_active_backend():
    """The rns layer routes Moddown through the active backend."""
    from repro.rns.rns_poly import RNSRing

    primes = generate_ntt_primes(30, 64, 4)
    rng = np.random.default_rng(7)
    x = RNSRing(64, primes).sample_uniform(rng)

    class Recording:
        def __init__(self, inner):
            self._inner = inner
            self.calls = 0

        def __getattr__(self, item):
            return getattr(self._inner, item)

        def moddown(self, x, source, special):
            self.calls += 1
            return self._inner.moddown(x, source, special)

    recorder = Recording(get_backend())
    with backend_scope(recorder):
        out = x.moddown(2)
    assert recorder.calls == 1
    assert out.primes == tuple(primes[:2]) and out.data.shape == (2, 64)


@pytest.mark.parametrize("make", [
    list, np.array, lambda ps: np.array(ps, dtype=np.uint64),
    lambda ps: tuple(np.uint64(q) for q in ps),
    lambda ps: tuple(np.int64(q) for q in ps),
], ids=["list", "array", "uint64-array", "uint64-tuple", "int64-tuple"])
def test_as_primes_normalizes_other_sequences(make):
    primes = tuple(generate_ntt_primes(30, 64, 4))
    out = as_primes(make(primes))
    assert out == primes
    assert type(out) is tuple and all(type(q) is int for q in out)


def test_as_primes_returns_a_tuple_of_ints_as_it_is():
    primes = tuple(generate_ntt_primes(30, 64, 4))
    assert as_primes(primes) is primes
    assert as_primes(()) == ()


def _golden():
    import json
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[2]
    return json.loads((root / "BENCH_kernels.json").read_text())


def test_kernels_golden_gates_batched_pbs_per_gate():
    """The committed golden passes the floors, and ``check_floors`` flags a
    one-pass ``pbs_batch`` that is not 1.5x faster per gate than ``pbs``."""
    import copy

    from repro.kernels.bench import PAPER_SPEEDUP_FLOOR, SCHEMA, check_floors

    doc = _golden()
    assert doc["schema"] == SCHEMA
    assert check_floors(doc, PAPER_SPEEDUP_FLOOR) == []
    slow = copy.deepcopy(doc)
    entry = slow["ops"]["pbs_batch"]
    scale = (1.4 * slow["ops"]["pbs"]["batched_ops_per_s"]
             / entry["batched_ops_per_s"])
    entry["batched_ops_per_s"] *= scale
    entry["batched_iqr"] = [v * scale for v in entry["batched_iqr"]]
    entry["speedup"] = entry["batched_ops_per_s"] / entry["reference_ops_per_s"]
    problems = check_floors(slow, PAPER_SPEEDUP_FLOOR)
    assert len(problems) == 1 and "pbs_batch" in problems[0], problems


@pytest.mark.parametrize("floor", [float("nan"), 0.0, -1.0, float("inf")])
def test_check_floors_rejects_a_floor_that_cannot_fail(floor):
    """A NaN floor compares false with every speedup and a floor of 0 or
    less is cleared by any, so ``check_floors`` raises for them (and for
    infinity) instead of passing the gate."""
    from repro.kernels.bench import check_floors

    with pytest.raises(ValueError, match="positive and finite"):
        check_floors(_golden(), floor)


def test_kernels_golden_reports_medians_with_their_spread():
    """Each rate is a median of several loops with an IQR around it; an
    entry without a bracketing IQR fails the gate."""
    import copy

    from repro.kernels.bench import PAPER_LOOPS, PAPER_SPEEDUP_FLOOR, check_floors

    doc = _golden()
    assert doc["config"]["loops"] == PAPER_LOOPS
    for name, entry in doc["ops"].items():
        for side in ("reference", "batched"):
            lo, hi = entry[f"{side}_iqr"]
            assert lo <= entry[f"{side}_ops_per_s"] <= hi, name
    for mangle in (lambda e: e.pop("batched_iqr"),
                   lambda e: e.update(reference_iqr=[0.0, 1e-9])):
        bad = copy.deepcopy(doc)
        mangle(bad["ops"]["ntt_forward"])
        problems = check_floors(bad, PAPER_SPEEDUP_FLOOR)
        assert len(problems) == 1 and "ntt_forward" in problems[0], problems


def test_kernel_bench_builds_its_cmult_stack():
    """``repro kernels`` (also ``--quick``) builds its Cmult composite from
    the key generator's parts, the top-level relinearization key alone;
    at the quick scale the stack builds, and its product is bit for bit
    the same on both backends."""
    from repro.kernels.bench import QUICK_SCALE, _ckks_stack

    evaluator, ct = _ckks_stack(QUICK_SCALE)
    out = evaluator.multiply_rescale(ct, ct)
    assert out.level == QUICK_SCALE["num_levels"] - 1
    with backend_scope("reference"):
        again = evaluator.multiply_rescale(ct, ct)
    for a, b in zip(out.parts, again.parts):
        assert np.array_equal(a.data, b.data)
