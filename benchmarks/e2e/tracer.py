"""Span tracer for the benchmark's traced run.

The tracer wraps each layer's public functions from outside the program:
methods are replaced on their class, module-level functions in every
``repro`` module that holds them, and the kernel layer is traced through
a delegating :class:`~repro.kernels.contract.KernelBackend` installed
with ``repro.kernels.set_backend``.  Each call records one span: name,
start, end, parent span and request id.  Spans stay in memory until the
run ends; :meth:`Tracer.chrome_trace` exports them for Perfetto and
:meth:`Tracer.per_layer` reduces them to the per-layer metrics.

The layer of a span is the first component of its name.  A span's self
time is its duration minus the durations of its children; per request,
the self times of all spans add up to the request's wall time.

Only the traced run imports this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Every traced span: its name, the statistics exported as per-layer
#: metrics (``calls``, ``self_ms`` and ``incl_ms``, each per request), and
#: the functions it wraps as ``module:qualified.name``.  Kernel spans wrap
#: no function; the delegating backend records them.
SPANS: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...] = (
    ("kernels.ntt_forward", ("calls", "self_ms"), ()),
    ("kernels.ntt_inverse", ("calls", "self_ms"), ()),
    ("kernels.pointwise_mul", ("calls", "self_ms"), ()),
    ("kernels.pointwise_other", ("calls", "self_ms"), ()),
    ("kernels.automorphism", ("calls", "self_ms"), ()),
    ("kernels.bconv", ("calls", "self_ms"), ()),
    ("kernels.modup", ("calls", "self_ms"), ()),
    ("kernels.moddown", ("calls", "self_ms"), ()),
    ("kernels.rescale", ("calls", "self_ms"), ()),
    ("rns.hybrid_keyswitch", ("calls", "self_ms"),
     ("repro.rns.keyswitch:hybrid_keyswitch",)),
    ("ckks.encode", ("self_ms",), ("repro.ckks.encoder:CKKSEncoder.encode",)),
    ("ckks.decode", ("self_ms",), ("repro.ckks.encoder:CKKSEncoder.decode",)),
    ("ckks.encrypt", ("self_ms",),
     ("repro.ckks.encryptor:CKKSEncryptor.encrypt_values",)),
    ("ckks.decrypt", ("self_ms",),
     ("repro.ckks.encryptor:CKKSDecryptor.decrypt",)),
    ("ckks.multiply", ("self_ms",),
     ("repro.ckks.evaluator:CKKSEvaluator.multiply",)),
    ("ckks.relinearize", ("self_ms",),
     ("repro.ckks.evaluator:CKKSEvaluator.relinearize",)),
    ("ckks.rescale", ("self_ms",),
     ("repro.ckks.evaluator:CKKSEvaluator.rescale",)),
    ("ckks.apply_galois", ("calls", "self_ms"),
     ("repro.ckks.evaluator:CKKSEvaluator.apply_galois",)),
    ("ckks.linear_transform", ("calls", "self_ms"),
     ("repro.ckks.linear:SlotLinearTransform.apply",)),
    ("ckks.bootstrap.mod_raise", ("incl_ms",),
     ("repro.ckks.bootstrap:CKKSBootstrapper.mod_raise",)),
    ("ckks.bootstrap.coeff_to_slot", ("incl_ms",),
     ("repro.ckks.bootstrap:CKKSBootstrapper.coeff_to_slot",)),
    ("ckks.bootstrap.eval_mod", ("incl_ms",),
     ("repro.ckks.bootstrap:CKKSBootstrapper.eval_mod",)),
    ("ckks.bootstrap.slot_to_coeff", ("incl_ms",),
     ("repro.ckks.bootstrap:CKKSBootstrapper.slot_to_coeff",)),
    ("bfv.encrypt", ("self_ms",),
     ("repro.bfv.scheme:BFVEncryptor.encrypt_values",)),
    ("bfv.multiply", ("self_ms",), ("repro.bfv.scheme:BFVEvaluator.multiply",)),
    ("bfv.relinearize", ("self_ms",),
     ("repro.bfv.scheme:BFVEvaluator.relinearize",)),
    ("bfv.decrypt", ("self_ms",),
     ("repro.bfv.scheme:BFVDecryptor.decrypt_values",)),
    ("tfhe.blind_rotate", ("calls", "self_ms"),
     ("repro.tfhe.bootstrap:BootstrapKit.blind_rotate",)),
    ("tfhe.external_product", ("calls", "self_ms"),
     ("repro.tfhe.trgsw:TrgswSample.external_product",)),
    ("tfhe.torus_ntt", ("calls", "self_ms"),
     ("repro.tfhe.polymul:TorusNTT.spectrum",
      "repro.tfhe.polymul:TorusNTT.mul_sum_multi")),
    ("tfhe.extract_lwe", ("self_ms",),
     ("repro.tfhe.trlwe:TrlweSample.extract_lwe",)),
    ("tfhe.keyswitch", ("calls", "self_ms"),
     ("repro.tfhe.bootstrap:KeyswitchKey.keyswitch",)),
    ("tfhe.encrypt", ("self_ms",), ("repro.tfhe.bootstrap:BootstrapKit.encrypt",)),
    ("tfhe.decrypt", ("self_ms",), ("repro.tfhe.gates:TFHEGates.decrypt_bit",)),
    ("compiler.dependency_edges", ("calls", "self_ms"),
     ("repro.compiler.ops:Program.dependency_edges",)),
    ("compiler.linearize", ("calls", "self_ms"),
     ("repro.compiler.ops:Program.linearize",)),
    ("compiler.build_programs", ("incl_ms",), ("repro.cli:_workloads",)),
    ("verify.lint", (), ("repro.compiler.verify.base:Linter.run",)),
    ("verify.structure", ("self_ms",),
     ("repro.compiler.verify.structure:StructureAnalysis.run",)),
    ("verify.levels", ("self_ms",),
     ("repro.compiler.verify.levels:LevelScaleAnalysis.run",)),
    ("verify.partition", ("self_ms",),
     ("repro.compiler.verify.partition:SlotPartitionAnalysis.run",)),
    ("verify.liveness", ("self_ms",),
     ("repro.compiler.verify.liveness:LivenessAnalysis.run",)),
    ("verify.hazards", ("self_ms",),
     ("repro.compiler.verify.hazards:HazardAnalysis.run",)),
    ("verify.cost", ("self_ms",),
     ("repro.compiler.verify.costcheck:CostAnalysis.run",)),
    ("verify.noise", ("self_ms",),
     ("repro.compiler.verify.noise:NoiseBudgetAnalysis.run",)),
    ("verify.keys", ("self_ms",),
     ("repro.compiler.verify.keys:KeyResidencyAnalysis.run",)),
    ("cost.analyze_program", ("calls", "self_ms"),
     ("repro.compiler.cost.analyzer:analyze_program",)),
    ("cost.differential_check", ("self_ms",),
     ("repro.compiler.cost.analyzer:differential_check",)),
    ("sim.cycle_run", ("calls", "self_ms"),
     ("repro.sim.simulator:CycleSimulator.run",)),
    # EventDrivenSimulator.run delegates to run_mix, so run_mix alone
    # covers every engine schedule
    ("sim.engine_run", ("calls", "self_ms"),
     ("repro.sim.engine:EventDrivenSimulator.run_mix",)),
    ("sim.makespan", ("calls",),
     ("repro.sim.engine:EventDrivenSimulator.makespan",)),
    ("serve.run_serving", (), ("repro.serve.report:run_serving",)),
    ("serve.simulate", ("self_ms",),
     ("repro.serve.service:ServingSimulator.simulate",)),
    ("serve.admission", ("calls", "self_ms"),
     ("repro.serve.service:ServingSimulator.noise_admissible",
      "repro.serve.service:ServingSimulator.keys_admissible")),
    ("serve.batcher", ("calls", "self_ms"),
     ("repro.serve.batching:SlotBatcher.pack",
      "repro.serve.batching:SlotBatcher.program")),
    ("serve.traffic", ("self_ms",), ("repro.serve.traffic:generate_trace",)),
    ("faults.run_campaign", ("incl_ms",),
     ("repro.sim.faults.report:run_campaign",)),
)

#: ``KernelBackend`` method -> span.  Methods missing here (a protocol
#: method added later) are traced as ``kernels.other``.
KERNEL_SPANS = {
    "ntt_forward": "kernels.ntt_forward",
    "ntt_inverse": "kernels.ntt_inverse",
    "pointwise_mul": "kernels.pointwise_mul",
    "pointwise_add": "kernels.pointwise_other",
    "pointwise_sub": "kernels.pointwise_other",
    "negate": "kernels.pointwise_other",
    "mul_channel_scalars": "kernels.pointwise_other",
    "automorphism": "kernels.automorphism",
    "bconv": "kernels.bconv",
    "modup": "kernels.modup",
    "moddown": "kernels.moddown",
    "rescale": "kernels.rescale",
}

#: Layers whose share of request wall time is reported.
LAYERS = ("kernels", "rns", "ckks", "bfv", "tfhe", "compiler", "verify",
          "cost", "sim", "serve", "faults")

REQUEST = "request"

_UNITS = {"calls": "count", "self_ms": "ms", "incl_ms": "ms"}


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    out = [(f"{span}.{stat}", _UNITS[stat], "lower")
           for span, stats, _ in SPANS for stat in stats]
    out.append(("kernels.ntt.rows", "count", "lower"))
    out.append(("sim.makespan.hit_ratio", "fraction", "higher"))
    out += [(f"{layer}.self_share", "fraction", "lower") for layer in LAYERS]
    out.append(("request.self_ms", "ms", "lower"))
    out.append(("trace.overhead", "fraction", "lower"))
    return out


def resolve(target: str):
    """``(owner, attribute, current object)`` of a ``module:qualname``
    target, or ``None`` when the module or attribute does not exist."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    current = vars(owner).get(attr)
    if not inspect.isfunction(current):
        return None
    return owner, attr, current


def _ntt_rows(args) -> int:
    data = args[0]
    return data.size // data.shape[-1]


class _TracedBackend:
    """Delegates every ``KernelBackend`` method to ``inner``, recording a
    span per call."""

    def __init__(self, tracer: "Tracer", inner):
        from repro.kernels.contract import KernelBackend

        self._inner = inner
        self.name = inner.name
        for method, value in vars(KernelBackend).items():
            if method.startswith("_") or not callable(value):
                continue
            work = _ntt_rows if method.startswith("ntt_") else None
            setattr(self, method, tracer.wrap(
                getattr(inner, method),
                KERNEL_SPANS.get(method, "kernels.other"), work))

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class Tracer:
    """Records spans while installed.

    A span is a list ``[name, start, end, parent, request, work]``:
    ``parent`` is the index of the enclosing span (``-1`` for none),
    ``request`` the id of the request it ran in (``-1`` for none), and
    ``work`` a count of rows transformed (NTT spans only).
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._request = -1
        self._undo: List[Callable[[], None]] = []

    # ------------------------------ recording --------------------------- #

    def wrap(self, fn, name: str, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   self._request, work(args) if work else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def request(self, index: int, fn, *args):
        """``fn(*args)`` as request ``index``: the root of its spans."""
        self._request = index
        try:
            return self.wrap(fn, REQUEST)(*args)
        finally:
            self._request = -1

    # ------------------------------ install ----------------------------- #

    def install(self) -> None:
        from repro import kernels

        for span, _stats, targets in SPANS:
            for target in targets:
                self._patch(target, span)
        inner = kernels.get_backend()
        kernels.set_backend(_TracedBackend(self, inner))
        self._undo.append(lambda: kernels.set_backend(inner))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _patch(self, target: str, span: str) -> None:
        found = resolve(target)
        if found is None:
            self.missing.append(target)
            return
        owner, attr, original = found
        wrapper = self.wrap(original, span)
        if inspect.isclass(owner):
            holders = [(owner, attr)]
        else:
            # a module-level function is also called through every module
            # that imported it by name
            holders = [(mod, key)
                       for name, mod in list(sys.modules.items())
                       if name == "repro" or name.startswith("repro.")
                       for key, value in list(vars(mod).items())
                       if value is original]
        for holder, key in holders:
            setattr(holder, key, wrapper)
            self._undo.append(
                functools.partial(setattr, holder, key, original))

    # ------------------------------ reduction --------------------------- #

    def per_request(self) -> Dict[int, Dict[str, float]]:
        """Raw per-request sums: ``<span>.calls/self_ms/incl_ms``,
        ``<layer>.self_ms``, ``kernels.ntt.rows``, makespan hits and the
        request's ``wall_ms``."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        engine_child = [False] * len(spans)
        for name, start, end, parent, _req, _work in spans:
            if parent >= 0:
                child_s[parent] += end - start
                engine_child[parent] |= name == "sim.engine_run"
        out: Dict[int, Dict[str, float]] = {}
        for i, (name, start, end, _parent, req, work) in enumerate(spans):
            if req < 0:
                continue
            m = out.setdefault(req, {})
            dur_ms = (end - start) * 1e3
            self_ms = dur_ms - child_s[i] * 1e3
            layer = name.partition(".")[0]
            sums = [(f"{name}.calls", 1.0), (f"{name}.self_ms", self_ms),
                    (f"{name}.incl_ms", dur_ms)]
            if layer != name:  # the request span is its own layer
                sums.append((f"{layer}.self_ms", self_ms))
            for key, value in sums:
                m[key] = m.get(key, 0.0) + value
            if work:
                m["kernels.ntt.rows"] = m.get("kernels.ntt.rows", 0.0) + work
            if name == "sim.makespan" and not engine_child[i]:
                m["sim.makespan.hits"] = m.get("sim.makespan.hits", 0.0) + 1
            if name == REQUEST:
                m["wall_ms"] = dur_ms
        return out

    def per_layer(self, overhead: float) -> Dict[str, float]:
        """Every per-layer metric: the median over traced requests."""
        rows = []
        for m in self.per_request().values():
            wall = m["wall_ms"]
            row = dict(m)
            for layer in LAYERS:
                row[f"{layer}.self_share"] = m.get(f"{layer}.self_ms", 0.0) / wall
            calls = m.get("sim.makespan.calls", 0.0)
            row["sim.makespan.hit_ratio"] = (
                m.get("sim.makespan.hits", 0.0) / calls if calls else 0.0)
            rows.append(row)
        result = {}
        for name, _unit, _better in per_layer_metrics():
            if name == "trace.overhead":
                result[name] = overhead
            else:
                result[name] = statistics.median(
                    [row.get(name, 0.0) for row in rows]) if rows else 0.0
        return result

    def chrome_trace(self) -> dict:
        """The spans as Chrome-trace JSON (complete ``X`` events)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        events = [
            {"name": name, "cat": name.partition(".")[0], "ph": "X",
             "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
             "pid": 1, "tid": 1,
             "args": {"span": i, "parent": parent, "request": req}}
            for i, (name, start, end, parent, req, _work)
            in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def layer_table(values: Dict[str, float],
                missing: Optional[List[str]] = None) -> str:
    """The per-layer metrics as an aligned text table."""
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    width = max(len(name) for name in units)
    lines = [f"{name:<{width}}  {values[name]:>14.6g}  {units[name]}"
             for name in units]
    if missing:
        lines.append("not traced (target not found): " + ", ".join(missing))
    return "\n".join(lines) + "\n"
