"""One workload's closed loop: set-up, warm-up, the timed window, metrics.

A :class:`Session` runs in whichever process creates it; the runner
creates one per child process, and the tests create them directly.
Requests are numbered from 0 (the warm-up requests come first) and
request ``i`` draws its inputs from a generator seeded by ``(seed, i)``,
so its output does not depend on what ran before it.  In a timed window
the host-speed probe runs before and after every request, and the
window's timings are scaled to the reference speed (see
:mod:`benchmarks.e2e.speed`).
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from benchmarks.e2e.metrics import (
    P90_MIN_SAMPLES,
    percentile,
    precision_bits,
)
from benchmarks.e2e.speed import REFERENCE_S, probe, scaled
from benchmarks.e2e.workloads import WORKLOADS, Check


@dataclass
class Sample:
    """One request: its index, wall-clock latency and verdict."""

    index: int
    seconds: float
    ok: bool
    digest: Optional[str] = None
    #: Maximum slot error (CKKS workloads only).
    error: Optional[float] = None
    #: Mean time of the host-speed probes just before and after the
    #: request; the reference time when none ran, so no scaling applies.
    probe_s: float = REFERENCE_S

    @property
    def scaled_seconds(self) -> float:
        """The latency at the reference host speed."""
        return scaled(self.seconds, self.probe_s)


@dataclass
class Window:
    """The requests of one timed window."""

    samples: List[Sample] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)

    def metrics(self) -> Dict[str, float]:
        """The window's end-to-end metrics (all but ``setup_s`` and
        ``peak_rss_mb``, which belong to the process), at the reference
        host speed."""
        latencies_ms = [s.scaled_seconds * 1e3 for s in self.samples]
        out = {
            "latency_ms.p50": statistics.median(latencies_ms),
            # correct requests per second of request time
            "ops_per_s": ((len(self.samples) - self.failed) * 1e3
                          / sum(latencies_ms)),
            "failed_fraction": self.failed / len(self.samples),
        }
        if len(self.samples) >= P90_MIN_SAMPLES:
            out["latency_ms.p90"] = percentile(latencies_ms, 90)
        errors = [s.error for s in self.samples if s.error is not None]
        if errors:
            out["precision_bits"] = statistics.median(
                precision_bits(e) for e in errors)
        return out


def request_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, 1, index))


class Session:
    """A workload set up for one seed, warmed up and ready to measure."""

    def __init__(self, workload: str, seed: int, warmup: int = 1):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; "
                             f"known: {', '.join(WORKLOADS)}")
        if warmup < 1:
            raise ValueError("at least one warm-up request is needed")
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.ctx = self.workload.setup(seed, np.random.default_rng((seed, 0)))
        self._reported = False
        self.warmup = [self.run_one(i) for i in range(warmup)]
        self.next_index = warmup

    def run_one(self, index: int, tracer=None) -> Sample:
        """Run request ``index``; an exception or a wrong output is a
        failed sample, never an error of the loop."""
        wl = self.workload
        inputs = wl.inputs(self.ctx, request_rng(self.seed, index))
        start = time.perf_counter()
        try:
            if tracer is None:
                output = wl.run(self.ctx, inputs)
            else:
                output = tracer.request(index, wl.run, self.ctx, inputs)
        except Exception:  # a failed request must not stop the loop
            seconds = time.perf_counter() - start
            self._report(index)
            return Sample(index, seconds, ok=False)
        seconds = time.perf_counter() - start
        try:
            check: Check = wl.check(self.ctx, inputs, output)
        except Exception:  # an unreadable output is a wrong output
            self._report(index)
            return Sample(index, seconds, ok=False)
        return Sample(index, seconds, check.ok, check.digest, check.error)

    def _report(self, index: int) -> None:
        """Print the first failure's traceback; count the rest silently."""
        if not self._reported:
            self._reported = True
            print(f"{self.workload.name}: request {index} failed:",
                  file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    def measure(self, seconds: float, tracer=None, step: int = 1) -> Window:
        """Closed loop for ``seconds``: at least one request, and the
        last one started before the time ran out.  Request indices
        advance by ``step``, so several processes can share one index
        sequence."""
        window = Window()
        start = time.perf_counter()
        before = probe()
        while True:
            sample = self.run_one(self.next_index, tracer)
            after = probe()
            sample.probe_s = (before + after) / 2
            before = after
            window.samples.append(sample)
            self.next_index += step
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                window.elapsed_s = elapsed
                return window

    @property
    def warmup_ok(self) -> bool:
        return all(s.ok for s in self.warmup)

    def modeled(self) -> Dict[str, float]:
        """Modelled (deterministic) outputs the workload reports."""
        return dict(getattr(self.ctx, "modeled", {}))


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
