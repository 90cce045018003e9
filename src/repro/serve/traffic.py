"""Seeded, replayable open-loop traffic for the FHE serving layer.

A *trace* is a tuple of :class:`Request` arrivals — small independent user
jobs (a few slots of CKKS/BFV SIMD work, or one TFHE gate) offered to the
accelerator at Poisson-ish instants.  Three load shapes are modelled:

* ``steady`` — homogeneous Poisson arrivals;
* ``diurnal`` — the Poisson rate modulated by a slow sinusoidal wave
  (day/night cycles compressed into the trace);
* ``storm`` — a low background rate with short windows of 4x burst
  (retry storms, batch-job kickoffs).

Determinism is the same discipline as the fault campaigns
(:mod:`repro.sim.faults.model`): every draw comes from ``random.Random(
seed)`` in a fixed order, modulation is a pure function of the request
*index*, and no wall-clock state is consulted — ``generate_trace`` is a
pure function of its arguments and replays byte-identically.

Arrival instants scale exactly with the offered rate: the seed fixes a
unit-rate arrival *skeleton* and ``rate_rps`` only compresses it, so a
load sweep offers the same request population at every point (common
random numbers — the latency-vs-load curves are directly comparable).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from random import Random
from typing import Dict, Sequence, Tuple

#: Traffic shapes understood by :func:`generate_trace` / ``repro serve``.
PROFILES = ("steady", "diurnal", "storm")

#: Schemes a request may ask for, with their default mixture weights.
SCHEME_MIX: Tuple[Tuple[str, float], ...] = (
    ("ckks", 0.6), ("bfv", 0.3), ("tfhe", 0.1))

#: Request kinds per scheme (the service's SIMD operations).
KINDS_BY_SCHEME: Dict[str, Tuple[str, ...]] = {
    "ckks": ("scale", "dot"),
    "bfv": ("add", "mul"),
    "tfhe": ("gate",),
}

#: Default request widths (slots occupied) at accelerator scale.
CKKS_WIDTHS = (64, 128, 256, 512)
BFV_WIDTHS = (16, 32, 64)


@dataclass(frozen=True)
class SlaClass:
    """One service class: a latency target and a bounded queue."""

    name: str
    latency_target_us: float
    max_queue_depth: int
    rank: int                        # 0 = most latency-sensitive

    def __post_init__(self) -> None:
        if self.latency_target_us <= 0:
            raise ValueError("latency target must be positive")
        if self.max_queue_depth < 1:
            raise ValueError("queue depth bound must be at least 1")


#: The service classes, tightest first.  Targets sit a few batch-service
#: times (~199 us for a CKKS Cmult batch) above the no-load latency so the
#: violation curves turn over inside the benchmark sweep.
SLA_CLASSES: Tuple[SlaClass, ...] = (
    SlaClass("interactive", latency_target_us=1_000.0,
             max_queue_depth=64, rank=0),
    SlaClass("standard", latency_target_us=5_000.0,
             max_queue_depth=256, rank=1),
    SlaClass("batch", latency_target_us=50_000.0,
             max_queue_depth=1024, rank=2),
)

#: name -> :class:`SlaClass` for quick lookup.
SLA_BY_NAME: Dict[str, SlaClass] = {c.name: c for c in SLA_CLASSES}

#: SLA mixture weights (most traffic wants the tight class).
_SLA_MIX: Tuple[Tuple[str, float], ...] = (
    ("interactive", 0.5), ("standard", 0.35), ("batch", 0.15))


@dataclass(frozen=True)
class Request:
    """One user request offered to the service.

    ``width`` is the number of ciphertext slots the request's payload
    occupies (a power of two; 1 for a TFHE gate).  ``payload_seed`` derives
    the functional payload (:mod:`repro.serve.functional`) so the same
    trace drives both the timing simulation and the differential harness.
    """

    rid: int
    arrival_us: float
    scheme: str
    kind: str
    width: int
    sla: str
    payload_seed: int

    def __post_init__(self) -> None:
        if self.scheme not in KINDS_BY_SCHEME:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.kind not in KINDS_BY_SCHEME[self.scheme]:
            raise ValueError(
                f"kind {self.kind!r} invalid for scheme {self.scheme!r}")
        if self.sla not in SLA_BY_NAME:
            raise ValueError(f"unknown SLA class {self.sla!r}")
        if self.width < 1 or self.width & (self.width - 1):
            raise ValueError("width must be a power of two")
        if not 0 <= self.arrival_us < math.inf:     # NaN fails too
            raise ValueError(f"arrival must be non-negative and finite, got "
                             f"{self.arrival_us!r}")

    def as_dict(self) -> Dict[str, object]:
        return {
            "rid": self.rid, "arrival_us": self.arrival_us,
            "scheme": self.scheme, "kind": self.kind, "width": self.width,
            "sla": self.sla, "payload_seed": self.payload_seed,
        }


def _weighted_pick(draw: float,
                   weights: Sequence[Tuple[str, float]]) -> str:
    """Map a uniform draw in [0, 1) onto a weighted choice."""
    total = sum(w for _, w in weights)
    acc = 0.0
    for name, w in weights:
        acc += w / total
        if draw < acc:
            return name
    return weights[-1][0]


def _storm_windows(rng: Random) -> Tuple[Tuple[float, float], ...]:
    """Two burst windows in phase space [0, 1), drawn from the trace rng."""
    first = rng.uniform(0.10, 0.35)
    second = rng.uniform(0.55, 0.80)
    return ((first, first + rng.uniform(0.08, 0.15)),
            (second, second + rng.uniform(0.08, 0.15)))


def _rate_factor(profile: str, phase: float,
                 storms: Tuple[Tuple[float, float], ...]) -> float:
    """Instantaneous rate multiplier at ``phase`` = request index / total."""
    if profile == "steady":
        return 1.0
    if profile == "diurnal":
        # two day/night cycles across the trace, never fully dark
        return 0.6 + 0.4 * math.sin(2.0 * math.pi * 2.0 * phase)
    if profile == "storm":
        for start, end in storms:
            if start <= phase < end:
                return 4.0
        return 0.5
    raise ValueError(f"unknown profile {profile!r}; expected one of "
                     f"{PROFILES}")


def generate_trace(
    profile: str,
    seed: int,
    rate_rps: float,
    n_requests: int,
    ckks_widths: Sequence[int] = CKKS_WIDTHS,
    bfv_widths: Sequence[int] = BFV_WIDTHS,
    scheme_mix: Sequence[Tuple[str, float]] = SCHEME_MIX,
) -> Tuple[Request, ...]:
    """``n_requests`` seeded open-loop arrivals at ``rate_rps``.

    Pure function of its arguments: two calls return equal tuples.  The
    unit-rate skeleton (gaps, schemes, widths, SLA classes, payload seeds)
    depends only on ``(profile, seed, n_requests, ...)``; ``rate_rps``
    rescales arrival instants, so a sweep over rates offers the identical
    request population faster or slower.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of "
                         f"{PROFILES}")
    if not 0 < rate_rps < math.inf:
        raise ValueError(f"rate_rps must be positive and finite, got "
                         f"{rate_rps!r}")
    if n_requests < 1:
        raise ValueError("n_requests must be at least 1")
    rng = Random(seed)
    storms = _storm_windows(rng)     # always drawn: keeps streams aligned
    requests = []
    clock_unit = 0.0                 # unit-rate seconds
    for i in range(n_requests):
        phase = i / n_requests
        factor = _rate_factor(profile, phase, storms)
        clock_unit += rng.expovariate(1.0) / factor
        scheme = _weighted_pick(rng.random(), scheme_mix)
        if scheme == "ckks":
            width = ckks_widths[rng.randrange(len(ckks_widths))]
        elif scheme == "bfv":
            width = bfv_widths[rng.randrange(len(bfv_widths))]
        else:
            width = 1
        kinds = KINDS_BY_SCHEME[scheme]
        kind = kinds[rng.randrange(len(kinds))]
        sla = _weighted_pick(rng.random(), _SLA_MIX)
        payload_seed = rng.getrandbits(32)
        requests.append(Request(
            rid=i,
            arrival_us=clock_unit / rate_rps * 1e6,
            scheme=scheme, kind=kind, width=width, sla=sla,
            payload_seed=payload_seed,
        ))
    return tuple(requests)


def offered_load_rps(trace: Sequence[Request]) -> float:
    """Offered load of a trace: requests per second of arrival span."""
    if not trace:
        return 0.0
    span_us = trace[-1].arrival_us
    if span_us <= 0:
        return float(len(trace))     # degenerate: everything at t=0
    return len(trace) / (span_us * 1e-6)


def trace_digest(trace: Sequence[Request]) -> int:
    """A replay fingerprint over every field of every request.

    CRC32 of the full request stream (arrival instants included, via their
    exact ``repr``), so two digests agree iff the traces are field-for-
    field identical — the drift gate's cheap proxy for byte-identity.
    """
    crc = 0
    for r in trace:
        line = (f"{r.rid}|{r.arrival_us!r}|{r.scheme}|{r.kind}|"
                f"{r.width}|{r.sla}|{r.payload_seed}\n")
        crc = zlib.crc32(line.encode("ascii"), crc)
    return crc
