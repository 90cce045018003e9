"""Serving benchmark runner: the ``BENCH_serving.json`` document.

:func:`run_serving` sweeps offered load over the seeded traffic profiles
and emits a deterministic JSON document, ``alchemist-bench/serving/v1``:
per-profile and per-rate latency percentiles, goodput, shed/degrade
counts and SLA-violation fractions.  For a fixed ``(seed, profiles,
rates, config)`` the document is byte-stable — no timestamps, no
environment probing, every random draw seeded — so ``BENCH_serving.json``
is committed and gated by ``benchmarks/check_bench_drift.py`` exactly
like the Table 7 / Figure 6 / faults goldens.

The load sweep reuses one *unit-rate arrival skeleton* per ``(profile,
seed)`` — :func:`~repro.serve.traffic.generate_trace` scales arrival
times by ``1/rate`` — so every rate point serves the same request
population (common random numbers).  Latency curves across the sweep then
measure load, not sampling noise.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.hw.config import ALCHEMIST_DEFAULT, AlchemistConfig
from repro.serve.admission import AdmissionController
from repro.serve.batching import SlotBatcher
from repro.serve.service import ServeReport, ServingSimulator
from repro.serve.traffic import PROFILES, generate_trace, trace_digest

#: Schema identifier embedded in the emitted document.
SERVING_SCHEMA = "alchemist-bench/serving/v1"

#: Offered-load sweep (requests/second).  The heaviest batch program
#: (width-512 CKKS dot) services in ~1 ms, so this spans comfortable
#: under-load through deep saturation.
DEFAULT_RATES = (500.0, 2000.0, 8000.0)

#: Requests per (profile, rate) point — enough for a stable p99 while
#: keeping the default sweep interactive.
DEFAULT_REQUESTS = 400


def run_profile(
    profile: str,
    seed: int = 0,
    rate_rps: float = DEFAULT_RATES[0],
    n_requests: int = DEFAULT_REQUESTS,
    admission_mode: str = "degrade",
    config: AlchemistConfig = ALCHEMIST_DEFAULT,
    simulator: Optional[ServingSimulator] = None,
) -> ServeReport:
    """One serving run: generate the seeded trace, replay it end to end."""
    trace = generate_trace(profile, seed=seed, rate_rps=rate_rps,
                           n_requests=n_requests)
    sim = simulator or ServingSimulator(
        config=config, batcher=SlotBatcher(),
        admission=AdmissionController(mode=admission_mode))
    return sim.simulate(trace, profile=profile, seed=seed,
                        rate_rps=rate_rps)


def run_serving(
    seed: int = 0,
    profiles: Optional[Sequence[str]] = None,
    rates: Sequence[float] = DEFAULT_RATES,
    n_requests: int = DEFAULT_REQUESTS,
    admission_mode: str = "degrade",
    config: AlchemistConfig = ALCHEMIST_DEFAULT,
) -> Dict[str, object]:
    """Sweep offered load over the traffic profiles; JSON-ready result.

    One :class:`ServingSimulator` is shared across the whole sweep so its
    program-shape memo (verdicts and service time per batch shape)
    amortizes — results are identical to fresh simulators because the
    serving loop itself is stateless between runs.
    """
    names = list(profiles) if profiles is not None else list(PROFILES)
    unknown = [n for n in names if n not in PROFILES]
    if unknown:
        raise ValueError(f"unknown profile(s) {unknown}; "
                         f"expected a subset of {list(PROFILES)}")
    sim = ServingSimulator(
        config=config, batcher=SlotBatcher(),
        admission=AdmissionController(mode=admission_mode))
    per_profile: Dict[str, object] = {}
    for name in names:
        sweep = []
        for rate in rates:
            report = run_profile(name, seed=seed, rate_rps=rate,
                                 n_requests=n_requests,
                                 admission_mode=admission_mode,
                                 config=config, simulator=sim)
            sweep.append(report.as_dict())
        skeleton = generate_trace(name, seed=seed, rate_rps=1.0,
                                  n_requests=n_requests)
        per_profile[name] = {
            "trace_digest": trace_digest(skeleton),
            "sweep": sweep,
        }
    return {
        "schema": SERVING_SCHEMA,
        "seed": seed,
        "admission_mode": admission_mode,
        "n_requests": n_requests,
        "rates_rps": list(rates),
        "config": config.as_dict(),
        "profiles": per_profile,
    }
