"""Metric definitions, the ``BENCHMARK.json`` reader and the statistics.

Two kinds of end-to-end metric exist:

* **gated** metrics are emitted by every workload and listed in
  ``BENCHMARK.json`` with their regression bound;
* **guard** metrics exist only where they mean something (a CKKS
  precision, a modelled cycle count, a tail percentile with enough
  samples beyond it).  They live in the detailed result files, and
  ``compare`` judges them by the rules in :data:`GUARDS`.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

#: The repository root (this file is ``benchmarks/e2e/metrics.py``).
ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"


@dataclass(frozen=True)
class Rule:
    """How ``compare`` judges a metric.

    ``kind`` is ``relative`` (``bound`` is a share of the base median),
    ``absolute`` (``bound`` in the metric's unit), ``exact`` (any change
    counts) or ``increase`` (any rise of the worst run counts).
    """

    unit: str
    better: str
    bound: float
    kind: str


#: Gated end-to-end metrics, in the order ``BENCHMARK.json`` lists them.
END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("latency_ms.p50", "ms", "lower"),
    Metric("ops_per_s", "1/s", "higher"),
    Metric("peak_rss_mb", "MiB", "lower"),
)

#: A tail percentile needs this many samples so that at least ten lie
#: beyond the 90th.
P90_MIN_SAMPLES = 100

#: Guard metrics and the rule each is judged by.
GUARDS: Dict[str, Rule] = {
    "latency_ms.p90": Rule("ms", "lower", 0.25, "relative"),
    "failed_fraction": Rule("fraction", "lower", 0.0, "increase"),
    "precision_bits": Rule("bits", "higher", 0.5, "absolute"),
    "modeled_cycles": Rule("cycles", "lower", 0.0, "exact"),
    "modeled_p99_us": Rule("us", "lower", 0.0, "exact"),
}

#: The unit of every end-to-end metric, gated or guard.
UNITS = {**{m.name: m.unit for m in END_TO_END},
         **{name: rule.unit for name, rule in GUARDS.items()}}


def load_benchmark() -> dict:
    """The parsed ``BENCHMARK.json`` at the repository root."""
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def rules_from_benchmark(doc: dict) -> Dict[str, Rule]:
    """Every end-to-end rule: the gated bounds of ``doc`` plus the guards."""
    rules = {m["name"]: Rule(m["unit"], m["better"], float(m["bound"]),
                             "relative")
             for m in doc["end_to_end"]}
    rules.update(GUARDS)
    return rules


# ------------------------------ statistics ------------------------------ #


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(n=4)`` gives them;
    a single value is its own quartiles."""
    if len(values) == 1:
        return [float(values[0])] * 3
    return list(statistics.quantiles(values, n=4))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def precision_bits(max_error: float) -> float:
    """``-log2`` of a maximum slot error (an exact result counts as 60 bits)."""
    return -math.log2(max(max_error, 2.0 ** -60))
