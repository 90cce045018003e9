"""Judge a set of runs (B) against a base set (A).

For each workload and end-to-end metric, prints each side's median and
quartiles, then one verdict:

``improved`` / ``unchanged`` / ``regressed``
    B's median against A's, judged by the metric's bound: the
    ``BENCHMARK.json`` bound for the gated metrics, the
    :data:`~benchmarks.e2e.metrics.GUARDS` rule for the others.
``unresolved``
    For a metric with a relative bound (the timings), the run-to-run
    spread (quartile distance over median, on either side) is wider than
    the bound, so the medians cannot be told apart, unless every B run
    beats every A run.

Exits 1 on any regression (a rise in ``failed_fraction`` is one).

Claim mode (``--claim WORKLOAD:METRIC``) judges a claimed gain on paired
runs: pairs are matched in start order, and the claim holds when there
are at least 10 pairs, the side that ran first alternates, B wins at
least 9 in 10 pairs (ties count for neither), and the medians differ by
more than A's quartile distance.  Exits 0 when the claim holds.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from benchmarks.e2e.metrics import (
    Rule,
    load_benchmark,
    quartiles,
    rules_from_benchmark,
)

MIN_PAIRS = 10
WIN_RATE = 0.9


def load_results(paths: Sequence[str]) -> Dict[str, List[dict]]:
    """Untraced results from ``run -o`` files, grouped by workload."""
    grouped: Dict[str, List[dict]] = defaultdict(list)
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        for result in doc if isinstance(doc, list) else [doc]:
            if not result.get("trace"):
                grouped[result["workload"]].append(result)
    return grouped


def _values(results: List[dict], metric: str) -> List[float]:
    return [r["metrics"][metric]["value"] for r in results
            if metric in r["metrics"]]


def _better(rule: Rule, x: float, y: float) -> bool:
    """Whether ``x`` is strictly better than ``y``."""
    return x < y if rule.better == "lower" else x > y


def judge(rule: Rule, a: Sequence[float], b: Sequence[float]) -> Tuple[str, float]:
    """``(verdict, worsening)``: the worsening of B's median over A's,
    relative for ``relative`` rules and in the metric's unit otherwise."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if rule.better == "lower" else -1.0
    if rule.kind == "increase":
        worse = max(b) - max(a)
        verdict = ("regressed" if worse > 0 else
                   "improved" if worse < 0 else "unchanged")
        return verdict, worse
    worse = sign * (qb[1] - qa[1])
    if rule.kind == "exact":
        # the same seeds give the same values
        if sorted(a) == sorted(b):
            return "unchanged", 0.0
        return ("improved" if worse < 0 else "regressed"), worse
    if rule.kind == "relative":
        # timings: run-to-run noise can hide a change of the bound's size.
        # The absolute (precision) metric is a function of the seed, so
        # its spread across seeds is not noise.
        worse /= abs(qa[1])
        spread = max((qa[2] - qa[0]) / abs(qa[1]),
                     (qb[2] - qb[0]) / abs(qb[1]))
        b_beats_all = all(_better(rule, y, x) for y in b for x in a)
        if spread > rule.bound and not b_beats_all:
            return "unresolved", worse
    if worse > rule.bound:
        return "regressed", worse
    if worse < -rule.bound:
        return "improved", worse
    return "unchanged", worse


def _fmt(values: Sequence[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:12.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def compare(base: Dict[str, List[dict]], new: Dict[str, List[dict]],
            rules: Dict[str, Rule]) -> Tuple[List[str], bool]:
    """Report lines and whether anything regressed."""
    lines, regressed = [], False
    for workload in sorted(set(base) | set(new)):
        if not base.get(workload) or not new.get(workload):
            lines.append(f"{workload}: runs on one side only")
            continue
        for metric, rule in rules.items():
            a = _values(base[workload], metric)
            b = _values(new[workload], metric)
            if not a or not b:
                continue
            verdict, worse = judge(rule, a, b)
            regressed |= verdict == "regressed"
            change = (f"{worse:+.2%}" if rule.kind == "relative"
                      else f"{worse:+.6g}")
            lines.append(f"{workload:15s} {metric:16s} A {_fmt(a)}  "
                         f"B {_fmt(b)}  worse {change:>9s}  {verdict}")
    return lines, regressed


def claim(base: List[dict], new: List[dict], metric: str,
          rule: Rule) -> Tuple[List[str], bool]:
    """Judge a claimed gain of B over A on paired runs."""
    a_runs = sorted(base, key=lambda r: r["run"]["started_at"])
    b_runs = sorted(new, key=lambda r: r["run"]["started_at"])
    pairs = list(zip(a_runs, b_runs))
    firsts = ["A" if x["run"]["started_at"] < y["run"]["started_at"] else "B"
              for x, y in pairs]
    alternating = all(f != g for f, g in zip(firsts, firsts[1:]))
    a = [x["metrics"][metric]["value"] for x, _ in pairs]
    b = [y["metrics"][metric]["value"] for _, y in pairs]
    wins = sum(_better(rule, y, x) for x, y in zip(a, b))
    qa = quartiles(a) if a else [0.0] * 3
    gap = (statistics.median(a) - statistics.median(b)) if a else 0.0
    gap *= 1.0 if rule.better == "lower" else -1.0
    checks = [
        (f"{len(pairs)} pairs (need {MIN_PAIRS})", len(pairs) >= MIN_PAIRS),
        ("first runner alternates: " + "".join(firsts), alternating),
        (f"B wins {wins}/{len(pairs)} (need {WIN_RATE:.0%})",
         bool(pairs) and wins >= WIN_RATE * len(pairs)),
        (f"median gain {gap:.6g} vs A's quartile distance "
         f"{qa[2] - qa[0]:.6g}", gap > qa[2] - qa[0]),
    ]
    lines = [f"  {'ok ' if ok else 'NOT'} {text}" for text, ok in checks]
    return lines, all(ok for _, ok in checks)


def cmd_compare(base_files: Sequence[str], new_files: Sequence[str],
                claim_spec=None) -> int:
    if not new_files:
        print("compare needs base files, then '--', then new files",
              file=sys.stderr)
        return 2
    rules = rules_from_benchmark(load_benchmark())
    base, new = load_results(base_files), load_results(new_files)
    if claim_spec:
        workload, _, metric = claim_spec.partition(":")
        if metric not in rules or workload not in base or workload not in new:
            print(f"--claim {claim_spec}: no such workload and metric "
                  "in both sets", file=sys.stderr)
            return 2
        lines, holds = claim(base[workload], new[workload], metric,
                             rules[metric])
        print(f"claim {workload} {metric}: "
              f"{'holds' if holds else 'not met'}")
        print("\n".join(lines))
        return 0 if holds else 1
    lines, regressed = compare(base, new, rules)
    print("\n".join(lines))
    return 1 if regressed else 0
