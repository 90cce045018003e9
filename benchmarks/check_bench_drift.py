#!/usr/bin/env python
"""Fail when regenerated bench results diverge from the committed JSON.

Usage::

    PYTHONPATH=src python benchmarks/check_bench_drift.py [--rtol 1e-9]
        [--repo-root DIR]

Regenerates the Table 7 / Figure 6 suites in memory via
:func:`repro.telemetry.bench.bench_table7` / ``bench_fig6``, the seed-0
default fault campaign via :func:`repro.sim.faults.run_campaign`, and the
seed-0 default serving sweep via :func:`repro.serve.run_serving`, and
compares them, value by value, against the committed
``BENCH_table7.json`` / ``BENCH_fig6.json`` / ``BENCH_faults.json`` /
``BENCH_serving.json``.
Exit code 0 means bit-compatible (within ``--rtol`` on floats); exit code
1 lists every drifted leaf.  CI runs this so a timing-model change cannot
silently move the calibrated numbers.

The kernel-throughput golden ``BENCH_kernels.json`` is timing on the
producing machine, so it is gated differently: its schema, op coverage,
backend bit-identity flags, and batched-vs-reference speedup floors are
validated without regeneration (see :func:`check_kernels_golden`).

A second gate compares the *static* cost analyzer
(:func:`repro.compiler.cost.analyze_program` — no simulation) against the
committed Table 7 numbers: per-operator compute/SRAM/HBM cycle totals,
latency, and bound classification.  Simulator and analyzer share one cost
model, so any divergence between the committed JSON and the static
prediction is a real regression in one of them.

A third gate checks the ``--compressed`` invariants
(:func:`check_compressed_invariants`): an attached-but-inert
:class:`~repro.hw.config.CompressionModel` must leave every Table 7
prediction bit-identical to the baseline (so the committed goldens never
move with compression off), and the realized default point — seed-expanded
keys at half the wire bytes — must take every HBM-bound keyswitch-class
operator (plus bootstrapping) off the HBM roof while leaving the keyless
operators untouched.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Iterator, Tuple


def iter_drift(committed, fresh, rtol: float,
               path: str = "") -> Iterator[Tuple[str, object, object]]:
    """Yield ``(json_path, committed_value, fresh_value)`` mismatches."""
    if isinstance(committed, dict) and isinstance(fresh, dict):
        for key in sorted(set(committed) | set(fresh)):
            sub = f"{path}.{key}" if path else key
            if key not in committed or key not in fresh:
                yield (sub, committed.get(key, "<missing>"),
                       fresh.get(key, "<missing>"))
            else:
                yield from iter_drift(committed[key], fresh[key], rtol, sub)
    elif isinstance(committed, list) and isinstance(fresh, list):
        if len(committed) != len(fresh):
            yield (f"{path}.length", len(committed), len(fresh))
            return
        for i, (c, f) in enumerate(zip(committed, fresh)):
            yield from iter_drift(c, f, rtol, f"{path}[{i}]")
    elif (isinstance(committed, (int, float)) and not isinstance(committed, bool)
          and isinstance(fresh, (int, float)) and not isinstance(fresh, bool)):
        tol = rtol * max(abs(committed), abs(fresh), 1.0)
        if abs(committed - fresh) > tol:
            yield (path, committed, fresh)
    elif committed != fresh:
        yield (path, committed, fresh)


def check_file(repo_root: pathlib.Path, stem: str, fresh: dict,
               rtol: float) -> int:
    path = repo_root / f"{stem}.json"
    if not path.exists():
        print(f"DRIFT {stem}: committed file {path} is missing")
        return 1
    committed = json.loads(path.read_text())
    drift = list(iter_drift(committed, fresh, rtol))
    for leaf, old, new in drift[:40]:
        print(f"DRIFT {stem}: {leaf}: committed={old!r} regenerated={new!r}")
    if len(drift) > 40:
        print(f"DRIFT {stem}: ... and {len(drift) - 40} more")
    if not drift:
        print(f"OK    {stem}: matches regenerated results (rtol={rtol:g})")
    return 1 if drift else 0


def check_kernels_golden(repo_root: pathlib.Path) -> int:
    """Validate the committed kernel-throughput golden's invariants.

    Raw ops/sec in ``BENCH_kernels.json`` are machine-dependent, so unlike
    the other goldens this is not regenerate-and-diff: the gate checks the
    schema, that every rate is a median of the full paper-mode loop count
    with an interquartile range around it, op coverage, the backend
    bit-identity flags, internal consistency of the speedup fields, the
    >= 5x batched-vs-reference floor on the gated ops (forward NTT and full
    Cmult+rescale) that the kernel-backend refactor promises at paper chain
    scale, and the per-gate floor of the one-pass ``pbs_batch`` over
    one-gate ``pbs``.  Every floor is gated on the medians.
    """
    from repro.kernels.bench import (
        PAPER_LOOPS,
        PAPER_SPEEDUP_FLOOR,
        PBS_BATCH_FLOOR,
        SCHEMA,
        check_floors,
    )

    path = repo_root / "BENCH_kernels.json"
    if not path.exists():
        print(f"DRIFT kernels: committed file {path} is missing")
        return 1
    committed = json.loads(path.read_text())
    problems = []
    if committed.get("schema") != SCHEMA:
        problems.append(
            f"schema {committed.get('schema')!r} != {SCHEMA!r}")
    if committed.get("mode") != "paper":
        problems.append("committed golden must be a paper-scale run, "
                        f"got mode={committed.get('mode')!r}")
    loops = committed.get("config", {}).get("loops")
    if loops != PAPER_LOOPS:
        problems.append(f"rates must be medians of {PAPER_LOOPS} loops, "
                        f"got loops={loops!r}")
    problems.extend(check_floors(committed, PAPER_SPEEDUP_FLOOR))
    for problem in problems[:40]:
        print(f"DRIFT kernels: {problem}")
    if not problems:
        print(f"OK    kernels: committed golden is well-formed (medians of "
              f"{PAPER_LOOPS} loops, gated ops >= {PAPER_SPEEDUP_FLOOR:g}x, "
              f"pbs_batch >= "
              f"{PBS_BATCH_FLOOR:g}x pbs per gate, all backends "
              f"bit-identical)")
    return 1 if problems else 0


def check_static_predictions(repo_root: pathlib.Path, rtol: float) -> int:
    """Compare the static cost analyzer against committed Table 7 numbers."""
    from repro.compiler.cost import analyze_program
    from repro.telemetry.bench import TABLE7_OPERATORS

    path = repo_root / "BENCH_table7.json"
    if not path.exists():
        print(f"DRIFT static: committed file {path} is missing")
        return 1
    committed = json.loads(path.read_text())["operators"]
    drift = []
    for name, builder in TABLE7_OPERATORS.items():
        report = analyze_program(builder())
        want = committed[name]
        static = {
            "cycles": {
                "compute": report.totals.compute_cycles,
                "sram": report.totals.sram_cycles,
                "hbm": report.totals.hbm_cycles,
            },
            "latency_us": report.seconds * 1e6,
            "bound": report.bottleneck,
        }
        golden = {
            "cycles": want["cycles"],
            "latency_us": want["latency_us"],
            "bound": want["bound"],
        }
        drift.extend(iter_drift(golden, static, rtol, name))
    for leaf, old, new in drift[:40]:
        print(f"DRIFT static: {leaf}: committed={old!r} predicted={new!r}")
    if not drift:
        print(f"OK    static: analyzer predictions match BENCH_table7 "
              f"(rtol={rtol:g})")
    return 1 if drift else 0


def check_compressed_invariants(rtol: float) -> int:
    """Gate the ``repro analyze --compressed`` output invariants.

    Unlike the golden files this needs no committed JSON: the invariants
    are structural.  (1) An attached-but-inert ``CompressionModel`` is a
    bit-identical no-op on every Table 7 operator, which is what keeps
    ``BENCH_table7.json`` byte-stable while the compression layer exists.
    (2) Under the realized default point (seed-expanded keys,
    ``key_ratio=1/2``) every operator that was HBM-bound leaves the HBM
    roof, gets strictly faster, and moves exactly half the key wire
    bytes; operators with no key traffic are untouched.
    """
    from dataclasses import replace

    from repro.compiler.ckks_programs import bootstrapping_program
    from repro.compiler.cost import analyze_program
    from repro.hw.config import ALCHEMIST_DEFAULT, CompressionModel
    from repro.telemetry.bench import TABLE7_OPERATORS

    inert = replace(ALCHEMIST_DEFAULT, compression=CompressionModel())
    compressed = ALCHEMIST_DEFAULT.with_compression()
    builders = dict(TABLE7_OPERATORS)
    builders["Bootstrapping"] = bootstrapping_program
    problems = []
    flipped = []
    for name, builder in builders.items():
        program = builder()
        base = analyze_program(program)
        quiet = analyze_program(program, inert)
        comp = analyze_program(program, compressed)
        # (1) the inert model is a timing no-op, bit for bit
        for field in ("pipelined_cycles", "serialized_cycles",
                      "total_hbm_bytes", "total_key_hbm_bytes",
                      "bottleneck"):
            if getattr(base, field) != getattr(quiet, field):
                problems.append(
                    f"{name}: inert CompressionModel moved {field}: "
                    f"{getattr(base, field)!r} -> {getattr(quiet, field)!r}")
        # (2) the realized default point
        if base.total_key_hbm_bytes == 0:
            if comp.pipelined_cycles != base.pipelined_cycles:
                problems.append(
                    f"{name}: no key traffic, yet compression moved "
                    f"pipelined cycles {base.pipelined_cycles} -> "
                    f"{comp.pipelined_cycles}")
            continue
        if comp.total_key_hbm_bytes != base.total_key_hbm_bytes // 2:
            problems.append(
                f"{name}: key wire bytes {comp.total_key_hbm_bytes} != "
                f"half of {base.total_key_hbm_bytes}")
        if not comp.pipelined_cycles < base.pipelined_cycles:
            problems.append(
                f"{name}: compression did not reduce pipelined cycles "
                f"({base.pipelined_cycles} -> {comp.pipelined_cycles})")
        if base.bottleneck == "hbm":
            if comp.bottleneck == "hbm":
                problems.append(f"{name}: still hbm-bound under the "
                                f"default compression point")
            else:
                flipped.append(name)
    for problem in problems[:40]:
        print(f"DRIFT compressed: {problem}")
    if not problems:
        print(f"OK    compressed: inert model bit-identical; default point "
              f"flips {', '.join(flipped)} off the HBM roof")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rtol", type=float, default=1e-9,
                        help="relative tolerance for numeric leaves")
    parser.add_argument("--repo-root",
                        default=str(pathlib.Path(__file__).resolve().parent.parent),
                        help="directory holding the committed BENCH_*.json")
    args = parser.parse_args(argv)

    from repro.serve import run_serving
    from repro.sim.faults import run_campaign
    from repro.telemetry.bench import bench_fig6, bench_table7

    root = pathlib.Path(args.repo_root)
    status = 0
    status |= check_file(root, "BENCH_table7", bench_table7(), args.rtol)
    status |= check_file(root, "BENCH_fig6", bench_fig6(), args.rtol)
    # the resilience golden: default campaign, seed 0, default policy —
    # identical arguments to `repro faults --seed 0 --campaign default`
    status |= check_file(root, "BENCH_faults", run_campaign(), args.rtol)
    # the serving golden: default sweep, seed 0, degrade admission —
    # identical arguments to `repro serve --seed 0`
    status |= check_file(root, "BENCH_serving", run_serving(), args.rtol)
    # the kernels golden is machine-dependent timing: validate its
    # invariants (schema, bit-identity, speedup floors), do not regenerate
    status |= check_kernels_golden(root)
    status |= check_static_predictions(root, args.rtol)
    # the compression layer must stay a bit-identical no-op when inert and
    # must actually break the HBM wall at the realized default point
    status |= check_compressed_invariants(args.rtol)
    return status


if __name__ == "__main__":
    sys.exit(main())
