"""Command line of the end-to-end benchmark.

``python -m benchmarks.e2e run --workload W --seed S [--seconds T]
[--warmup K] [--trace 0|1] [--trace-dir DIR] [-o FILE]``
    Runs one workload (``--all``: every workload, one after another)
    and prints every metric with its unit.  The last line of each
    workload's output is one JSON object with ``correct``, ``attempted``,
    ``failed`` and ``metrics``: the ``end_to_end`` metrics of
    ``BENCHMARK.json``, or with ``--trace 1`` its ``per_layer`` metrics.
    ``-o`` writes the detailed results (every metric, the run's
    environment) as a JSON list for ``compare``.

``python -m benchmarks.e2e compare [--claim WORKLOAD:METRIC] A.json ...
-- B.json ...``
    Judges the runs in the files after ``--`` against the runs before
    it; see :mod:`benchmarks.e2e.compare`.

Every workload runs in ``SETUPS`` fresh child processes, one after
another, with one BLAS thread each; the runner itself only waits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from benchmarks.e2e.child import MARKER
from benchmarks.e2e.metrics import ROOT, UNITS, load_benchmark
from benchmarks.e2e.session import Sample, Window
from benchmarks.e2e.workloads import WORKLOADS

SCHEMA = "alchemist-bench/e2e/v1"

#: Fresh child processes per untraced run.  Each sets up and measures
#: a third of the window; ``setup_s`` is the median of their set-ups.
SETUPS = 3

#: Every child process of one workload run must end within this.
BUDGET_S = 170.0

#: Environment of every child: one BLAS/OpenMP thread, a fixed hash
#: seed, and the default kernel backend (``REPRO_KERNEL_BACKEND`` unset).
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class RunError(RuntimeError):
    """A child process failed or produced no result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_KERNEL_BACKEND", None)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def _spawn(argv: List[str], deadline: float) -> dict:
    """Run one child to completion and return its result."""
    cmd = [sys.executable, "-m", "benchmarks.e2e.child", *argv]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"child did not finish in time: {' '.join(cmd)}") \
            from exc
    lines = proc.stdout.splitlines()
    for line in lines:
        if not line.startswith(MARKER):
            print(line, file=sys.stderr)
    if proc.returncode != 0:
        raise RunError(f"child exited with {proc.returncode}: {' '.join(cmd)}")
    for line in reversed(lines):
        if line.startswith(MARKER):
            return json.loads(line[len(MARKER):])
    raise RunError(f"child printed no result: {' '.join(cmd)}")


def _window(docs: List[dict]) -> Window:
    """The children's windows pooled into one."""
    return Window([Sample(index, seconds, ok, error=error, probe_s=probe_s)
                   for doc in docs
                   for index, seconds, ok, error, probe_s in doc["samples"]],
                  sum(doc["elapsed_s"] for doc in docs))


def run_workload(name: str, seed: int, seconds: float, warmup: int,
                 trace_dir: Optional[Path] = None) -> dict:
    """One workload run in fresh children; the detailed result.

    Untraced, ``SETUPS`` children each set up and measure a share of the
    window, and their requests are pooled.  Traced, one child measures
    the whole window, half of it traced.
    """
    deadline = time.monotonic() + BUDGET_S
    started_at = time.time()
    load_before = os.getloadavg()
    children = SETUPS if trace_dir is None else 1
    argv = ["--workload", name, "--seed", str(seed),
            "--seconds", repr(seconds / children), "--warmup", str(warmup)]
    if trace_dir is not None:
        argv += ["--trace-dir", str(trace_dir)]
    results = [_spawn(argv + ["--part", str(k), "--parts", str(children)],
                      deadline)
               for k in range(children)]

    window = _window([r["window"] for r in results])
    traced = [r["traced_window"] for r in results if "traced_window" in r]
    attempted = len(window.samples) + sum(len(t["samples"]) for t in traced)
    failed = window.failed + sum(
        1 for t in traced for _, _, ok, _, _ in t["samples"] if not ok)
    values = window.metrics()
    values["setup_s"] = statistics.median(r["setup_s"] for r in results)
    values["peak_rss_mb"] = statistics.median(
        r["peak_rss_mb"] for r in results)
    values.update(results[0]["modeled"])
    result = {
        "schema": SCHEMA,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "warmup": warmup,
        "trace": trace_dir is not None,
        "correct": all(r["warmup_ok"] for r in results) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in sorted(values.items())},
        "run": {
            "started_at": started_at,
            "python": platform.python_version(),
            "numpy": results[0]["numpy"],
            "kernel_backend": results[0]["kernel_backend"],
            "nproc": os.cpu_count(),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "samples": len(window.samples),
            "gap_s": window.elapsed_s - sum(s.seconds for s in window.samples),
            "setup_samples_s": [r["setup_s"] for r in results],
            "setup_wall_s": [r["setup_wall_s"] for r in results],
            "setup_probe_ms": [r["setup_probe_s"] * 1e3 for r in results],
            "latencies_ms": [s.seconds * 1e3 for s in window.samples],
            "probe_ms": [s.probe_s * 1e3 for s in window.samples],
        },
    }
    if trace_dir is not None:
        from benchmarks.e2e.tracer import per_layer_metrics

        child = results[0]
        result["per_layer"] = {
            metric: {"value": child["per_layer"][metric], "unit": unit}
            for metric, unit, _ in per_layer_metrics()}
        result["trace_missing"] = child["trace_missing"]
    return result


def contract_line(result: dict, doc: dict) -> dict:
    """The last output line: the ``BENCHMARK.json`` metrics of a run."""
    key, source = (("per_layer", result["per_layer"]) if result["trace"]
                   else ("end_to_end", result["metrics"]))
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: source[m["name"]] for m in doc[key]}}


def _print_result(result: dict, doc: dict) -> None:
    name = result["workload"]
    shown = dict(result["metrics"])
    shown.update(result.get("per_layer", {}))
    for metric, entry in shown.items():
        print(f"{name}  {metric:<34} {entry['value']:>16.6g}  {entry['unit']}")
    print(f"{name}  requests {result['attempted']}, failed "
          f"{result['failed']}, correct {str(result['correct']).lower()}")
    for target in result.get("trace_missing", []):
        print(f"{name}  not traced (target not found): {target}",
              file=sys.stderr)
    print(json.dumps(contract_line(result, doc)), flush=True)


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be non-negative")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run workloads")
    which = run_p.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=list(WORKLOADS))
    which.add_argument("--all", action="store_true")
    run_p.add_argument("--seed", type=_seed, required=True)
    run_p.add_argument("--seconds", "--duration", type=float, default=None,
                       help="timed window per workload "
                            "(default: run_seconds of BENCHMARK.json)")
    run_p.add_argument("--warmup", type=int, default=1,
                       help="warm-up requests, part of set-up (default 1)")
    run_p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                       help="1: traced run, report the per-layer metrics")
    run_p.add_argument("--trace-dir", type=Path, default=Path(".e2e-trace"),
                       help="where a traced run writes its Chrome trace and "
                            "layer table (default .e2e-trace)")
    run_p.add_argument("-o", "--output", type=Path,
                       help="write the detailed results as a JSON list")
    cmp_p = sub.add_parser("compare", help="compare two sets of results")
    cmp_p.add_argument("--claim", metavar="WORKLOAD:METRIC",
                       help="judge a claimed gain on paired runs")
    cmp_p.add_argument("base", nargs="+", help="base result files")
    return parser


def cmd_run(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.warmup < 1:
        print("--warmup must be at least 1", file=sys.stderr)
        return 2
    doc = load_benchmark()
    seconds = float(args.seconds if args.seconds is not None
                    else doc["run_seconds"])
    if seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    trace_dir = args.trace_dir.resolve() if args.trace else None
    names = list(WORKLOADS) if args.all else [args.workload]
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, seconds,
                                        args.warmup, trace_dir))
            _print_result(results[-1], doc)
    except RunError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.output is not None and results:
            args.output.write_text(json.dumps(results, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    new_files: List[str] = []
    if argv[:1] == ["compare"] and "--" in argv:
        cut = argv.index("--")
        argv, new_files = argv[:cut], argv[cut + 1:]
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    from benchmarks.e2e.compare import cmd_compare

    return cmd_compare(args.base, new_files, args.claim)
