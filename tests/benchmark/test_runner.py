"""The runner's command line, run in child processes."""

import json
import os
import shutil
import subprocess
import sys

from benchmarks.e2e.cli import CHILD_ENV, child_env
from benchmarks.e2e.metrics import ROOT, load_benchmark

RUN = ["benchmarks/e2e/run.py", "--workload", "bfv-mult"]


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_untraced_run_prints_the_end_to_end_metrics(tmp_path):
    out = tmp_path / "new-dir" / "runs.json"
    proc = _run([*RUN, "--seed", "1", "--duration", "0.2", "--warmup", "1",
                 "--trace", "0", "-o", str(out)])
    assert proc.returncode == 0, proc.stderr
    line = _last_json(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in load_benchmark()["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())

    (result,) = json.loads(out.read_text())
    run = result["run"]
    assert len(run["setup_samples_s"]) == len(run["setup_wall_s"]) == 3
    assert run["nproc"] >= 1 and run["samples"] == result["attempted"]
    assert len(run["probe_ms"]) == len(run["latencies_ms"]) == run["samples"]
    assert run["kernel_backend"] == "numpy"
    for key in ("python", "numpy", "loadavg_before", "loadavg_after",
                "gap_s", "started_at"):
        assert key in run
    assert result["metrics"]["failed_fraction"]["value"] == 0.0


def test_traced_run_prints_the_per_layer_metrics(tmp_path):
    proc = _run([*RUN, "--seed", "0", "--seconds", "0.4", "--trace", "1",
                 "--trace-dir", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    line = _last_json(proc.stdout)
    names = [m["name"] for m in load_benchmark()["per_layer"]]
    assert list(line["metrics"]) == names
    assert line["metrics"]["bfv.self_share"]["value"] > 0
    trace = json.loads((tmp_path / "bfv-mult.seed0.trace.json").read_text())
    events = trace["traceEvents"]
    assert events and all(e["ph"] == "X" for e in events)
    assert {e["cat"] for e in events} >= {"request", "bfv", "kernels"}
    table = (tmp_path / "bfv-mult.seed0.layers.txt").read_text()
    assert "trace.overhead" in table


def test_fails_without_the_library(tmp_path):
    doc = load_benchmark()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in doc["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run([*doc["command"][1:], "--workload", "bfv-mult", "--seed",
                 "0", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_child_environment(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "reference")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
    env = child_env()
    assert "REPRO_KERNEL_BACKEND" not in env
    assert all(env[k] == v for k, v in CHILD_ENV.items())
    assert env["PYTHONPATH"].split(os.pathsep)[0] == str(ROOT / "src")


def test_the_library_is_first_imported_inside_the_setup_clock():
    # the child starts the set-up clock after importing these modules
    code = ("import sys; import benchmarks.e2e.session, benchmarks.e2e.speed; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'repro'))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_untraced_child_never_imports_the_tracer():
    code = ("import sys; from benchmarks.e2e import child; "
            "child.main(['--workload', 'bfv-mult', '--seed', '0', "
            "'--seconds', '0.1', '--warmup', '1']); "
            "print('traced' if 'benchmarks.e2e.tracer' in sys.modules "
            "else 'untraced')")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "untraced"
