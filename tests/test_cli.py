"""Tests for the ``python -m repro`` command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "128 units" in out
    assert "181.1 mm^2" in out
    assert "Total" in out


def test_info_with_overrides(capsys):
    assert main(["info", "--units", "64"]) == 0
    assert "64 units" in capsys.readouterr().out


def test_info_area_rows_count_the_configured_units(capsys):
    assert main(["info", "--units", "64"]) == 0
    out = capsys.readouterr().out
    assert "64x Computing Unit" in out
    assert "128x" not in out


@pytest.mark.parametrize("command", [["simulate", "cmult"], ["info"],
                                     ["analyze", "cmult"]])
@pytest.mark.parametrize("flag,value", [("--units", "0"), ("--units", "-4"),
                                        ("--hbm-gbps", "0"),
                                        ("--hbm-gbps", "-5"),
                                        ("--hbm-gbps", "inf"),
                                        # no finite float value
                                        ("--units", "9" * 400)])
def test_non_positive_hardware_override_is_a_usage_error(
        capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(command + [flag, value])
    assert exc.value.code == 2
    assert "must be positive" in capsys.readouterr().err


def test_serve_nan_rate_is_a_usage_error():
    """A NaN rate makes every arrival instant NaN, which the serving loop
    never admits: it must exit 2, not loop forever (in a subprocess, so a
    hang fails the test instead of stalling the suite)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--rate", "nan",
         "--requests", "10"], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "finite positive rates" in proc.stderr


@pytest.mark.parametrize("rate", ["inf", "500,inf", "1e-320"])
def test_serve_rate_beyond_range_is_a_usage_error(capsys, rate):
    """An infinite rate (whose JSON would hold ``Infinity``) and one so low
    that the arrival instants overflow both exit 2."""
    assert main(["serve", "--rate", rate, "--requests", "10"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("floor", ["nan", "0", "-1", "inf"])
def test_kernels_check_floor_must_be_positive_and_finite(capsys, floor):
    """A NaN, zero or negative floor no speedup can fail is a usage error
    in both parsers, before any timing runs."""
    from repro.kernels.bench import main as kernels_main

    for run in (lambda: main(["kernels", "--quick", "--check-floor", floor]),
                lambda: kernels_main(["--quick", "--check-floor", floor])):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 2
        assert "must be positive and finite" in capsys.readouterr().err


def test_workloads_listing(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    for name in ("pmult", "cmult", "bootstrapping", "pbs-i"):
        assert name in out


def test_simulate_known_workload(capsys):
    assert main(["simulate", "cmult"]) == 0
    out = capsys.readouterr().out
    assert "hbm-bound" in out
    assert "throughput" in out


def test_simulate_pbs_reports_throughput(capsys):
    assert main(["simulate", "pbs-i"]) == 0
    assert "PBS/s" in capsys.readouterr().out


def test_simulate_unknown_workload(capsys):
    assert main(["simulate", "nonsense"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_simulate_mix_round_robin(capsys):
    assert main(["simulate", "--mix", "ckks-bootstrap,tfhe-pbs",
                 "--policy", "round-robin"]) == 0
    out = capsys.readouterr().out
    assert "mix[round-robin]" in out
    assert "fairness" in out
    assert "bootstrapping" in out and "pbs_batch128_N1024" in out
    assert "slowdown" in out


def test_simulate_mix_unknown_workload(capsys):
    assert main(["simulate", "--mix", "cmult,nonsense"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_simulate_missing_workload_without_mix(capsys):
    assert main(["simulate"]) == 2
    assert "workload name required" in capsys.readouterr().err


def test_simulate_engine_flag_brackets_makespan(capsys):
    assert main(["simulate", "cmult", "--engine"]) == 0
    out = capsys.readouterr().out
    assert "event-driven:" in out
    assert "pipelined" in out and "serialized" in out


def test_simulate_fuse_flag(capsys):
    assert main(["simulate", "cmult", "--fuse"]) == 0
    assert ("[fuse-elementwise] cmult: fused 2 elementwise pairs "
            "(23 -> 21 ops)") in capsys.readouterr().out.splitlines()


def test_simulate_with_hbm_override(capsys):
    assert main(["simulate", "keyswitch", "--hbm-gbps", "2000"]) == 0
    doubled = capsys.readouterr().out
    assert main(["simulate", "keyswitch"]) == 0
    base = capsys.readouterr().out

    def tput(text):
        line = [l for l in text.splitlines() if l.startswith("throughput")][0]
        return float(line.split()[1].replace(",", ""))

    # doubled bandwidth speeds up the HBM-bound keyswitch substantially
    assert tput(doubled) > 1.5 * tput(base)


def test_table7(capsys):
    assert main(["table7"]) == 0
    out = capsys.readouterr().out
    assert "946,970" in out  # paper column present


def test_ratios(capsys):
    assert main(["ratios"]) == 0
    out = capsys.readouterr().out
    assert "TFHE-PBS" in out and "ntt=" in out


def test_utilization(capsys):
    assert main(["utilization"]) == 0
    out = capsys.readouterr().out
    assert "Alchemist" in out and "SHARP" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_report_command(capsys):
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert "live report" in out
    assert "Table 5" in out and "Figure 6" in out and "Figure 7" in out
    assert "946,970" in out  # paper anchor present


def test_lint_all_workloads_clean(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "clean (0 diagnostics)" in out
    for name in ("pmult", "bootstrapping", "pbs_batch128_N1024"):
        assert name in out


def test_lint_single_workload(capsys):
    assert main(["lint", "cmult"]) == 0
    out = capsys.readouterr().out
    assert "cmult: clean (0 diagnostics)" in out


def test_lint_unknown_workload(capsys):
    assert main(["lint", "nonsense"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_lint_json_output(capsys):
    import json

    assert main(["lint", "cmult", "keyswitch", "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["program"] for r in reports] == ["cmult", "keyswitch"]
    assert all(r["ok"] for r in reports)


def test_lint_notes_shows_advisories(capsys):
    assert main(["lint", "keyswitch", "--notes"]) == 0
    out = capsys.readouterr().out
    assert "ALC402" in out          # peak-live-set advisory


def test_lint_engine_audit(capsys):
    assert main(["lint", "cmult", "tfhe-pbs", "--engine-audit"]) == 0
    assert "clean (0 diagnostics)" in capsys.readouterr().out


def test_lint_fail_on_note_exits_nonzero(capsys):
    # keyswitch carries advisory notes (ALC402/ALC6xx) but no errors:
    # default threshold passes, --fail-on note fails
    assert main(["lint", "keyswitch"]) == 0
    capsys.readouterr()
    assert main(["lint", "keyswitch", "--fail-on", "note"]) == 1
    assert "--fail-on note" in capsys.readouterr().err


def test_lint_fail_on_warning_passes_on_notes_only(capsys):
    assert main(["lint", "keyswitch", "--fail-on", "warning"]) == 0


def test_lint_fail_on_rejects_bad_value():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["lint", "--fail-on", "fatal"])


def _noise_chain(name, meta, roles):
    from repro.compiler.ops import HighLevelOp, OpKind, Program

    prog = Program(name, poly_degree=512, inputs=("x0",),
                   metadata={"noise": dict(meta)})
    cur = "x0"
    for i, role in enumerate(roles):
        label = f"s{i}"
        prog.add(HighLevelOp(OpKind.EW_MULT, label, poly_degree=512,
                             channels=3, polys=2, defs=(label,),
                             uses=(cur,), role=role))
        cur = label
    return prog


@pytest.fixture
def noise_only_workloads(monkeypatch):
    """Synthetic programs whose only diagnostics are ALC7xx.

    ``note-only`` is a clean annotated chain (just the ALC704 headroom
    note); ``warn-only`` sits inside the warn margin (ALC702 + ALC704);
    ``exhausted`` is past the budget (ALC701 + ALC703 + ALC704).
    """
    bfv = {"scheme": "bfv", "n": 64, "log2_q": 108.0, "log2_t": 17.0,
           "sigma": 3.2, "dnum": 2}
    programs = {
        "note-only": _noise_chain("note-only", bfv, ["tensor"]),
        "warn-only": _noise_chain("warn-only", dict(bfv, log2_q=60.0),
                                  ["tensor"]),
        "exhausted": _noise_chain("exhausted", dict(bfv, log2_q=40.0),
                                  ["tensor"]),
    }
    monkeypatch.setattr("repro.cli._workloads", lambda: programs)
    return programs


@pytest.mark.parametrize("workload,fail_on,expected", [
    # NOTE-only program: only --fail-on note trips
    ("note-only", "error", 0),
    ("note-only", "warning", 0),
    ("note-only", "note", 1),
    # WARNING-only program: warning and note trip, error does not
    ("warn-only", "error", 0),
    ("warn-only", "warning", 1),
    ("warn-only", "note", 1),
    # exhausted program: every threshold trips
    ("exhausted", "error", 1),
    ("exhausted", "warning", 1),
    ("exhausted", "note", 1),
])
def test_lint_noise_fail_on_matrix(noise_only_workloads, capsys,
                                   workload, fail_on, expected):
    code = main(["lint", workload, "--noise", "--fail-on", fail_on])
    capsys.readouterr()
    assert code == expected, (workload, fail_on)


def test_lint_noise_default_threshold_is_error(noise_only_workloads,
                                               capsys):
    # the ALC704 note and the ALC702 warning never fail a default run
    assert main(["lint", "note-only", "warn-only", "--noise"]) == 0
    out = capsys.readouterr().out
    assert "ALC704" in out and "ALC702" in out
    assert main(["lint", "exhausted", "--noise"]) == 1
    assert "ALC701" in capsys.readouterr().out


def test_lint_noise_programs_structurally_clean(noise_only_workloads,
                                                capsys):
    # without --noise the synthetic chains carry no structural defects:
    # the matrix above really is measuring ALC7xx interaction alone
    assert main(["lint", "note-only", "--fail-on", "warning"]) == 0


def test_analyze_all_workloads(capsys):
    assert main(["analyze"]) == 0
    out = capsys.readouterr().out
    for name in ("pmult", "keyswitch", "bootstrapping",
                 "pbs_batch128_N1024"):
        assert name in out
    assert "hbm-bound" in out and "compute-bound" in out


def test_analyze_keyswitch_reproduces_135us(capsys):
    assert main(["analyze", "keyswitch"]) == 0
    out = capsys.readouterr().out
    assert "134,480 cycles" in out
    assert "134.5 us" in out
    assert "hbm-bound" in out
    assert "ALC601" in out          # evk stream on the critical path


def test_analyze_per_op_table(capsys):
    assert main(["analyze", "keyswitch", "--per-op"]) == 0
    out = capsys.readouterr().out
    assert "ks.evk" in out and "crit" in out


def test_analyze_roofline(capsys):
    assert main(["analyze", "keyswitch", "--roofline"]) == 0
    out = capsys.readouterr().out
    assert "ridge intensity" in out
    assert "lane-ops/cyc" in out


def test_analyze_check_passes(capsys):
    assert main(["analyze", "cmult", "keyswitch", "--check"]) == 0
    out = capsys.readouterr().out
    assert out.count("check: OK") == 2
    assert "static serialized" in out


def test_analyze_json(capsys):
    import json

    assert main(["analyze", "cmult", "--json", "--check"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 1
    r = reports[0]
    assert r["program"] == "cmult"
    assert r["bottleneck"] == "hbm"
    assert r["check"]["ok"] is True
    assert any(d["code"] == "ALC601" for d in r["diagnostics"])


def test_analyze_unknown_workload(capsys):
    assert main(["analyze", "nonsense"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_analyze_rejects_an_unknown_name_before_any_work(capsys):
    assert main(["analyze", "keyswitch", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown workload 'nope'" in captured.err


def test_analyze_fail_on_note_exits_nonzero(capsys):
    assert main(["analyze", "keyswitch"]) == 0
    capsys.readouterr()
    assert main(["analyze", "keyswitch", "--fail-on", "note"]) == 1
    assert "--fail-on note" in capsys.readouterr().err


def test_analyze_scheme_aliases(capsys):
    assert main(["analyze", "ckks-bootstrap", "tfhe-pbs", "bfv-mult"]) == 0
    out = capsys.readouterr().out
    assert "bootstrapping" in out
    assert "pbs_batch128_N1024" in out
    assert "bfv_cmult" in out


def test_analyze_with_hw_override(capsys):
    assert main(["analyze", "keyswitch", "--hbm-gbps", "2000"]) == 0
    out = capsys.readouterr().out
    # doubled HBM halves the evk streaming bound: no longer 134,480
    assert "134,480 cycles" not in out


# ------------------------------- serve --------------------------------- #


def test_serve_default_sweep(capsys):
    assert main(["serve", "--requests", "60"]) == 0
    out = capsys.readouterr().out
    assert "serving seed 0" in out
    for profile in ("steady", "diurnal", "storm"):
        assert profile in out
    assert "goodput" in out and "p99" in out


def test_serve_single_profile_and_rates(capsys):
    assert main(["serve", "--profile", "steady", "--rate", "1000,4000",
                 "--requests", "50"]) == 0
    out = capsys.readouterr().out
    assert "diurnal" not in out and "storm" not in out
    assert out.count("steady") == 2


def test_serve_json_document(capsys):
    import json

    assert main(["serve", "--profile", "steady", "--rate", "2000",
                 "--requests", "40", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "alchemist-bench/serving/v1"
    assert set(doc["profiles"]) == {"steady"}
    point = doc["profiles"]["steady"]["sweep"][0]
    assert point["offered"] == 40
    assert point["served"] + point["shed"] == 40


def test_serve_output_file_replays_byte_identically(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["serve", "--profile", "storm", "--rate", "2000",
                 "--requests", "40", "-o", str(first)]) == 0
    assert main(["serve", "--profile", "storm", "--rate", "2000",
                 "--requests", "40", "-o", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_serve_matches_committed_golden(tmp_path, capsys):
    """`repro serve -o` with default arguments reproduces the committed
    BENCH_serving.json byte for byte."""
    import pathlib

    committed = pathlib.Path(__file__).resolve().parent.parent / \
        "BENCH_serving.json"
    out = tmp_path / "BENCH_serving.json"
    assert main(["serve", "-o", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == committed.read_bytes()


def test_serve_overload_shedding_exits_one(capsys):
    assert main(["serve", "--profile", "storm", "--rate", "200000",
                 "--requests", "400", "--admission", "shed"]) == 1
    assert "shed" in capsys.readouterr().out


def test_serve_unknown_profile(capsys):
    assert main(["serve", "--profile", "nonsense"]) == 2
    assert "unknown profile" in capsys.readouterr().err


def test_serve_unknown_admission_mode(capsys):
    assert main(["serve", "--admission", "panic"]) == 2
    assert "unknown admission mode" in capsys.readouterr().err


def test_serve_bad_rate_arguments(capsys):
    assert main(["serve", "--rate", "abc"]) == 2
    assert "comma-separated numbers" in capsys.readouterr().err
    assert main(["serve", "--rate", "-5"]) == 2
    assert "positive rate" in capsys.readouterr().err
    assert main(["serve", "--requests", "0"]) == 2
    assert "--requests" in capsys.readouterr().err
