"""Tests for the Chrome-trace / CSV exporters and the trace CLI."""

import csv
import io
import json

import pytest

from repro.cli import main
from repro.compiler.ckks_programs import bootstrapping_program
from repro.compiler.tfhe_programs import PBS_SET_I, pbs_batch_program
from repro.sim.simulator import CycleSimulator
from repro.telemetry import (
    TraceCollector,
    to_chrome_trace,
    to_csv_text,
    write_chrome_trace,
    write_csv,
)
from repro.telemetry.export import CSV_FIELDS


@pytest.fixture(scope="module")
def traced_pbs():
    collector = TraceCollector()
    report = CycleSimulator(collector=collector).run(
        pbs_batch_program(PBS_SET_I, batch=128))
    return collector, report


def test_chrome_trace_structure(traced_pbs):
    collector, report = traced_pbs
    trace = to_chrome_trace(collector)
    assert json.loads(json.dumps(trace)) == trace   # JSON-serializable
    events = trace["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    metas = [e for e in events if e["ph"] == "M"]
    assert len(xs) == collector.num_events == len(report.timings)
    # process + 3 thread-name records per traced program
    assert len(metas) == 4 * len(collector.programs)
    names = {m["args"]["name"] for m in metas}
    assert {"compute", "sram", "hbm"} <= names
    for e in xs:
        assert e["ts"] >= 0 and e["dur"] >= 0
        assert e["args"]["bound"] in ("compute", "sram", "hbm", "free")
    # timestamps are microseconds of simulated time: the last event ends at
    # the resource-pipelined makespan
    end_us = max(e["ts"] + e["dur"] for e in xs)
    makespan = trace["otherData"]["summary"]["programs"][
        report.program_name]["makespan_cycles"]
    hz = report.config.cycles_per_second
    assert end_us == pytest.approx(makespan / hz * 1e6)


def test_chrome_trace_bootstrapping_workload():
    """Acceptance check: valid Chrome trace for CKKS bootstrapping."""
    collector = TraceCollector()
    CycleSimulator(collector=collector).run(bootstrapping_program())
    trace = to_chrome_trace(collector)
    xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len(xs) > 500                       # deep workload: many ops
    assert {"ntt", "bconv", "decomp"} <= {e["cat"] for e in xs}


def test_csv_round_trip(traced_pbs):
    collector, report = traced_pbs
    text = to_csv_text(collector)
    rows = list(csv.DictReader(io.StringIO(text)))
    _, ops, _ = collector.programs[report.program_name]
    assert len(rows) == len(ops)
    assert tuple(rows[0].keys()) == CSV_FIELDS
    for row, s in zip(rows, ops):
        assert row["name"] == s.label
        assert int(row["index"]) == s.index
        assert float(row["duration_cycles"]) == pytest.approx(s.end - s.start)
        assert int(row["meta_ops"]) == s.timing.meta_ops


def test_file_writers(tmp_path, traced_pbs):
    collector, _ = traced_pbs
    chrome_path = tmp_path / "trace.json"
    csv_path = tmp_path / "trace.csv"
    write_chrome_trace(collector, str(chrome_path))
    write_csv(collector, str(csv_path))
    loaded = json.loads(chrome_path.read_text())
    assert loaded["otherData"]["summary"]["num_events"] == (
        collector.num_events)
    assert csv_path.read_text() == to_csv_text(collector)


# ------------------------------ CLI -------------------------------------- #


def test_cli_trace_chrome_stdout(capsys):
    assert main(["trace", "cmult"]) == 0
    trace = json.loads(capsys.readouterr().out)
    assert any(e["ph"] == "X" for e in trace["traceEvents"])


def test_cli_trace_csv_to_file(tmp_path, capsys):
    out = tmp_path / "pbs.csv"
    assert main(["trace", "pbs-i", "--format", "csv", "-o", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert rows and rows[0]["program"].startswith("pbs_batch")


def test_cli_trace_chrome_to_file(tmp_path, capsys):
    out = tmp_path / "boot.json"
    assert main(["trace", "bootstrapping", "-o", str(out)]) == 0
    trace = json.loads(out.read_text())
    assert any(e["ph"] == "X" for e in trace["traceEvents"])


def test_cli_trace_unknown_workload(capsys):
    assert main(["trace", "nope"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_cli_trace_accepts_scheme_aliases(capsys):
    assert main(["trace", "bootstrapping", "--format", "csv"]) == 0
    canonical = capsys.readouterr().out
    assert main(["trace", "ckks-bootstrap", "--format", "csv"]) == 0
    assert capsys.readouterr().out == canonical
