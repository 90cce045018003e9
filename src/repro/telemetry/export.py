"""Trace exporters: Chrome-trace JSON and CSV.

The Chrome format is the ``chrome://tracing`` / Perfetto JSON object form:
one complete ``"X"`` (duration) event per simulated op, with the program as
the process and the op's critical resource as the thread, so the resource
pipelining is visible as three parallel swim-lanes.  Timestamps are in
microseconds of simulated time (cycles / frequency).

Both exporters read each :class:`~repro.sim.schedule.ScheduledOp` the
collector holds: its slot on the timeline and its
:class:`~repro.compiler.cost.model.OpCost`.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, Mapping, Sequence

from repro.sim.schedule import RESOURCES, ScheduledOp
from repro.telemetry.collector import TraceCollector

#: Column order of the CSV export.
CSV_FIELDS = (
    "program", "index", "name", "kind", "operator_class", "patterns",
    "start_cycle", "end_cycle", "duration_cycles",
    "compute_cycles", "sram_cycles", "hbm_cycles", "busy_core_cycles",
    "waves", "meta_ops", "sram_bytes", "hbm_bytes", "bound", "deps",
)


def to_chrome_trace(collector: TraceCollector) -> Dict[str, object]:
    """Build the Chrome-trace JSON object for everything collected."""
    pids = {name: i + 1 for i, name in enumerate(collector.programs)}
    tids = {r: i + 1 for i, r in enumerate(RESOURCES)}
    trace_events = []
    for name, pid in pids.items():
        trace_events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": name},
        })
        for resource, tid in tids.items():
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": resource},
            })
    for name, (config, ops, _) in collector.programs.items():
        us_per_cycle = 1e6 / config.cycles_per_second
        for s in ops:
            c = s.timing
            bound = c.bound
            args = {
                "kind": c.op.kind.value,
                "operator_class": c.operator_class,
                "patterns": list(c.patterns),
                "bound": bound,
                "compute_cycles": c.compute_cycles,
                "sram_cycles": c.sram_cycles,
                "hbm_cycles": c.hbm_cycles,
                "busy_core_cycles": c.busy_core_cycles,
                "waves": c.waves,
                "meta_ops": c.meta_ops,
                "sram_bytes": c.sram_bytes,
                "hbm_bytes": c.hbm_bytes,
            }
            args.update(c.op.trace_args())
            trace_events.append({
                "name": s.label,
                "cat": c.operator_class,
                "ph": "X",
                "pid": pids[name],
                "tid": tids[bound if bound in tids else "compute"],
                "ts": s.start * us_per_cycle,
                "dur": (s.end - s.start) * us_per_cycle,
                "args": args,
            })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ns",
        "otherData": {
            "generator": "repro.telemetry",
            "summary": collector.summary_dict(),
        },
    }


def write_chrome_trace(collector: TraceCollector, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(collector), fh, indent=1, sort_keys=True)
        fh.write("\n")


def _csv_row(program: str, s: ScheduledOp,
             edges: Mapping[int, Sequence[int]]) -> Dict[str, object]:
    """One CSV row (keys per :data:`CSV_FIELDS`) for a scheduled op."""
    c = s.timing
    return {
        "program": program,
        "index": s.index,
        "name": s.label,
        "kind": c.op.kind.value,
        "operator_class": c.operator_class,
        "patterns": "+".join(c.patterns),
        "start_cycle": s.start,
        "end_cycle": s.end,
        "duration_cycles": s.end - s.start,
        "compute_cycles": c.compute_cycles,
        "sram_cycles": c.sram_cycles,
        "hbm_cycles": c.hbm_cycles,
        "busy_core_cycles": c.busy_core_cycles,
        "waves": c.waves,
        "meta_ops": c.meta_ops,
        "sram_bytes": c.sram_bytes,
        "hbm_bytes": c.hbm_bytes,
        "bound": c.bound,
        "deps": "+".join(str(d) for d in edges.get(s.index, ())),
    }


def to_csv_text(collector: TraceCollector) -> str:
    """One row per scheduled op, columns per :data:`CSV_FIELDS`."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(CSV_FIELDS),
                            lineterminator="\n")
    writer.writeheader()
    for name, (_, ops, edges) in collector.programs.items():
        for s in ops:
            writer.writerow(_csv_row(name, s, edges))
    return buf.getvalue()


def write_csv(collector: TraceCollector, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(to_csv_text(collector))
