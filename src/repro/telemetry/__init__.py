"""Structured observability for the cycle simulator (tracing + bench JSON).

The package is strictly optional at simulation time: ``CycleSimulator``
takes a ``collector=None`` default and skips all telemetry work when it is
absent, so tracing-off runs are bit-identical to the pre-telemetry
simulator.  Nothing under :mod:`repro.sim` or :mod:`repro.serve` imports
this package at run time.

* :mod:`repro.telemetry.collector` — :class:`TraceCollector`, which keeps
  each traced program's config, scheduled ops and producer edges, and
  rolls them up (per-class utilization, bound histograms, bandwidth
  occupancy).
* :mod:`repro.telemetry.export` — Chrome-trace (``chrome://tracing``) and
  CSV exporters.
* :mod:`repro.telemetry.bench` — the Table 7 / Figure 6 benchmark runner
  that writes ``BENCH_table7.json`` / ``BENCH_fig6.json``.
"""

from repro.telemetry.collector import TraceCollector
from repro.telemetry.export import (
    to_chrome_trace,
    to_csv_text,
    write_chrome_trace,
    write_csv,
)

__all__ = [
    "TraceCollector",
    "to_chrome_trace",
    "to_csv_text",
    "write_chrome_trace",
    "write_csv",
]
