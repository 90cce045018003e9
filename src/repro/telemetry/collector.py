"""The telemetry sink: collects events and computes aggregate views.

A :class:`TraceCollector` is handed to the producers (``CycleSimulator``,
the fault injector, the serving layer) which call its ``record_*``
methods.  Producers hold ``collector=None`` by default and guard every
call with ``if collector is not None`` — with tracing off no telemetry
code runs at all, keeping the calibration path bit-identical.

The simulator records each program in one :meth:`TraceCollector.
record_program` call: one :class:`TraceEvent` per op, copied from its
:class:`~repro.compiler.cost.model.OpCost` record, at the start/end
cycles the program-order schedule (:func:`repro.sim.schedule.schedule`)
assigned.  The aggregate views are the cost model's roll-ups over those
events, so they agree with the simulator's report bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.compiler.cost.model import (
    bound_histogram,
    totals,
    utilization_by_class,
)
from repro.hw.config import AlchemistConfig
from repro.sim.schedule import RESOURCES, ScheduledOp
from repro.telemetry.events import FaultEvent, TraceEvent


class TraceCollector:
    """Accumulates trace events across one or more simulated programs."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        #: Fault injections/recoveries (from repro.sim.faults injectors).
        self.fault_events: List[FaultEvent] = []
        #: ServeReports recorded by the serving layer (``repro serve``
        #: runs handed this collector).
        self.serving_reports: List[object] = []
        #: program name -> (total_cores, cycles_per_second) at record time.
        self.program_configs: Dict[str, Dict[str, float]] = {}

    # ------------------------------ producers -------------------------- #

    def record_program(self, name: str, config: AlchemistConfig,
                       ops: Sequence[ScheduledOp],
                       edges: Mapping[int, Sequence[int]]) -> None:
        """Record one simulated program: an event per scheduled op, in
        schedule order, at its start/end cycles.

        ``edges`` maps each op index to its producer op indices (the
        program's :meth:`~repro.compiler.ops.Program.dependency_edges`).
        """
        self.program_configs[name] = {
            "total_cores": config.total_cores,
            "cycles_per_second": config.cycles_per_second,
        }
        for i, s in enumerate(ops):
            cost = s.timing
            op = cost.op
            self.events.append(TraceEvent(
                program=name,
                index=i,
                name=s.label,
                kind=op.kind.value,
                operator_class=cost.operator_class,
                patterns=cost.patterns,
                start_cycle=s.start,
                end_cycle=s.end,
                compute_cycles=cost.compute_cycles,
                sram_cycles=cost.sram_cycles,
                hbm_cycles=cost.hbm_cycles,
                busy_core_cycles=cost.busy_core_cycles,
                waves=cost.waves,
                meta_ops=cost.meta_ops,
                sram_bytes=cost.sram_bytes,
                hbm_bytes=cost.hbm_bytes,
                bound=cost.bound,
                args=op.trace_args(),
                deps=tuple(edges.get(s.index, ())),
            ))

    def record_fault(self, event: FaultEvent) -> None:
        """Record one fault injection/recovery (from a FaultInjector)."""
        self.fault_events.append(event)

    def record_serving_report(self, report) -> None:
        """Record one ServeReport (from a ServingSimulator run)."""
        self.serving_reports.append(report)

    # ------------------------------ aggregate views --------------------- #

    def makespan_cycles(self, program: Optional[str] = None) -> float:
        events = self._select(program)
        return max((e.end_cycle for e in events), default=0.0)

    def component_utilization(self, program: str) -> Dict[str, float]:
        """Compute-core utilization per operator class (Figure 7(b) view)
        of ``program``, on the core count it was recorded with."""
        cores = int(self.program_configs[program]["total_cores"])
        return utilization_by_class(self._select(program), cores)

    def bound_histogram(self, program: Optional[str] = None) -> Dict[str, int]:
        """How many ops land in each roofline regime."""
        return bound_histogram(self._select(program))

    def bound_cycles(self, program: Optional[str] = None) -> Dict[str, float]:
        """Critical-resource cycles per roofline regime."""
        out: Dict[str, float] = {}
        for e in self._select(program):
            out[e.bound] = out.get(e.bound, 0.0) + e.duration_cycles
        return out

    def bandwidth_occupancy(
        self, program: Optional[str] = None
    ) -> Dict[str, float]:
        """Fraction of the makespan each resource is busy."""
        makespan = self.makespan_cycles(program)
        if makespan == 0:
            return {r: 0.0 for r in RESOURCES}
        t = totals(self._select(program))
        busy = {"compute": t.compute_cycles, "sram": t.sram_cycles,
                "hbm": t.hbm_cycles}
        return {r: min(1.0, busy[r] / makespan) for r in RESOURCES}

    def fault_totals(self) -> Dict[str, int]:
        """How many fault events of each kind landed on the timeline."""
        out: Dict[str, int] = {}
        for e in self.fault_events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def summary_dict(self) -> Dict[str, object]:
        """JSON-ready roll-up of everything the collector has seen."""
        programs = {}
        for name in self.program_configs:
            events = self._select(name)
            t = totals(events)
            programs[name] = {
                "num_ops": len(events),
                "makespan_cycles": self.makespan_cycles(name),
                "bound_histogram": bound_histogram(events),
                "bound_cycles": self.bound_cycles(name),
                "component_utilization": self.component_utilization(name),
                "bandwidth_occupancy": self.bandwidth_occupancy(name),
                "waves": t.waves,
                "meta_ops": t.meta_ops,
                "sram_bytes": t.sram_bytes,
                "hbm_bytes": t.hbm_bytes,
            }
        out: Dict[str, object] = {
            "programs": programs,
            "num_events": len(self.events),
        }
        if self.serving_reports:
            # only present when the serving layer ran, so summaries from
            # other runs stay byte-identical to before it existed
            out["serving"] = {
                "runs": len(self.serving_reports),
                "reports": [r.as_dict() for r in self.serving_reports],
            }
        if self.fault_events:
            # same convention: only present when faults were injected, so
            # fault-free summaries stay byte-identical to the pre-fault era
            out["faults"] = {
                "num_events": len(self.fault_events),
                "by_kind": self.fault_totals(),
                "events": [e.as_dict() for e in self.fault_events],
            }
        return out

    # ------------------------------------------------------------------ #

    def _select(self, program: Optional[str]) -> List[TraceEvent]:
        if program is None:
            return self.events
        return [e for e in self.events if e.program == program]
