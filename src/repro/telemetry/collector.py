"""The trace sink: the scheduler's own op records, per traced program.

``CycleSimulator(collector=...)`` records each program it runs in one
:meth:`TraceCollector.record_program` call: the config, the
:class:`~repro.sim.schedule.ScheduledOp` list the program-order schedule
(:func:`repro.sim.schedule.schedule`) returned, and the producer edges.
Each op carries its :class:`~repro.compiler.cost.model.OpCost`, so the
collector copies nothing: the exporters read the ops directly, and
:meth:`TraceCollector.summary_dict` rolls them up with the cost model's
roll-ups, so it agrees with the simulator's report bit for bit.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from repro.compiler.cost.model import (
    bound_histogram,
    totals,
    utilization_by_class,
)
from repro.hw.config import AlchemistConfig
from repro.sim.schedule import RESOURCES, ScheduledOp

#: One traced program: its config, its ops in schedule order, and each op
#: index's producer op indices.
Trace = Tuple[AlchemistConfig, Sequence[ScheduledOp],
              Mapping[int, Sequence[int]]]


class TraceCollector:
    """The schedules of one or more simulated programs, by program name."""

    def __init__(self) -> None:
        self.programs: Dict[str, Trace] = {}

    def record_program(self, name: str, config: AlchemistConfig,
                       ops: Sequence[ScheduledOp],
                       edges: Mapping[int, Sequence[int]]) -> None:
        """Keep one simulated program's schedule as the scheduler built it.

        ``edges`` maps each op index to its producer op indices (the
        program's :meth:`~repro.compiler.ops.Program.dependency_edges`).
        A name is recorded once; a second schedule under it raises
        ``ValueError`` rather than mixing two runs in one trace.
        """
        if name in self.programs:
            raise ValueError(f"program {name!r} is already traced")
        self.programs[name] = (config, ops, edges)

    @property
    def num_events(self) -> int:
        """Scheduled ops across every traced program."""
        return sum(len(ops) for _, ops, _ in self.programs.values())

    def summary_dict(self) -> Dict[str, object]:
        """JSON-ready roll-up of every traced program."""
        programs = {}
        for name, (config, ops, _) in self.programs.items():
            costs = [s.timing for s in ops]
            t = totals(costs)
            makespan = max((s.end for s in ops), default=0.0)
            bound_cycles: Dict[str, float] = {}
            for s in ops:
                bound = s.timing.bound
                bound_cycles[bound] = (bound_cycles.get(bound, 0.0)
                                       + (s.end - s.start))
            busy = {"compute": t.compute_cycles, "sram": t.sram_cycles,
                    "hbm": t.hbm_cycles}
            programs[name] = {
                "num_ops": len(ops),
                "makespan_cycles": makespan,
                "bound_histogram": bound_histogram(costs),
                "bound_cycles": bound_cycles,
                "component_utilization": utilization_by_class(
                    costs, config.total_cores),
                "bandwidth_occupancy": {
                    r: min(1.0, busy[r] / makespan) if makespan else 0.0
                    for r in RESOURCES},
                "waves": t.waves,
                "meta_ops": t.meta_ops,
                "sram_bytes": t.sram_bytes,
                "hbm_bytes": t.hbm_bytes,
            }
        return {"programs": programs, "num_events": self.num_events}
