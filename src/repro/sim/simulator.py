"""The cycle-level performance model.

The per-op cost formulas and calibration constants live in
:mod:`repro.compiler.cost.model` — one shared module consumed both here
(:meth:`CycleSimulator.time_op`) and by the static analyzer
(:mod:`repro.compiler.cost.analyzer`), so static predictions match
simulated charges exactly, by construction.  See that module's docstring
for the calibration anchors (Figure 7(b) utilizations, Table 7's
bandwidth-bound Hadd and ~135 us HBM-bound Keyswitch).

A timing is the :class:`~repro.compiler.cost.model.OpCost` record
``cost_op`` returns; :class:`SimulationReport` rolls those records up
with that module's roll-ups, so its bytes are the charged wire bytes.

Bottleneck classification (per op and per program) goes through the shared
:func:`repro.compiler.cost.model.classify_bound`, whose documented
tie-break (``hbm > sram > compute`` on exact ties — a roofline ridge point
counts as bandwidth-bound) replaces the old branch-order behaviour.

Start/end cycles (the trace's scheduled ops, :meth:`SimulationReport.
scheduled_cycles`) come from the program-order mode of the shared
scheduling kernel, :func:`repro.sim.schedule.schedule`.  Fault campaigns
run on the event engine (:mod:`repro.sim.engine`), not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.compiler.cost.model import (
    ENERGY_PJ_PER_HBM_BYTE,
    ENERGY_PJ_PER_LANE_CYCLE,
    ENERGY_PJ_PER_SRAM_BYTE,
    STATIC_WATTS,
    CostTotals,
    OpCost,
    by_class,
    cost_op,
    totals,
    utilization,
    utilization_by_class,
)
from repro.compiler.ops import HighLevelOp, Program
from repro.hw.config import ALCHEMIST_DEFAULT, AlchemistConfig
from repro.sim.schedule import schedule

if TYPE_CHECKING:  # annotation only: repro.telemetry imports repro.sim
    from repro.telemetry.collector import TraceCollector


@dataclass
class SimulationReport:
    """Workload-level results."""

    program_name: str
    config: AlchemistConfig
    timings: List[OpCost] = field(default_factory=list)

    # ------------------------------ totals ----------------------------- #

    @property
    def totals(self) -> CostTotals:
        return totals(self.timings)

    @property
    def total_compute_cycles(self) -> float:
        return self.totals.compute_cycles

    @property
    def total_sram_cycles(self) -> float:
        return self.totals.sram_cycles

    @property
    def total_hbm_cycles(self) -> float:
        return self.totals.hbm_cycles

    @property
    def total_busy_core_cycles(self) -> float:
        return self.totals.busy_core_cycles

    @property
    def pipelined_cycles(self) -> float:
        """Steady-state execution: resources overlap perfectly."""
        return self.totals.serialized_cycles

    @property
    def serialized_cycles(self) -> float:
        """Fully serialized execution (upper bound on latency)."""
        return sum(t.serialized_cycles for t in self.timings)

    @property
    def cycles(self) -> float:
        return self.pipelined_cycles

    @property
    def seconds(self) -> float:
        return self.cycles / self.config.cycles_per_second

    def throughput_per_second(self, ops_per_program: int = 1) -> float:
        if self.cycles == 0:
            return float("inf")
        return ops_per_program * self.config.cycles_per_second / self.cycles

    @property
    def bottleneck(self) -> str:
        return self.totals.bottleneck

    # ------------------------------ utilization ------------------------ #

    def utilization_by_class(self) -> Dict[str, float]:
        """Compute-resource utilization per operator class (Figure 7(b)).
        Data-movement and HBM ops are excluded (they do not occupy the
        cores)."""
        return utilization_by_class(self.timings, self.config.total_cores)

    def overall_compute_utilization(self) -> float:
        """Weighted-average utilization across all compute windows."""
        t = self.totals
        return utilization(t.busy_core_cycles, t.compute_cycles,
                           self.config.total_cores)

    def hbm_gigabytes(self) -> float:
        """HBM wire bytes moved, in GB (what ``cost_op`` charged)."""
        return self.totals.hbm_bytes / 1e9

    # ------------------------------ energy ----------------------------- #

    def energy_joules(self) -> float:
        """Dynamic + static energy of the workload (simple activity model)."""
        t = self.totals
        lane_cycles = t.busy_core_cycles * self.config.lanes_per_core
        dynamic = (
            lane_cycles * ENERGY_PJ_PER_LANE_CYCLE
            + t.sram_bytes * ENERGY_PJ_PER_SRAM_BYTE
            + t.hbm_bytes * ENERGY_PJ_PER_HBM_BYTE
        ) * 1e-12
        return dynamic + STATIC_WATTS * self.seconds

    def average_watts(self) -> float:
        if self.seconds == 0:
            return 0.0
        return self.energy_joules() / self.seconds

    # ------------------------------ schedule --------------------------- #

    def scheduled_cycles(self) -> float:
        """Makespan of the resource-pipelined program-order schedule
        (pipelined <= this <= serialized)."""
        return schedule([(self.program_name, None, self.timings)])[1]

    # ------------------------------ rendering -------------------------- #

    def summary(self) -> str:
        t = self.totals
        us = self.seconds * 1e6
        return (
            f"{self.program_name}: {self.cycles:,.0f} cycles = {us:,.1f} us "
            f"({t.bottleneck}-bound; compute {t.compute_cycles:,.0f}, "
            f"sram {t.sram_cycles:,.0f}, hbm {t.hbm_cycles:,.0f}; "
            f"util {self.overall_compute_utilization():.2f})"
        )


class CycleSimulator:
    """Times :class:`~repro.compiler.ops.Program` objects on a config.

    ``collector`` is an optional :class:`repro.telemetry.TraceCollector`;
    when absent (the default) no telemetry code runs and the timing math is
    exactly the untraced path.
    """

    def __init__(self, config: AlchemistConfig = ALCHEMIST_DEFAULT,
                 collector: Optional[TraceCollector] = None) -> None:
        self.config = config
        self.collector = collector

    # ------------------------------------------------------------------ #

    def time_op(self, op: HighLevelOp) -> OpCost:
        return cost_op(op, self.config)

    def time_program(self, program: Program) -> List[OpCost]:
        """One :class:`OpCost` per op, in program order (single pass)."""
        return [self.time_op(op) for op in program.ops]

    def run(self, program: Program,
            timings: Optional[List[OpCost]] = None) -> SimulationReport:
        """Time ``program`` (``timings`` from :meth:`time_program` reuses
        an earlier timing pass).

        Without a collector no schedule is built.  With one, the
        program-order schedule places each op on the timeline and the
        collector keeps that schedule, as built, in one call.
        """
        if timings is None:
            timings = self.time_program(program)
        if self.collector is not None:
            ops, _ = schedule([(program.name, None, timings)])
            self.collector.record_program(program.name, self.config, ops,
                                          program.dependency_edges())
        return SimulationReport(program.name, self.config, list(timings))

    def operator_class_cycles(
            self, program: Program,
            timings: Optional[List[OpCost]] = None) -> Dict[str, float]:
        """Compute-cycles per operator class — the Figure 1 operator-ratio
        breakdown (NTT / Bconv / DecompPolyMult / elementwise).  Pass an
        existing :meth:`time_program` result to avoid re-timing every op."""
        if timings is None:
            timings = self.time_program(program)
        return {cls: compute
                for cls, (_, compute) in by_class(timings).items()}
