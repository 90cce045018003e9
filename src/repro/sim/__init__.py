"""Cycle-level simulator for Alchemist (paper Section 6 methodology).

Times :mod:`repro.compiler` programs on an
:class:`~repro.hw.config.AlchemistConfig`.  Each high-level operator
costs compute-limited, on-chip-bandwidth-limited and HBM-limited cycles,
from the one cost function :func:`repro.compiler.cost.model.cost_op`;
the workload time is the steady-state (pipelined) maximum of the three
resource totals, which is how a throughput-oriented accelerator with
decoupled load/compute/store behaves.  Utilization accounting reproduces
Figure 7(b).

:mod:`repro.sim.schedule` is the one resource-frontier scheduling kernel:
program order for the simulator's traces, dataflow order for
:mod:`repro.sim.engine`, the event-driven view (dependency-aware
scheduling over the same per-op timings, plus multi-tenant mixes with
pluggable dispatch policies).

:mod:`repro.sim.faults` adds seeded fault injection (HBM brown-outs, core
dropout, scratchpad loss, transient op failures) with resilience policies
to the event engine, the one fault path — timing-only by contract;
functional FHE results are never touched.
"""

from repro.sim.engine import (
    EventDrivenSimulator,
    MixReport,
    POLICIES,
    ScheduledOp,
    TenantStats,
)
from repro.sim.faults import (
    FaultInjector,
    FaultModel,
    ResiliencePolicy,
    ResilienceReport,
)
from repro.sim.simulator import (
    CycleSimulator,
    SimulationReport,
)

__all__ = [
    "CycleSimulator",
    "EventDrivenSimulator",
    "FaultInjector",
    "FaultModel",
    "MixReport",
    "ResiliencePolicy",
    "ResilienceReport",
    "POLICIES",
    "ScheduledOp",
    "SimulationReport",
    "TenantStats",
]
