"""Static cost model and analyzer: predict cycles, traffic, and bottlenecks
from the IR without simulating.

The package has three layers:

* :mod:`repro.compiler.cost.model` — the single source of truth for the
  per-op cost formulas and calibration constants, the one per-op record
  (:class:`OpCost`) and every roll-up over such records.  Both the
  cycle-level simulator (:mod:`repro.sim.simulator`) and the static
  analyzer consume :func:`cost_op`, so the static prediction of one op's
  resource demand is *identical by construction* to what the simulator
  charges — no duplicated constants, no drift.
* :mod:`repro.compiler.cost.analyzer` — abstract cost interpretation over a
  :class:`~repro.compiler.ops.Program`'s dependency edges: per-op and
  per-program Meta-OP counts, compute/SRAM/HBM cycles, deterministic
  bottleneck classification, static critical path, peak scratchpad
  occupancy, and a differential harness
  (:func:`differential_check`) validating the static totals against the
  simulator and the event-driven engine.
* :mod:`repro.compiler.cost.roofline` — arithmetic-intensity/roofline
  placement of every op and of the whole program against the machine's
  compute and bandwidth ceilings (the paper's Table 7 bound argument).
"""

from repro.compiler.cost.analyzer import (
    CostReport,
    DifferentialCheck,
    OpCostRow,
    analyze_program,
    differential_check,
)
from repro.compiler.cost.model import (
    BOUND_PRIORITY,
    OpCost,
    ResourceBound,
    SRAM_EFFICIENCY,
    WAVE_OVERHEAD,
    classify_bound,
    cost_op,
)
from repro.compiler.cost.roofline import (
    RooflinePoint,
    format_roofline,
    roofline_points,
)

__all__ = [
    "BOUND_PRIORITY",
    "CostReport",
    "DifferentialCheck",
    "OpCost",
    "OpCostRow",
    "ResourceBound",
    "RooflinePoint",
    "SRAM_EFFICIENCY",
    "WAVE_OVERHEAD",
    "analyze_program",
    "classify_bound",
    "cost_op",
    "differential_check",
    "format_roofline",
    "roofline_points",
]
