"""Typed telemetry records emitted by the simulation stack.

One :class:`TraceEvent` per simulated high-level operator and one
:class:`FaultEvent` per fault injection or recovery.  Events are plain
data: all aggregation lives in
:class:`repro.telemetry.collector.TraceCollector` and all formatting in
:mod:`repro.telemetry.export`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass(frozen=True)
class TraceEvent:
    """Resolved timing + activity of one high-level operator instance.

    ``start_cycle``/``end_cycle`` come from the resource-pipelined schedule
    (compute, on-chip bandwidth and HBM are independent resources; each op
    claims the ones it needs in program order).  The three ``*_cycles``
    fields are the per-resource demands; ``bound`` names the largest.
    """

    program: str
    index: int                       # position within the program
    name: str                        # op label (or kind when unlabeled)
    kind: str                        # OpKind value, e.g. "ntt"
    operator_class: str              # ntt / bconv / decomp / ewise / data / hbm
    patterns: Tuple[str, ...]        # access patterns of the Meta-OP issues
    start_cycle: float
    end_cycle: float
    compute_cycles: float
    sram_cycles: float
    hbm_cycles: float
    busy_core_cycles: float
    waves: int                       # Meta-OP waves issued across the cores
    meta_ops: int                    # Meta-OPs issued (0 for movement ops)
    sram_bytes: int
    hbm_bytes: int
    bound: str                       # compute / sram / hbm / free
    args: Dict[str, object] = field(default_factory=dict)
    deps: Tuple[int, ...] = ()       # producer op indices (dataflow edges)

    @property
    def duration_cycles(self) -> float:
        return self.end_cycle - self.start_cycle

    def as_row(self) -> Dict[str, object]:
        """Flat dict for CSV export (stable key order via CSV_FIELDS)."""
        return {
            "program": self.program,
            "index": self.index,
            "name": self.name,
            "kind": self.kind,
            "operator_class": self.operator_class,
            "patterns": "+".join(self.patterns),
            "start_cycle": self.start_cycle,
            "end_cycle": self.end_cycle,
            "duration_cycles": self.duration_cycles,
            "compute_cycles": self.compute_cycles,
            "sram_cycles": self.sram_cycles,
            "hbm_cycles": self.hbm_cycles,
            "busy_core_cycles": self.busy_core_cycles,
            "waves": self.waves,
            "meta_ops": self.meta_ops,
            "sram_bytes": self.sram_bytes,
            "hbm_bytes": self.hbm_bytes,
            "bound": self.bound,
            "deps": "+".join(str(d) for d in self.deps),
        }


#: Column order of :meth:`TraceEvent.as_row` (and of the CSV exporter).
CSV_FIELDS = (
    "program", "index", "name", "kind", "operator_class", "patterns",
    "start_cycle", "end_cycle", "duration_cycles",
    "compute_cycles", "sram_cycles", "hbm_cycles", "busy_core_cycles",
    "waves", "meta_ops", "sram_bytes", "hbm_bytes", "bound", "deps",
)


#: Fault-event kinds emitted by :mod:`repro.sim.faults` (injections and
#: recoveries both appear, so traces show complete fault timelines).
FAULT_KINDS = (
    "hbm_brownout",        # an HBM degradation window became active
    "hbm_recovery",        # ... and ended (bandwidth restored)
    "core_dropout",        # cores remapped onto survivors from this cycle
    "scratchpad_loss",     # on-chip capacity lost; program re-spilled
    "transient_failure",   # one op attempt failed
    "retry",               # the resilience policy re-issued the op
    "degraded_fallback",   # retries exhausted; op completed in safe mode
    "abort",               # retries exhausted; program abandoned
)


@dataclass(frozen=True)
class FaultEvent:
    """One fault injection or recovery action on the fault timeline.

    ``cycle`` is where the event lands on the simulated timeline (the
    frontier cycle of the op being adjusted, or the window boundary for
    brown-outs).  ``details`` carries kind-specific JSON-safe fields
    (bandwidth factor, cores lost, attempt number, backoff cycles, ...).
    """

    program: str                     # tenant / program name
    kind: str                        # one of FAULT_KINDS
    cycle: float
    op_index: int = -1               # op being adjusted (-1: program-level)
    op_label: str = ""
    details: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "program": self.program,
            "kind": self.kind,
            "cycle": self.cycle,
            "op_index": self.op_index,
            "op_label": self.op_label,
            "details": dict(self.details),
        }
