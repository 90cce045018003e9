"""Spill-insertion pass: on-chip working-set overflow → HBM traffic.

Time-sharing (Section 5.4) keeps one polynomial or decomposition digit of
each op resident at a time, so a program fits on-chip exactly when its
largest per-op footprint (:func:`peak_footprint_bytes`) fits the 64+2 MB
capacity.  Each op whose footprint exceeds it gets an ``HBM_STORE``
(evict) immediately before it and an ``HBM_LOAD`` (restore) immediately
after it, wired into the dataflow graph so the event-driven engine also
sees the overflow where it occurs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

from repro.compiler.ops import HighLevelOp, OpKind, Program
from repro.compiler.passes.base import Pass, PassContext


def peak_footprint_bytes(program: Program, word_bytes: float) -> int:
    """The largest per-op working footprint in ``program`` (streamed HBM
    ops hold none): the pass spills iff it exceeds the capacity."""
    return max((op.footprint_bytes(word_bytes) for op in program.ops),
               default=0)


class SpillInsertionPass(Pass):
    """Inserts spill/fill HBM ops adjacent to each oversized operator.

    ``capacity_bytes`` overrides the config's on-chip capacity — the fault
    layer (:mod:`repro.sim.faults`) re-runs the pass against the *reduced*
    capacity after a scratchpad-loss event, so degraded-mode schedules show
    the extra HBM traffic where the overflow actually occurs.
    """

    name = "spill-insertion"

    def __init__(self, capacity_bytes: Optional[int] = None):
        self.capacity_bytes = capacity_bytes

    def run(self, program: Program, ctx: PassContext) -> Program:
        capacity = (self.capacity_bytes if self.capacity_bytes is not None
                    else ctx.config.total_onchip_bytes)
        wb = ctx.config.word_bytes
        out: List[HighLevelOp] = []
        spills = 0
        for i, op in enumerate(program.ops):
            if op.kind in (OpKind.HBM_LOAD, OpKind.HBM_STORE):
                out.append(op)          # streamed, never resident
                continue
            overflow = op.footprint_bytes(wb) - capacity
            if overflow <= 0:
                out.append(op)
                continue
            tag = op.label or f"op{i}"
            spill_id = f"{tag}.spill"
            fill_id = f"{tag}.fill"
            # evict enough resident data to make room, then run the op
            # (which therefore depends on the eviction), then restore
            out.append(HighLevelOp(
                OpKind.HBM_STORE, spill_id, bytes_moved=overflow,
                defs=(spill_id,), uses=op.uses))
            out.append(replace(op, uses=op.uses + (spill_id,)))
            anchor = op.defs[0] if op.defs else spill_id
            out.append(HighLevelOp(
                OpKind.HBM_LOAD, fill_id, bytes_moved=overflow,
                defs=(fill_id,), uses=(anchor,)))
            spills += 1
            ctx.note(
                f"{tag}: footprint exceeds on-chip capacity by "
                f"{overflow / 1e6:.1f} MB: spill/fill inserted in place"
            )
        if spills == 0:
            return program
        return Program(
            name=program.name + "+spill",
            ops=out,
            poly_degree=program.poly_degree,
            description=program.description,
            metadata=dict(program.metadata),
            inputs=program.inputs,
        )
