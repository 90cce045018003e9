"""Slot-partition conformance: the paper's zero-exchange invariant.

Alchemist's 128 computing units never exchange data at runtime: slot-based
partitioning (Section 5.3) keeps DecompPolyMult and Modup/Moddown
unit-local, and the 4-step NTT confines all global movement to the
dedicated transpose path.  This analysis statically verifies that a
program's operators conform:

* ``ALC200`` — an op's ring degree cannot be slot-partitioned over the
  configured unit count (non-power-of-two, or degree and unit count do
  not divide one another);
* ``ALC201`` — a producer/consumer edge changes the ring degree without
  an intervening ``TRANSPOSE``: the consumer would need slots resident in
  other units, i.e. cross-unit traffic the hardware cannot do;
* ``ALC202`` — a Meta-OP-issuing operator whose lowering is not
  unit-local under the slot placement (defensive; true by construction
  for the shipped lowerings).
"""

from __future__ import annotations

from typing import List

from repro.compiler.ops import OpKind, Program, ProgramGraph
from repro.compiler.verify.base import Analysis, AnalysisContext
from repro.compiler.verify.diagnostics import Diagnostic
from repro.hw.datalayout import SlotPartition

#: Ops permitted to change the data layout (the 4-step NTT transpose runs
#: on the dedicated transpose register file; HBM ops stream).
_LAYOUT_CHANGERS = (OpKind.TRANSPOSE, OpKind.HBM_LOAD, OpKind.HBM_STORE)

#: Single source of truth for the placement precondition (ALC200).
_partitionable = SlotPartition.is_partitionable


class SlotPartitionAnalysis(Analysis):
    """Checks the zero-exchange invariant op by op and edge by edge."""

    name = "slot-partition"

    def run(self, program: Program,
            ctx: AnalysisContext) -> List[Diagnostic]:
        units = ctx.config.num_units
        out: List[Diagnostic] = []
        for i, op in enumerate(program.ops):
            if op.kind in (OpKind.HBM_LOAD, OpKind.HBM_STORE):
                continue
            if op.poly_degree <= 0:
                continue             # structure analysis flags missing shape
            tag = op.label or f"op{i}"
            if not _partitionable(op.poly_degree, units):
                out.append(Diagnostic(
                    "ALC200",
                    f"{tag}: degree {op.poly_degree} cannot be "
                    f"slot-partitioned over {units} units",
                    op_index=i, op_label=op.label))
                continue
            if op.kind in (OpKind.BCONV, OpKind.DECOMP_POLY_MULT):
                part = SlotPartition(ctx.config, op.poly_degree)
                local = (part.modup_is_local() if op.kind == OpKind.BCONV
                         else part.decomp_polymult_is_local())
                if not local:
                    out.append(Diagnostic(
                        "ALC202",
                        f"{tag}: {op.kind.value} lowering is not unit-local "
                        f"under slot partitioning",
                        op_index=i, op_label=op.label))
        out.extend(self._edge_conformance(ctx.graph_of(program), out))
        return out

    @staticmethod
    def _edge_conformance(graph: ProgramGraph,
                          prior: List[Diagnostic]) -> List[Diagnostic]:
        """ALC201: degree changes along edges imply cross-unit traffic."""
        program = graph.program
        flagged = {d.op_index for d in prior}
        out: List[Diagnostic] = []
        for i, preds in sorted(graph.edges.items()):
            op = program.ops[i]
            if op.kind in _LAYOUT_CHANGERS or op.poly_degree <= 0:
                continue
            if i in flagged:
                continue
            for p in preds:
                prod = program.ops[p]
                if (prod.kind in _LAYOUT_CHANGERS or prod.poly_degree <= 0
                        or p in flagged):
                    continue
                if prod.poly_degree != op.poly_degree:
                    tag = op.label or f"op{i}"
                    out.append(Diagnostic(
                        "ALC201",
                        f"{tag}: consumes degree-{prod.poly_degree} data "
                        f"from op {p} ({prod.label or prod.kind.value}) as "
                        f"degree {op.poly_degree} without a TRANSPOSE — "
                        f"implies cross-unit slot movement",
                        op_index=i, op_label=op.label,
                        values=tuple(v for v in op.uses if v in prod.defs)))
        return out
