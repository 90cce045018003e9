"""Structure analysis: dataflow and shape sanity.

This is the first analysis in the framework.  Checks: the def/use graph
is acyclic, ``.out`` aliases are unique, and per-kind shape parameters
are present (an NTT without a ring degree or a Bconv without source
channels would silently cost zero cycles).
"""

from __future__ import annotations

from typing import Dict, List

from repro.compiler.ops import OpKind, Program
from repro.compiler.verify.base import Analysis, AnalysisContext
from repro.compiler.verify.diagnostics import Diagnostic


class StructureAnalysis(Analysis):
    """Graph acyclicity, alias uniqueness, and per-kind shape checks."""

    name = "structure"

    def run(self, program: Program,
            ctx: AnalysisContext) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        try:
            ctx.graph_of(program).order        # raises on a cycle
        except ValueError as exc:
            out.append(Diagnostic("ALC001", str(exc)))
        seen_defs: Dict[str, int] = {}
        for i, op in enumerate(program.ops):
            tag = op.label or f"op{i}"
            for v in op.defs:
                if v in seen_defs and v not in op.uses and v.endswith(".out"):
                    # a redefinition is legal (WAW-chained) but a duplicate
                    # def of an aliased output id is almost always a builder
                    # bug
                    out.append(Diagnostic(
                        "ALC002",
                        f"{tag}: output alias {v!r} already defined by "
                        f"op {seen_defs[v]}",
                        op_index=i, op_label=op.label, values=(v,)))
                seen_defs.setdefault(v, i)
            if op.kind in (OpKind.NTT, OpKind.INTT, OpKind.AUTOMORPHISM,
                           OpKind.TRANSPOSE) and op.poly_degree <= 0:
                out.append(Diagnostic(
                    "ALC003",
                    f"{tag}: {op.kind.value} requires poly_degree > 0",
                    op_index=i, op_label=op.label))
            if op.kind == OpKind.BCONV and op.in_channels <= 0:
                out.append(Diagnostic(
                    "ALC004", f"{tag}: bconv requires in_channels > 0",
                    op_index=i, op_label=op.label))
            if op.kind == OpKind.DECOMP_POLY_MULT and op.depth <= 0:
                out.append(Diagnostic(
                    "ALC005", f"{tag}: decomp_poly_mult requires depth > 0",
                    op_index=i, op_label=op.label))
            if op.kind in (OpKind.HBM_LOAD, OpKind.HBM_STORE):
                if op.bytes_moved < 0:
                    out.append(Diagnostic(
                        "ALC006", f"{tag}: negative bytes_moved",
                        op_index=i, op_label=op.label))
            elif op.kind in (OpKind.EW_MULT, OpKind.EW_ADD):
                if op.num_elements() <= 0:
                    out.append(Diagnostic(
                        "ALC007", f"{tag}: elementwise op moves no elements",
                        op_index=i, op_label=op.label))
        return out
