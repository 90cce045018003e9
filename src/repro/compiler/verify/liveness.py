"""Liveness and value-dataflow analysis.

Errors:

* ``ALC301`` — an op uses a value id that no op defines and that is not
  in the program's declared ``inputs``.  Only enforced when the builder
  declared its inputs (all shipped builders do); otherwise an undefined
  use is assumed to be an external argument, the legacy convention.
* ``ALC302`` — a use binds *forward* to a def that only appears later in
  the op list (a scrambled or corrupted graph).

Advisory notes:

* ``ALC401`` — a dead definition: the value is never used and its op has
  live successors (terminal ops' defs are the program outputs and are
  exempt, as are ``.out`` aliases of ops whose primary def is consumed).
* ``ALC402`` — the peak live set (sum of live value footprints over the
  linearized order) exceeds total on-chip capacity.
* ``ALC403`` — a single op's working footprint exceeds on-chip capacity:
  exactly the condition under which ``insert_spills`` inserts a
  spill/fill pair around it, so the note statically predicts every spill.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.compiler.ops import OpKind, Program, ProgramGraph, bind_use
from repro.compiler.verify.base import Analysis, AnalysisContext
from repro.compiler.verify.diagnostics import Diagnostic


def bind_uses(graph: ProgramGraph) -> Tuple[List[Diagnostic], Set[str]]:
    """Bind every use of ``graph``'s program to its def: the ALC301 and
    ALC302 findings, in op order, and the set of values used."""
    program = graph.program
    out: List[Diagnostic] = []
    declared = set(program.inputs)
    used: Set[str] = set()
    for i, op in enumerate(program.ops):
        tag = op.label or f"op{i}"
        for v in op.uses:
            used.add(v)
            sites = graph.def_sites.get(v)
            if not sites:
                if declared and v not in declared:
                    out.append(Diagnostic(
                        "ALC301",
                        f"{tag}: uses {v!r}, which is never defined and "
                        f"is not a declared program input",
                        op_index=i, op_label=op.label, values=(v,)))
                continue
            site = bind_use(sites, i)
            if site is not None and site > i:
                out.append(Diagnostic(
                    "ALC302",
                    f"{tag}: uses {v!r} before its definition "
                    f"(op {site})",
                    op_index=i, op_label=op.label, values=(v,)))
    return out, used


class LivenessAnalysis(Analysis):
    """Dead defs, undefined/forward uses, and live-set capacity pressure."""

    name = "liveness"

    def run(self, program: Program,
            ctx: AnalysisContext) -> List[Diagnostic]:
        graph = ctx.graph_of(program)
        out, used = bind_uses(graph)
        out.extend(self._dead_defs(graph, used))
        out.extend(self._capacity(graph, ctx))
        return out

    # ------------------------------------------------------------------ #

    @staticmethod
    def _dead_defs(graph: ProgramGraph, used: Set[str]) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for i, op in enumerate(graph.program.ops):
            if i not in graph.succs:
                continue             # terminal op: defs are program outputs
            if any(v in used for v in op.defs):
                continue             # at least one alias is consumed
            for v in op.defs:
                tag = op.label or f"op{i}"
                out.append(Diagnostic(
                    "ALC401", f"{tag}: defines {v!r}, which is never used",
                    op_index=i, op_label=op.label, values=(v,)))
        return out

    @staticmethod
    def _capacity(graph: ProgramGraph,
                  ctx: AnalysisContext) -> List[Diagnostic]:
        """Peak-live-set and per-op footprint pressure (spill prediction)."""
        capacity = ctx.config.total_onchip_bytes
        wb = ctx.config.word_bytes
        out: List[Diagnostic] = []
        try:
            order = graph.order
        except ValueError:
            return out               # cycle: structure analysis reports it
        live = graph.live_bytes(wb)
        first_over = next(
            (pos for pos, b in enumerate(live) if b > capacity), None)
        for pos, i in enumerate(order):
            op = graph.program.ops[i]
            tag = op.label or f"op{i}"
            footprint = op.footprint_bytes(wb)
            if (footprint > capacity
                    and op.kind not in (OpKind.HBM_LOAD, OpKind.HBM_STORE)):
                out.append(Diagnostic(
                    "ALC403",
                    f"{tag}: working footprint {footprint / 1e6:.1f} MB "
                    f"exceeds on-chip capacity {capacity / 1e6:.1f} MB — "
                    f"insert_spills will spill here",
                    op_index=i, op_label=op.label))
            if pos == first_over:
                out.append(Diagnostic(
                    "ALC402",
                    f"{tag}: peak live set reaches {live[pos] / 1e6:.1f} MB, "
                    f"beyond the {capacity / 1e6:.1f} MB of on-chip SRAM",
                    op_index=i, op_label=op.label))
        return out
