"""Schedule hazard detector: RAW/WAW/WAR audit plus spill/fill pairing.

``schedule_diagnostics(program, schedule)`` audits an *executed* schedule
— ``(op_index, start, end)`` triples, or objects exposing ``index`` /
``start`` / ``end`` like the simulator's ``ScheduledOp`` — against the
program's dependency graph:

* ``ALC500`` — a read-after-write hazard: an op started before a
  producer of one of its operands finished;
* ``ALC501`` — a write-after-write hazard: a redefinition started before
  the previous definition finished;
* ``ALC502`` — a write-after-read hazard: a redefinition started before
  every reader of the previous definition finished;
* ``ALC503`` — spill/fill mis-pairing: a ``X.spill`` store without a
  matching later ``X.fill`` load (or a fill scheduled before its spill
  completed, or an orphan fill);
* ``ALC504`` — schedule coverage: an op missing from, or duplicated in,
  the schedule.

:class:`HazardAnalysis` exposes the same checks through the linter; with
no schedule in the context it audits program order, where only spill/fill
pairing is informative (program order trivially respects the edges).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler.ops import OpKind, Program, ProgramGraph
from repro.compiler.verify.base import Analysis, AnalysisContext
from repro.compiler.verify.diagnostics import Diagnostic

_EPS = 1e-9


def _normalize(schedule: Sequence[object]) -> List[Tuple[int, float, float]]:
    """Coerce schedule entries to ``(op_index, start, end)`` triples."""
    entries: List[Tuple[int, float, float]] = []
    for entry in schedule:
        if isinstance(entry, (tuple, list)):
            idx, start, end = entry[0], entry[1], entry[2]
        else:
            idx = getattr(entry, "index")
            start = getattr(entry, "start")
            end = getattr(entry, "end")
        entries.append((int(idx), float(start), float(end)))
    return entries


def schedule_diagnostics(program: Program,
                         schedule: Sequence[object],
                         graph: Optional[ProgramGraph] = None
                         ) -> List[Diagnostic]:
    """Audit one executed schedule of ``program`` for hazards.

    ``graph`` is ``program``'s :class:`ProgramGraph` when the caller
    already holds one; it is built here otherwise."""
    if graph is None:
        graph = ProgramGraph(program)
    entries = _normalize(schedule)
    out: List[Diagnostic] = []
    times: Dict[int, Tuple[float, float]] = {}
    for idx, start, end in entries:
        if idx in times:
            out.append(Diagnostic(
                "ALC504", f"op {idx} appears more than once in the schedule",
                op_index=idx))
            continue
        times[idx] = (start, end)
    for i, op in enumerate(program.ops):
        if i not in times:
            out.append(Diagnostic(
                "ALC504",
                f"op {i} ({op.label or op.kind.value}) missing from the "
                f"schedule",
                op_index=i, op_label=op.label))
    out.extend(_dependency_hazards(graph, times))
    out.extend(_war_hazards(graph, times))
    out.extend(spill_fill_diagnostics(program, times))
    return out


def _dependency_hazards(graph: ProgramGraph,
                        times: Dict[int, Tuple[float, float]]
                        ) -> List[Diagnostic]:
    """ALC500/ALC501: each dependency edge must be respected in time."""
    program = graph.program
    out: List[Diagnostic] = []
    for i, preds in sorted(graph.edges.items()):
        if i not in times:
            continue                 # coverage already reported
        op = program.ops[i]
        start_i = times[i][0]
        for p in sorted(preds):
            if p not in times:
                continue
            if times[p][1] <= start_i + _EPS:
                continue
            pred = program.ops[p]
            raw = any(v in op.uses for v in pred.defs)
            tag = op.label or f"op{i}"
            ptag = pred.label or f"op{p}"
            if raw:
                out.append(Diagnostic(
                    "ALC500",
                    f"{tag} starts at {start_i:.1f} before producer {ptag} "
                    f"finishes at {times[p][1]:.1f} (RAW hazard)",
                    op_index=i, op_label=op.label,
                    values=tuple(v for v in op.uses if v in pred.defs)))
            else:
                out.append(Diagnostic(
                    "ALC501",
                    f"{tag} redefines values at {start_i:.1f} before the "
                    f"previous definition {ptag} finishes at "
                    f"{times[p][1]:.1f} (WAW hazard)",
                    op_index=i, op_label=op.label,
                    values=tuple(v for v in op.defs if v in pred.defs)))
    return out


def _war_hazards(graph: ProgramGraph,
                 times: Dict[int, Tuple[float, float]]) -> List[Diagnostic]:
    """ALC502: a redefinition must wait for readers of the previous def."""
    program = graph.program
    # readers_of[(value, def_site)] -> reader op indices
    readers_of: Dict[Tuple[str, int], List[int]] = {}
    for reader, pairs in graph.bindings.items():
        for v, bound in pairs:
            readers_of.setdefault((v, bound), []).append(reader)
    out: List[Diagnostic] = []
    for v, sites in sorted(graph.def_sites.items()):
        for prev, nxt in zip(sites, sites[1:]):
            if nxt not in times:
                continue
            start_next = times[nxt][0]
            for reader in readers_of.get((v, prev), ()):
                if reader == nxt or reader not in times:
                    continue
                if times[reader][1] <= start_next + _EPS:
                    continue
                op = program.ops[nxt]
                rop = program.ops[reader]
                out.append(Diagnostic(
                    "ALC502",
                    f"{op.label or f'op{nxt}'} redefines {v!r} at "
                    f"{start_next:.1f} before reader "
                    f"{rop.label or f'op{reader}'} finishes at "
                    f"{times[reader][1]:.1f} (WAR hazard)",
                    op_index=nxt, op_label=op.label, values=(v,)))
    return out


def spill_fill_diagnostics(
        program: Program,
        times: Optional[Dict[int, Tuple[float, float]]] = None
        ) -> List[Diagnostic]:
    """ALC503: every ``X.spill`` store pairs with a later ``X.fill`` load."""
    spills: Dict[str, int] = {}
    fills: Dict[str, int] = {}
    for i, op in enumerate(program.ops):
        if op.kind == OpKind.HBM_STORE and op.label.endswith(".spill"):
            spills[op.label[:-len(".spill")]] = i
        elif op.kind == OpKind.HBM_LOAD and op.label.endswith(".fill"):
            fills[op.label[:-len(".fill")]] = i
    out: List[Diagnostic] = []
    for stem, si in sorted(spills.items()):
        fi = fills.get(stem)
        if fi is None or fi < si:
            out.append(Diagnostic(
                "ALC503",
                f"{stem}.spill has no matching later {stem}.fill",
                op_index=si, op_label=program.ops[si].label))
            continue
        if times is not None and si in times and fi in times:
            if times[fi][0] + _EPS < times[si][1]:
                out.append(Diagnostic(
                    "ALC503",
                    f"{stem}.fill starts at {times[fi][0]:.1f} before "
                    f"{stem}.spill finishes at {times[si][1]:.1f}",
                    op_index=fi, op_label=program.ops[fi].label))
    for stem, fi in sorted(fills.items()):
        if stem not in spills:
            out.append(Diagnostic(
                "ALC503",
                f"{stem}.fill has no matching earlier {stem}.spill",
                op_index=fi, op_label=program.ops[fi].label))
    return out


class HazardAnalysis(Analysis):
    """Schedule audit when the context carries one; pairing checks always."""

    name = "hazards"

    def run(self, program: Program,
            ctx: AnalysisContext) -> List[Diagnostic]:
        if ctx.schedule is not None:
            return schedule_diagnostics(program, ctx.schedule,
                                        ctx.graph_of(program))
        return spill_fill_diagnostics(program)
