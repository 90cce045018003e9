"""Static cost diagnostics: the ALC6xx family.

Runs the abstract cost interpretation of
:mod:`repro.compiler.cost.analyzer` over the program and turns its facts
into advisory diagnostics:

* ``ALC601`` — an HBM-bound op sits on the static critical path: off-chip
  bandwidth directly lengthens the shortest possible schedule (the
  paper's ~135 us keyswitch bound is exactly this finding).
* ``ALC602`` — the peak live-value scratchpad occupancy exceeds the
  configured on-chip capacity: ``insert_spills`` will convert the
  overflow into spill/fill HBM traffic, and the note quantifies the
  predicted extra HBM cycles.
* ``ALC603`` — a compute op occupies less than ``utilization_threshold``
  of the cores during its compute window (lane under-utilization; batch
  or pack more to fill the machine).
* ``ALC604`` — an adjacent single-consumer elementwise pair is fusable
  and the cost model proves the fusion profitable, quantifying the saved
  cycles (``repro simulate --fuse`` / ``fuse_elementwise`` realises
  it).
* ``ALC605`` — the configured :class:`~repro.hw.config.CompressionModel`
  changes an op's binding resource away from HBM: seed-expanded key (or
  compressed ciphertext) transfers move fewer bytes off-chip, and the
  on-chip expansion charge makes the op compute-bound instead.  Only
  emitted when a compression model is active.

All are NOTE severity: they describe performance, not correctness,
so shipped workloads stay lint-clean while ``repro analyze``/``repro lint
--notes`` surface them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.compiler.cost.analyzer import CostReport
from repro.compiler.cost.model import cost_op, utilization
from repro.compiler.ops import Program, ProgramGraph
from repro.compiler.verify.base import Analysis, AnalysisContext
from repro.compiler.verify.diagnostics import Diagnostic


class CostAnalysis(Analysis):
    """Cost-model-backed performance advisories (ALC601..ALC604)."""

    name = "cost"

    def __init__(self, utilization_threshold: float = 0.5) -> None:
        if not 0.0 < utilization_threshold <= 1.0:
            raise ValueError("utilization_threshold must be in (0, 1]")
        self.utilization_threshold = utilization_threshold

    def run(self, program: Program,
            ctx: AnalysisContext) -> List[Diagnostic]:
        graph = ctx.graph_of(program)
        try:
            report = ctx.cost_of(program)
        except ValueError:
            # ill-formed programs (bad shapes) are the structure
            # analysis's findings, not ours
            return []
        out: List[Diagnostic] = []
        out.extend(self._hbm_on_critical_path(report))
        out.extend(self._occupancy_overflow(report, ctx))
        out.extend(self._lane_underutilization(report, ctx))
        out.extend(self._fusion_opportunities(graph, report))
        out.extend(self._compression_flips(program, report, ctx))
        return out

    # ------------------------------------------------------------------ #

    @staticmethod
    def _hbm_on_critical_path(report: CostReport) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        hz = report.config.cycles_per_second
        for row in report.rows:
            if not row.critical or row.bound != "hbm":
                continue
            if row.cost.hbm_cycles <= 0:
                continue
            us = row.cost.hbm_cycles / hz * 1e6
            out.append(Diagnostic(
                "ALC601",
                f"{row.label}: HBM-bound ({row.cost.hbm_bytes / 1e6:.1f} MB "
                f"off-chip = {us:.1f} us) on the static critical path — "
                f"off-chip bandwidth lower-bounds this program's latency",
                op_index=row.index, op_label=row.op.label))
        return out

    @staticmethod
    def _occupancy_overflow(report: CostReport,
                            ctx: AnalysisContext) -> List[Diagnostic]:
        capacity = ctx.config.total_onchip_bytes
        overflow = report.peak_occupancy_bytes - capacity
        if overflow <= 0:
            return []
        # each overflowing byte is evicted and restored once: 2x HBM traffic
        spill_cycles = 2 * overflow / ctx.config.hbm_bytes_per_cycle
        index = report.peak_occupancy_index
        label = ""
        if index is not None:
            label = report.rows[index].op.label
        return [Diagnostic(
            "ALC602",
            f"peak scratchpad demand {report.peak_occupancy_bytes / 1e6:.1f} "
            f"MB exceeds on-chip capacity {capacity / 1e6:.1f} MB — "
            f"insert_spills will add ~{spill_cycles:,.0f} HBM cycles "
            f"of spill/fill traffic",
            op_index=index, op_label=label)]

    def _lane_underutilization(self, report: CostReport,
                               ctx: AnalysisContext) -> List[Diagnostic]:
        cores = ctx.config.total_cores
        out: List[Diagnostic] = []
        for row in report.rows:
            if row.cost.compute_cycles <= 0:
                continue
            util = utilization(row.cost.busy_core_cycles,
                               row.cost.compute_cycles, cores)
            if util >= self.utilization_threshold:
                continue
            out.append(Diagnostic(
                "ALC603",
                f"{row.label}: compute window fills only {util:.0%} of the "
                f"{cores} cores (threshold "
                f"{self.utilization_threshold:.0%}) — batch or pack more "
                f"work to fill the lanes",
                op_index=row.index, op_label=row.op.label))
        return out

    @staticmethod
    def _fusion_opportunities(graph: ProgramGraph,
                              report: CostReport) -> List[Diagnostic]:
        # lazy import: repro.compiler.passes imports verify modules at load
        from repro.compiler.passes import _fusable, _fuse

        try:
            order = graph.order
        except ValueError:
            return []
        ops = graph.program.ops
        fanout: Dict[str, int] = {}
        for op in ops:
            for v in op.uses:
                fanout[v] = fanout.get(v, 0) + 1
        out: List[Diagnostic] = []
        for ia, i in zip(order, order[1:]):
            a, b = ops[ia], ops[i]
            if not _fusable(a, b, fanout):
                continue
            fused = cost_op(_fuse(a, b), report.config)
            saved = (report.rows[ia].cost.serialized_cycles
                     + report.rows[i].cost.serialized_cycles
                     - fused.serialized_cycles)
            if saved <= 0:
                continue
            a_tag = a.label or a.kind.value
            b_tag = b.label or b.kind.value
            out.append(Diagnostic(
                "ALC604",
                f"{a_tag}+{b_tag}: fusing this elementwise pair saves "
                f"{saved:,.0f} cycles (the intermediate value's write + "
                f"re-read) — fuse_elementwise proves profitable",
                op_index=i, op_label=b.label,
                values=tuple(a.defs[:1])))
        return out

    @staticmethod
    def _compression_flips(program: Program, report: CostReport,
                           ctx: AnalysisContext) -> List[Diagnostic]:
        """ALC605: ops whose binding resource leaves HBM under the
        configured compression model (vs the same config without it)."""
        comp = ctx.config.compression
        if comp is None or not comp.enabled:
            return []
        baseline = ctx.cost_of(program, replace(ctx.config, compression=None))
        out: List[Diagnostic] = []
        if baseline.bottleneck == "hbm" and report.bottleneck != "hbm":
            saved = baseline.total_hbm_bytes - report.total_hbm_bytes
            charged = (report.totals.compute_cycles
                       - baseline.totals.compute_cycles)
            out.append(Diagnostic(
                "ALC605",
                f"compression flips this program from hbm-bound to "
                f"{report.bottleneck}-bound — {saved / 1e6:.1f} MB fewer "
                f"off-chip bytes for {charged:,.0f} on-chip expansion "
                f"cycles ({baseline.pipelined_cycles:,.0f} -> "
                f"{report.pipelined_cycles:,.0f} cycles)"))
        for base_row, row in zip(baseline.rows, report.rows):
            if base_row.bound != "hbm" or row.bound == "hbm":
                continue
            saved = base_row.cost.hbm_bytes - row.cost.hbm_bytes
            out.append(Diagnostic(
                "ALC605",
                f"{row.label}: compression flips this op from hbm-bound to "
                f"{row.bound}-bound — {saved / 1e6:.1f} MB fewer off-chip "
                f"bytes, {row.cost.compute_cycles - base_row.cost.compute_cycles:,.0f} "
                f"expansion cycles charged on-chip",
                op_index=row.index, op_label=row.op.label))
        return out
