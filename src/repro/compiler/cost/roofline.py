"""Roofline placement: arithmetic intensity vs the machine's ceilings.

The paper's Table 7 argument is a roofline argument: every basic operator
is either compute-bound (Pmult), on-chip-bandwidth-bound (Hadd), or
HBM-bound (Keyswitch/Cmult/Rotation, ~135 us from evaluation-key
streaming).  This module places each op — and the whole program — on that
roofline from the static cost facts alone.

Conventions: "work" is raw multiplier-lane cycles (``busy_core_cycles x
lanes_per_core``), the unit the compute ceiling ``total_mult_lanes`` is
denominated in.  Arithmetic intensity is work per byte of traffic on the
relevant memory level; the ridge point of a level is
``peak_lane_ops_per_cycle / level_bytes_per_cycle`` — ops whose intensity
falls below the ridge are bound by that level's bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.compiler.cost.analyzer import CostReport


@dataclass(frozen=True)
class RooflinePoint:
    """One op (or program) placed on the roofline."""

    name: str
    kind: str
    bound: str                      # classified regime (shared tie-break)
    lane_ops: float                 # raw multiplier-lane work
    intensity_hbm: float            # lane-ops per HBM byte (inf: no HBM)
    intensity_sram: float           # lane-ops per on-chip byte (inf: none)
    attained_ops_per_cycle: float   # lane_ops / serialized cycles
    peak_ops_per_cycle: float       # the compute ceiling

    @property
    def peak_fraction(self) -> float:
        """Attained work rate as a fraction of the compute ceiling."""
        if self.peak_ops_per_cycle == 0:
            return 0.0
        return self.attained_ops_per_cycle / self.peak_ops_per_cycle


def _intensity(lane_ops: float, traffic_bytes: float) -> float:
    if traffic_bytes == 0:
        return float("inf")
    return lane_ops / traffic_bytes


def _point(name: str, kind: str, bound: str, lane_ops: float,
           sram_bytes: float, hbm_bytes: float, serialized: float,
           peak: float) -> RooflinePoint:
    return RooflinePoint(
        name=name,
        kind=kind,
        bound=bound,
        lane_ops=lane_ops,
        intensity_hbm=_intensity(lane_ops, hbm_bytes),
        intensity_sram=_intensity(lane_ops, sram_bytes),
        attained_ops_per_cycle=lane_ops / serialized if serialized else 0.0,
        peak_ops_per_cycle=peak,
    )


def roofline_points(report: CostReport,
                    include_program: bool = True) -> List[RooflinePoint]:
    """Per-op roofline points (plus a whole-program point, listed last)."""
    config = report.config
    lanes = config.lanes_per_core
    peak = float(config.total_mult_lanes)
    points = [
        _point(r.label, r.op.kind.value, r.bound,
               r.cost.busy_core_cycles * lanes,
               r.cost.sram_bytes, r.cost.hbm_bytes,
               r.cost.serialized_cycles, peak)
        for r in report.rows
    ]
    if include_program:
        t = report.totals
        points.append(_point(
            report.program, "program", t.bottleneck,
            t.busy_core_cycles * lanes, t.sram_bytes, t.hbm_bytes,
            t.serialized_cycles, peak))
    return points


def _fmt_intensity(value: float) -> str:
    return "inf" if value == float("inf") else f"{value:10.3f}"


def format_roofline(report: CostReport) -> str:
    """Text roofline table for one program (``repro analyze --roofline``)."""
    config = report.config
    ridge_hbm = config.hbm_ridge_intensity
    ridge_sram = config.sram_ridge_intensity
    header = (f"{'op':24s} {'bound':7s} {'AI-hbm':>10s} {'AI-sram':>10s} "
              f"{'lane-ops/cyc':>13s} {'% peak':>7s}")
    lines = [
        f"roofline[{report.program}]: peak "
        f"{config.total_mult_lanes:,} lane-ops/cycle; ridge intensity "
        f"hbm {ridge_hbm:.2f} ops/B, sram {ridge_sram:.2f} ops/B",
        header,
        "-" * len(header),
    ]
    for p in roofline_points(report):
        lines.append(
            f"{p.name[:24]:24s} {p.bound:7s} "
            f"{_fmt_intensity(p.intensity_hbm):>10s} "
            f"{_fmt_intensity(p.intensity_sram):>10s} "
            f"{p.attained_ops_per_cycle:13,.0f} {p.peak_fraction:6.1%}")
    return "\n".join(lines)
