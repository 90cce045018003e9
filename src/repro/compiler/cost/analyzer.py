"""Abstract cost interpretation over a program's :class:`ProgramGraph`.

:func:`analyze_program` walks a :class:`~repro.compiler.ops.Program`
*without simulating it* and produces a :class:`CostReport`: per-op and
per-program Meta-OP counts, compute/SRAM/HBM cycles and bytes, a
deterministic bottleneck classification, the static critical path (the
longest dependency chain weighted by serialized op latency — a lower
bound on any dependency-honoring schedule), and the peak scratchpad
occupancy of the live value set (what the on-chip SRAM must hold).

Because every per-op number comes from :func:`repro.compiler.cost.model.
cost_op` — the same function :class:`~repro.sim.simulator.CycleSimulator`
charges from — the static totals are exactly the simulator's totals.
:func:`differential_check` asserts that equivalence programmatically
(``repro analyze --check`` and CI run it over every shipped workload) and
additionally brackets the event-driven engine's makespan between the
static lower and upper bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.compiler.cost.model import (
    CostTotals,
    OpCost,
    bound_histogram,
    cost_op,
    totals,
    utilization,
)
from repro.compiler.ops import HighLevelOp, OpKind, Program, ProgramGraph
from repro.hw.config import ALCHEMIST_DEFAULT, AlchemistConfig


@dataclass(frozen=True)
class OpCostRow:
    """One op's static cost facts."""

    index: int
    cost: OpCost
    critical: bool                  # on the static critical path

    @property
    def op(self) -> HighLevelOp:
        return self.cost.op

    @property
    def label(self) -> str:
        return self.op.label or f"op{self.index}"

    @property
    def bound(self) -> str:
        return self.cost.bound

    @property
    def key_bytes(self) -> int:
        """HBM bytes this op moves for an evaluation key (0 otherwise).

        Non-zero exactly on the key-tagged ``HBM_LOAD``/``HBM_STORE``
        ops, charged at the same ``cost_op`` figure the simulator uses —
        the key/ciphertext traffic split of the key-residency analysis
        (:mod:`repro.compiler.verify.keys`) by construction."""
        if self.op.key and self.op.kind in (OpKind.HBM_LOAD,
                                            OpKind.HBM_STORE):
            return self.cost.hbm_bytes
        return 0


@dataclass
class CostReport:
    """Statically predicted cost of one program on one config."""

    program: str
    config: AlchemistConfig
    rows: List[OpCostRow] = field(default_factory=list)
    critical_path_cycles: float = 0.0
    critical_path: Tuple[int, ...] = ()
    peak_occupancy_bytes: int = 0
    peak_occupancy_index: Optional[int] = None

    # ------------------------------ totals ----------------------------- #

    @property
    def totals(self) -> CostTotals:
        return totals(r.cost for r in self.rows)

    @property
    def pipelined_cycles(self) -> float:
        """Steady-state lower bound: resources overlap perfectly."""
        return self.totals.serialized_cycles

    @property
    def serialized_cycles(self) -> float:
        """Fully serialized upper bound on latency."""
        return sum(r.cost.serialized_cycles for r in self.rows)

    @property
    def schedule_lower_bound_cycles(self) -> float:
        """Best bound any dependency-honoring schedule can beat: the worse
        of resource saturation and the dependency critical path."""
        return max(self.pipelined_cycles, self.critical_path_cycles)

    @property
    def bottleneck(self) -> str:
        return self.totals.bottleneck

    @property
    def seconds(self) -> float:
        return self.pipelined_cycles / self.config.cycles_per_second

    @property
    def total_meta_ops(self) -> int:
        return self.totals.meta_ops

    @property
    def total_hbm_bytes(self) -> int:
        return self.totals.hbm_bytes

    @property
    def total_key_hbm_bytes(self) -> int:
        """The evaluation-key share of the HBM traffic."""
        return sum(r.key_bytes for r in self.rows)

    def bound_histogram(self) -> Dict[str, int]:
        return bound_histogram(r.cost for r in self.rows)

    def overall_compute_utilization(self) -> float:
        t = self.totals
        return utilization(t.busy_core_cycles, t.compute_cycles,
                           self.config.total_cores)

    # ------------------------------ rendering -------------------------- #

    def summary(self) -> str:
        t = self.totals
        us = self.seconds * 1e6
        occupancy_mb = self.peak_occupancy_bytes / 1e6
        capacity_mb = self.config.total_onchip_bytes / 1e6
        return (
            f"{self.program}: {self.pipelined_cycles:,.0f} cycles = "
            f"{us:,.1f} us ({self.bottleneck}-bound; "
            f"compute {t.compute_cycles:,.0f}, sram {t.sram_cycles:,.0f}, "
            f"hbm {t.hbm_cycles:,.0f}; critical path "
            f"{self.critical_path_cycles:,.0f}; {t.meta_ops:,} "
            f"Meta-OPs; peak occupancy {occupancy_mb:,.1f}/{capacity_mb:,.0f} "
            f"MB; util {self.overall_compute_utilization():.2f})"
        )

    def per_op_table(self) -> str:
        header = (f"{'op':24s} {'kind':16s} {'bound':7s} {'cycles':>14s} "
                  f"{'compute':>14s} {'sram':>14s} {'hbm':>14s} "
                  f"{'keyB':>12s} {'meta-ops':>10s} {'crit':>4s}")
        lines = [header, "-" * len(header)]
        for r in self.rows:
            c = r.cost
            lines.append(
                f"{r.label[:24]:24s} {r.op.kind.value:16s} {r.bound:7s} "
                f"{c.serialized_cycles:14,.1f} {c.compute_cycles:14,.1f} "
                f"{c.sram_cycles:14,.1f} {c.hbm_cycles:14,.1f} "
                f"{r.key_bytes:12,d} "
                f"{c.meta_ops:10,d} {'*' if r.critical else '':>4s}")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe rendering (``repro analyze --json``)."""
        t = self.totals
        return {
            "program": self.program,
            "bottleneck": self.bottleneck,
            "pipelined_cycles": self.pipelined_cycles,
            "serialized_cycles": self.serialized_cycles,
            "critical_path_cycles": self.critical_path_cycles,
            "schedule_lower_bound_cycles": self.schedule_lower_bound_cycles,
            "latency_us": self.seconds * 1e6,
            "cycles": {
                "compute": t.compute_cycles,
                "sram": t.sram_cycles,
                "hbm": t.hbm_cycles,
            },
            "meta_ops": t.meta_ops,
            "waves": t.waves,
            "sram_bytes": t.sram_bytes,
            "hbm_bytes": t.hbm_bytes,
            "key_hbm_bytes": self.total_key_hbm_bytes,
            "peak_occupancy_bytes": self.peak_occupancy_bytes,
            "bound_histogram": self.bound_histogram(),
            "utilization": self.overall_compute_utilization(),
            "ops": [
                {
                    "name": r.label,
                    "kind": r.op.kind.value,
                    "bound": r.bound,
                    "cycles": r.cost.serialized_cycles,
                    "compute_cycles": r.cost.compute_cycles,
                    "sram_cycles": r.cost.sram_cycles,
                    "hbm_cycles": r.cost.hbm_cycles,
                    "sram_bytes": r.cost.sram_bytes,
                    "hbm_bytes": r.cost.hbm_bytes,
                    "key_bytes": r.key_bytes,
                    "meta_ops": r.cost.meta_ops,
                    "waves": r.cost.waves,
                    "critical": r.critical,
                    "utilization": utilization(
                        r.cost.busy_core_cycles, r.cost.compute_cycles,
                        self.config.total_cores),
                }
                for r in self.rows
            ],
        }


# --------------------------------------------------------------------- #
#                          graph computations                           #
# --------------------------------------------------------------------- #


def _critical_path(graph: ProgramGraph,
                   serialized: List[float]) -> Tuple[float, Tuple[int, ...]]:
    """Longest dependency chain weighted by per-op serialized cycles.

    Returns ``(length_cycles, member_indices)``; the path is deterministic
    (ties resolve toward the earliest op index).  Raises ``ValueError`` on
    a dependency cycle.
    """
    edges = graph.edges
    dist: Dict[int, float] = {}
    best_pred: Dict[int, Optional[int]] = {}
    for i in graph.order:
        pred, pred_dist = None, 0.0
        for p in edges.get(i, ()):
            if dist[p] > pred_dist or (dist[p] == pred_dist
                                       and pred is not None and p < pred):
                pred, pred_dist = p, dist[p]
        dist[i] = pred_dist + serialized[i]
        best_pred[i] = pred
    if not dist:
        return 0.0, ()
    terminal = min((i for i in dist), key=lambda i: (-dist[i], i))
    path: List[int] = []
    node: Optional[int] = terminal
    while node is not None:
        path.append(node)
        node = best_pred[node]
    return dist[terminal], tuple(sorted(path))


# --------------------------------------------------------------------- #
#                             entry points                              #
# --------------------------------------------------------------------- #


def analyze_program(program: Program,
                    config: AlchemistConfig = ALCHEMIST_DEFAULT,
                    graph: Optional[ProgramGraph] = None) -> CostReport:
    """Static cost analysis of ``program`` on ``config`` (no simulation).

    ``graph`` is ``program``'s :class:`ProgramGraph` when the caller
    already holds one; it is built here otherwise."""
    if graph is None:
        graph = ProgramGraph(program)
    costs = [cost_op(op, config) for op in program.ops]
    serialized = [c.serialized_cycles for c in costs]
    peak, peak_index = 0, None
    try:
        cp_cycles, cp_members = _critical_path(graph, serialized)
        for i, live in zip(graph.order, graph.live_bytes(config.word_bytes)):
            if live > peak:
                peak, peak_index = live, i
    except ValueError:
        # cyclic graph: the structure analysis reports it; degrade to the
        # serialized chain so cost totals stay available
        cp_cycles, cp_members = sum(serialized), tuple(range(len(costs)))
    member_set = set(cp_members)
    return CostReport(
        program=program.name,
        config=config,
        rows=[OpCostRow(index=i, cost=cost, critical=i in member_set)
              for i, cost in enumerate(costs)],
        critical_path_cycles=cp_cycles,
        critical_path=cp_members,
        peak_occupancy_bytes=peak,
        peak_occupancy_index=peak_index,
    )


@dataclass(frozen=True)
class DifferentialCheck:
    """Static-vs-simulated comparison for one program.

    ``exact`` — per-op and total cycle/traffic numbers from the static
    analyzer equal the :class:`CycleSimulator` results exactly (they share
    :func:`cost_op`, so anything else is a bug).  ``engine_within_bounds``
    — the event-driven makespan lands in the static
    ``[max(pipelined, critical path), serialized]`` bracket.
    """

    program: str
    static_serialized: float
    sim_serialized: float
    static_pipelined: float
    sim_pipelined: float
    engine_makespan: float
    lower_bound: float
    upper_bound: float
    mismatches: Tuple[str, ...] = ()

    @property
    def exact(self) -> bool:
        return not self.mismatches

    @property
    def engine_within_bounds(self) -> bool:
        tol = 1e-9 * max(self.upper_bound, 1.0)
        return (self.lower_bound - tol <= self.engine_makespan
                <= self.upper_bound + tol)

    @property
    def ok(self) -> bool:
        return self.exact and self.engine_within_bounds

    def format(self) -> str:
        status = "OK   " if self.ok else "FAIL "
        line = (
            f"{status}{self.program}: static serialized "
            f"{self.static_serialized:,.1f} == sim {self.sim_serialized:,.1f}"
            f"; engine {self.engine_makespan:,.1f} in "
            f"[{self.lower_bound:,.1f}, {self.upper_bound:,.1f}]"
        )
        for m in self.mismatches:
            line += f"\n      mismatch: {m}"
        return line


def differential_check(program: Program,
                       static: CostReport) -> DifferentialCheck:
    """Validate ``static`` — the caller's :func:`analyze_program` report
    of ``program`` — against the simulators run on ``static.config``.

    Exact-match check against :meth:`CycleSimulator.time_program`: every
    field of each op's static and simulated :class:`OpCost` (shared cost
    model — any drift fails), then the program totals.  Bounded check
    against the event-driven engine's makespan.  Raises ``ValueError``
    when ``static`` is not a report of ``program``.
    """
    from repro.sim.engine import EventDrivenSimulator
    from repro.sim.simulator import CycleSimulator

    if (static.program, len(static.rows)) != (program.name, len(program.ops)):
        raise ValueError(
            f"static report of {static.program!r} ({len(static.rows)} ops) "
            f"does not describe program {program.name!r} "
            f"({len(program.ops)} ops)")
    config = static.config
    sim = CycleSimulator(config)
    timings = sim.time_program(program)
    sim_report = sim.run(program, timings=timings)
    mismatches: List[str] = []
    for row, timing in zip(static.rows, timings):
        for f in fields(OpCost):
            s = getattr(row.cost, f.name)
            d = getattr(timing, f.name)
            if s != d:
                mismatches.append(
                    f"{row.label}.{f.name}: static {s!r} != sim {d!r}")
    st, dt = static.totals, sim_report.totals
    for name, s, d in (
            ("total_compute", st.compute_cycles, dt.compute_cycles),
            ("total_sram", st.sram_cycles, dt.sram_cycles),
            ("total_hbm", st.hbm_cycles, dt.hbm_cycles),
            ("serialized", static.serialized_cycles,
             sim_report.serialized_cycles),
            ("pipelined", static.pipelined_cycles,
             sim_report.pipelined_cycles),
    ):
        if s != d:
            mismatches.append(f"{name}: static {s!r} != sim {d!r}")
    if static.bottleneck != sim_report.bottleneck:
        mismatches.append(
            f"bottleneck: static {static.bottleneck} != sim "
            f"{sim_report.bottleneck}")
    engine = EventDrivenSimulator(config)
    makespan = engine.run(program, timings=timings).makespan_cycles
    return DifferentialCheck(
        program=program.name,
        static_serialized=static.serialized_cycles,
        sim_serialized=sim_report.serialized_cycles,
        static_pipelined=static.pipelined_cycles,
        sim_pipelined=sim_report.pipelined_cycles,
        engine_makespan=makespan,
        lower_bound=static.schedule_lower_bound_cycles,
        upper_bound=static.serialized_cycles,
        mismatches=tuple(mismatches),
    )
