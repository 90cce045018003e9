"""Event-driven execution engine over the dataflow-graph IR.

:class:`EventDrivenSimulator` schedules operators across the three
pipelined resources of the timing model (compute, on-chip bandwidth, HBM
bandwidth) while honoring the program's def/use dependency edges — the
dataflow mode of the shared kernel :func:`repro.sim.schedule.schedule`,
whose program-order mode times the cycle simulator's traces.  For a
dependency-free program under FCFS the two modes agree exactly; with real
edges the engine additionally stalls consumers until their producers
finish.

It also runs *mixes*: several tenant programs time-sharing one Alchemist
(the paper's cross-scheme scenario, Section 6.5) under a pluggable
dispatch policy — FCFS, round-robin, or priority — reporting per-tenant
latency, slowdown versus running alone, and a Jain fairness index.  The
kernel's docstring states the makespan bounds every run satisfies.

It is the one fault path: :meth:`EventDrivenSimulator.run` and
:meth:`~EventDrivenSimulator.run_mix` take a
:class:`~repro.sim.faults.FaultInjector`, which adjusts each op as the
kernel dispatches it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

from repro.compiler.cost.model import OpCost, ResourceBound, cost_op, totals
from repro.compiler.ops import Program, ProgramGraph
from repro.compiler.verify.diagnostics import Diagnostic
from repro.compiler.verify.hazards import schedule_diagnostics
from repro.hw.config import ALCHEMIST_DEFAULT, AlchemistConfig
from repro.sim.schedule import POLICIES, ScheduledOp, Tenant, schedule

if TYPE_CHECKING:  # runtime import would be circular via repro.sim.faults
    from repro.sim.faults.injector import FaultInjector

__all__ = ["EventDrivenSimulator", "MixReport", "POLICIES", "ScheduledOp",
           "TenantStats"]


@dataclass(frozen=True)
class TenantStats:
    """Per-tenant outcome of a mix run."""

    name: str
    num_ops: int
    finish_cycles: float             # when the tenant's last op completed
    solo_cycles: float               # event makespan running alone

    @property
    def slowdown(self) -> float:
        """Completion time relative to running alone (>= 1 under sharing)."""
        if self.solo_cycles == 0:
            return 1.0
        return self.finish_cycles / self.solo_cycles


@dataclass
class MixReport:
    """Result of one event-driven run (single program or multi-tenant)."""

    policy: str
    config: AlchemistConfig
    makespan_cycles: float
    schedule: List[ScheduledOp] = field(default_factory=list)
    tenants: List[TenantStats] = field(default_factory=list)
    #: Hazard-audit findings (only populated by ``run_mix(audit=True)``).
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.makespan_cycles / self.config.cycles_per_second

    def resource_cycles(self) -> ResourceBound:
        """Aggregate demand the schedule placed on each pipelined resource."""
        return totals(s.timing for s in self.schedule)

    @property
    def bottleneck(self) -> str:
        """Which resource bounds the mix (shared deterministic tie-break —
        identical classification to the simulator and static analyzer)."""
        return self.resource_cycles().bottleneck

    def tenant(self, name: str) -> TenantStats:
        for t in self.tenants:
            if t.name == name:
                return t
        raise KeyError(name)

    def fairness_index(self) -> float:
        """Jain's index over per-tenant progress rates ``solo/finish``.

        1.0 = perfectly even slowdowns; 1/n = one tenant got everything.
        """
        rates = [
            t.solo_cycles / t.finish_cycles if t.finish_cycles else 1.0
            for t in self.tenants
        ]
        if not rates:
            return 1.0
        num = sum(rates) ** 2
        den = len(rates) * sum(x * x for x in rates)
        return num / den if den else 1.0

    def summary(self) -> str:
        us = self.seconds * 1e6
        lines = [
            f"mix[{self.policy}]: {self.makespan_cycles:,.0f} cycles = "
            f"{us:,.1f} us ({self.bottleneck}-bound), "
            f"{len(self.schedule)} ops, "
            f"fairness {self.fairness_index():.3f}"
        ]
        cps = self.config.cycles_per_second
        for t in self.tenants:
            lines.append(
                f"  {t.name}: {t.num_ops} ops, latency "
                f"{t.finish_cycles / cps * 1e6:,.1f} us "
                f"(solo {t.solo_cycles / cps * 1e6:,.1f} us, "
                f"slowdown {t.slowdown:.2f}x)"
            )
        return "\n".join(lines)


class EventDrivenSimulator:
    """Schedules one or more programs over the three-resource machine.

    Per-op resource demands come from ``cost_op`` on :attr:`config` (the
    cycle math of the calibrated report path); this class only decides
    *when* each op runs.
    """

    def __init__(self, config: AlchemistConfig = ALCHEMIST_DEFAULT):
        self.config = config

    # ------------------------------------------------------------------ #

    def makespan(self, program: Program) -> float:
        """Fault-free event-driven makespan of ``program`` in cycles.

        Not memoized: the serving layer (:mod:`repro.serve`) calls it once
        per batch program shape and keeps the result in its shape memo."""
        return self.run(program).makespan_cycles

    def run(self, program: Program,
            timings: Optional[List[OpCost]] = None,
            audit: bool = False,
            injector: Optional["FaultInjector"] = None) -> MixReport:
        """Event-driven makespan of a single program (FCFS dispatch)."""
        return self.run_mix([program], policy="fcfs",
                            timings_by_tenant=[timings] if timings else None,
                            audit=audit, injector=injector)

    def run_mix(self, programs: Sequence[Program], policy: str = "fcfs",
                priorities: Optional[Mapping[str, int]] = None,
                timings_by_tenant: Optional[Sequence[List[OpCost]]] = None,
                audit: bool = False,
                injector: Optional["FaultInjector"] = None) -> MixReport:
        """Schedule ``programs`` sharing the machine under ``policy``.

        ``priorities`` (policy="priority") maps tenant name -> priority;
        higher dispatches first.  Tenant names are the program names,
        suffixed ``#k`` when a name repeats in the mix.  Each program's
        :class:`ProgramGraph` is built once and serves the shared run,
        its solo baseline and the audit.

        ``audit=True`` re-checks the produced schedule against each
        program's dependency edges via the static verifier's hazard
        detector (RAW/WAW/WAR ordering, spill/fill pairing, coverage);
        findings land in :attr:`MixReport.diagnostics`.  The audit is
        read-only — timings and the schedule itself are unaffected.

        ``injector`` (a :class:`repro.sim.faults.FaultInjector`) applies a
        fault campaign to the shared run: programs are first re-spilled via
        ``injector.prepare`` (identity without scratchpad loss; a re-spill
        cannot match explicit ``timings_by_tenant``, so that raises
        ``ValueError``), each dispatched op is adjusted, and aborted
        tenants stop executing while their remaining ops drain.  Per-tenant
        *solo* baselines stay fault-free, so :attr:`TenantStats.slowdown`
        isolates sharing contention from fault inflation.
        """
        if injector is not None:
            timed = timings_by_tenant is not None
            programs = [injector.prepare(p, timed=timed) for p in programs]
        if timings_by_tenant is None:
            timings_by_tenant = [
                [cost_op(op, self.config) for op in p.ops] for p in programs]
        names = self._tenant_names(programs)
        graphs = [ProgramGraph(p) for p in programs]
        tenants: List[Tenant] = list(zip(names, graphs, timings_by_tenant))
        ops, makespan = schedule(
            tenants, policy, priorities,
            adjust=injector.adjust if injector is not None else None)
        stats = []
        for tenant, program in zip(tenants, programs):
            name = tenant[0]
            solo = makespan if len(tenants) == 1 else schedule([tenant])[1]
            finish = max((s.end for s in ops if s.tenant == name),
                         default=0.0)
            stats.append(TenantStats(
                name=name, num_ops=len(program.ops),
                finish_cycles=finish, solo_cycles=solo))
        diagnostics: List[Diagnostic] = []
        if audit:
            for name, graph in zip(names, graphs):
                tenant_sched = [s for s in ops if s.tenant == name]
                diagnostics.extend(
                    replace(d, analysis="hazards", program=name)
                    for d in schedule_diagnostics(
                        graph.program, tenant_sched, graph))
        return MixReport(policy=policy, config=self.config,
                         makespan_cycles=makespan, schedule=ops,
                         tenants=stats, diagnostics=diagnostics)

    # ------------------------------------------------------------------ #

    @staticmethod
    def _tenant_names(programs: Sequence[Program]) -> List[str]:
        counts: Dict[str, int] = {}
        names = []
        for p in programs:
            k = counts.get(p.name, 0)
            counts[p.name] = k + 1
            names.append(p.name if k == 0 else f"{p.name}#{k}")
        return names
