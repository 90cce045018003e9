"""Campaign runner + :class:`ResilienceReport` roll-ups.

:func:`run_campaign` replays one named fault campaign over the shipped
workloads (and one cross-scheme mix — the paper's Section 6.5 scenario
under degraded hardware) and emits a deterministic JSON document,
``alchemist-bench/faults/v1``.  For a fixed ``(campaign, seed, policy,
config)`` the document is byte-stable, so ``BENCH_faults.json`` can be
committed and gated by ``benchmarks/check_bench_drift.py`` exactly like
the Table 7 / Figure 6 goldens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.compiler.bfv_programs import bfv_cmult_program
from repro.compiler.ckks_programs import (
    bootstrapping_program,
    cmult_program,
    hadd_program,
    keyswitch_program,
    rotation_program,
)
from repro.compiler.ops import Program
from repro.compiler.tfhe_programs import PBS_SET_I, pbs_batch_program
from repro.hw.config import ALCHEMIST_DEFAULT, AlchemistConfig
from repro.sim.engine import EventDrivenSimulator
from repro.sim.faults.injector import FaultInjector
from repro.sim.faults.model import build_campaign, campaign_seed
from repro.sim.faults.policy import DEFAULT_POLICY, ResiliencePolicy

#: Schema identifier embedded in the emitted document.
FAULTS_SCHEMA = "alchemist-bench/faults/v1"

#: Workloads a campaign sweeps (one per scheme family + the heavy apps).
CAMPAIGN_WORKLOADS = ("hadd", "keyswitch", "cmult", "rotation",
                      "bootstrapping", "pbs-i", "bfv-cmult")

#: The cross-scheme tenant mix every campaign also runs (Section 6.5).
MIX_WORKLOADS = ("bootstrapping", "pbs-i")
MIX_NAME = "mix:" + "+".join(MIX_WORKLOADS)


def campaign_builders() -> Dict[str, Callable[[], Program]]:
    """Fresh program builders for every campaign workload."""
    return {
        "hadd": hadd_program,
        "keyswitch": keyswitch_program,
        "cmult": cmult_program,
        "rotation": rotation_program,
        "bootstrapping": bootstrapping_program,
        "pbs-i": lambda: pbs_batch_program(PBS_SET_I, batch=128),
        "bfv-cmult": bfv_cmult_program,
    }


@dataclass
class ResilienceReport:
    """Outcome of one seeded campaign over one workload (or mix)."""

    program: str
    campaign: str
    seed: int
    policy: ResiliencePolicy
    baseline_cycles: float           # fault-free event-driven makespan
    makespan_cycles: float           # makespan under the campaign
    fairness: float                  # Jain index over tenants (1.0 solo)
    num_tenants: int
    ops_total: int
    ops_completed: int
    retries: int
    failures: int
    degraded_ops: int
    respill_ops_added: int
    aborted_tenants: Tuple[str, ...]
    fault_model: Dict[str, object]
    timeline: List[Dict[str, object]] = field(default_factory=list)
    tenant_slowdowns: Dict[str, float] = field(default_factory=dict)

    @property
    def inflation(self) -> float:
        """Makespan under faults relative to fault-free (>= 1.0)."""
        if self.baseline_cycles == 0:
            return 1.0
        return self.makespan_cycles / self.baseline_cycles

    @property
    def availability(self) -> float:
        """Fraction of submitted ops that completed."""
        if self.ops_total == 0:
            return 1.0
        return self.ops_completed / self.ops_total

    def as_dict(self) -> Dict[str, object]:
        return {
            "program": self.program,
            "campaign": self.campaign,
            "seed": self.seed,
            "policy": self.policy.as_dict(),
            "baseline_cycles": self.baseline_cycles,
            "makespan_cycles": self.makespan_cycles,
            "inflation": self.inflation,
            "availability": self.availability,
            "fairness": self.fairness,
            "num_tenants": self.num_tenants,
            "ops_total": self.ops_total,
            "ops_completed": self.ops_completed,
            "retries": self.retries,
            "failures": self.failures,
            "degraded_ops": self.degraded_ops,
            "respill_ops_added": self.respill_ops_added,
            "aborted_tenants": list(self.aborted_tenants),
            "fault_model": self.fault_model,
            "timeline": self.timeline,
            "tenant_slowdowns": self.tenant_slowdowns,
        }


def run_workload_campaign(
    name: str,
    programs: Sequence[Program],
    campaign: str = "default",
    seed: int = 0,
    policy: ResiliencePolicy = DEFAULT_POLICY,
    config: AlchemistConfig = ALCHEMIST_DEFAULT,
) -> ResilienceReport:
    """One seeded campaign over one workload (or tenant mix).

    The fault timetable is derived from ``campaign_seed(seed, name)`` and
    the workload's *fault-free* event-driven makespan, so windows land
    inside the execution; the faulted run then replays the same programs
    through the engine with a live injector.
    """
    engine = EventDrivenSimulator(config)
    baseline = engine.run_mix(programs)
    model = build_campaign(campaign, campaign_seed(seed, name),
                           baseline.makespan_cycles, config)
    injector = FaultInjector(model, policy=policy, config=config)
    faulted = engine.run_mix(programs, injector=injector)
    slowdowns = {t.name: t.slowdown for t in faulted.tenants}
    return ResilienceReport(
        program=name,
        campaign=campaign,
        seed=seed,
        policy=policy,
        baseline_cycles=baseline.makespan_cycles,
        makespan_cycles=faulted.makespan_cycles,
        fairness=faulted.fairness_index(),
        num_tenants=len(faulted.tenants),
        ops_total=injector.ops_total,
        ops_completed=injector.ops_completed,
        retries=injector.total_retries,
        failures=injector.total_failures,
        degraded_ops=injector.degraded_ops,
        respill_ops_added=injector.respill_ops_added,
        aborted_tenants=tuple(sorted(injector.aborted)),
        fault_model=model.as_dict(),
        timeline=[e.as_dict() for e in injector.events],
        tenant_slowdowns=slowdowns,
    )


def run_campaign(
    campaign: str = "default",
    seed: int = 0,
    policy: ResiliencePolicy = DEFAULT_POLICY,
    config: AlchemistConfig = ALCHEMIST_DEFAULT,
    workloads: Optional[Sequence[str]] = None,
    include_mix: bool = True,
) -> Dict[str, object]:
    """Sweep the campaign over the shipped workloads; JSON-ready result.

    Deterministic for fixed inputs: no timestamps, no environment probing,
    every random draw is seeded — the document is byte-stable and gated in
    ``benchmarks/check_bench_drift.py`` as ``BENCH_faults.json``.
    """
    builders = campaign_builders()
    names = list(workloads) if workloads is not None else list(
        CAMPAIGN_WORKLOADS)
    unknown = [n for n in names if n not in builders]
    if unknown:
        raise ValueError(
            f"unknown campaign workload(s) {unknown}; "
            f"expected a subset of {sorted(builders)}")
    per_workload: Dict[str, object] = {}
    for name in names:
        report = run_workload_campaign(
            name, [builders[name]()], campaign=campaign, seed=seed,
            policy=policy, config=config)
        per_workload[name] = report.as_dict()
    out: Dict[str, object] = {
        "schema": FAULTS_SCHEMA,
        "campaign": campaign,
        "seed": seed,
        "policy": policy.as_dict(),
        "config": config.as_dict(),
        "workloads": per_workload,
    }
    if include_mix:
        mix_programs = [builders[n]() for n in MIX_WORKLOADS]
        mix = run_workload_campaign(
            MIX_NAME, mix_programs, campaign=campaign, seed=seed,
            policy=policy, config=config)
        out["mix"] = mix.as_dict()
    return out
