"""Fault injection & resilience for the Alchemist event engine.

Seeded, deterministic fault campaigns (HBM brown-outs, core dropout,
scratchpad loss, transient op failures) applied to the timing layer of
:class:`~repro.sim.engine.EventDrivenSimulator` (``run``/``run_mix`` with
a :class:`FaultInjector`), with bounded-retry / degrade / abort
resilience policies and campaign-level reporting.  The injector records
its fault timeline as :class:`FaultEvent` records (kinds in
:data:`FAULT_KINDS`).

Faults never touch functional CKKS/BFV/TFHE state — see the package
docstring of :mod:`repro.sim.faults.model` for the full contract.
"""

from repro.sim.faults.injector import FAULT_KINDS, FaultEvent, FaultInjector
from repro.sim.faults.model import (
    CAMPAIGNS,
    CoreDropout,
    FaultModel,
    HbmDegradation,
    ScratchpadLoss,
    TransientFaults,
    build_campaign,
    campaign_seed,
)
from repro.sim.faults.policy import (
    DEFAULT_POLICY,
    POLICY_PRESETS,
    ResiliencePolicy,
)
from repro.sim.faults.report import (
    CAMPAIGN_WORKLOADS,
    FAULTS_SCHEMA,
    MIX_WORKLOADS,
    ResilienceReport,
    run_campaign,
    run_workload_campaign,
)

__all__ = [
    "CAMPAIGNS",
    "CAMPAIGN_WORKLOADS",
    "CoreDropout",
    "DEFAULT_POLICY",
    "FAULTS_SCHEMA",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultModel",
    "HbmDegradation",
    "MIX_WORKLOADS",
    "POLICY_PRESETS",
    "ResiliencePolicy",
    "ResilienceReport",
    "ScratchpadLoss",
    "TransientFaults",
    "build_campaign",
    "campaign_seed",
    "run_campaign",
    "run_workload_campaign",
]
