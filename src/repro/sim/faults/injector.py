"""The fault injector: applies a :class:`FaultModel` to a running schedule.

One :class:`FaultInjector` instance accompanies one run of the event
engine (:meth:`repro.sim.engine.EventDrivenSimulator.run` or
:meth:`~repro.sim.engine.EventDrivenSimulator.run_mix`).  The engine's
scheduling kernel (:func:`repro.sim.schedule.schedule`) hands it every op
just before committing it to the timeline — :meth:`FaultInjector.adjust`
returns the (possibly inflated) :class:`~repro.compiler.cost.model.OpCost`
record to charge, or ``None`` when the resilience policy aborts the
program (and for every later op of an aborted program, which drains
unexecuted).

Invariants the adjustment maintains (relied on by the property tests):

* **zero-overhead** — with an empty model, :meth:`adjust` returns the very
  OpCost object it was given, so float accumulation downstream is
  bit-identical to a fault-free run;
* **used-set preservation** — a resource with zero demand stays zero and a
  nonzero demand stays nonzero, so the scheduling kernel (which keys on
  the *set* of used resources) sees the same shape and the provisional
  start cycle computed before adjustment remains valid;
* **monotonicity** — every per-resource demand can only grow (HBM scaling
  divides by a factor <= 1, dropout shrinks the wave pool, retries and
  backoff only add), so makespans under faults dominate fault-free
  makespans.

Every injection and recovery lands on the injector's timeline as one
:class:`FaultEvent` in :attr:`FaultInjector.events`; the campaign reports
(:mod:`repro.sim.faults.report`) copy it into
``ResilienceReport.timeline``, which is what ``BENCH_faults.json`` holds.

The injector never touches ciphertext state: faults perturb timing and
scheduling only, which is exactly what the differential harness verifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.compiler.cost.model import OpCost, cost_op
from repro.compiler.ops import HighLevelOp, Program
from repro.compiler.passes import insert_spills
from repro.hw.config import ALCHEMIST_DEFAULT, AlchemistConfig
from repro.sim.faults.model import FaultModel
from repro.sim.faults.policy import DEFAULT_POLICY, ResiliencePolicy

#: Fault-event kinds the injector emits (injections and recoveries both
#: appear, so a timeline shows each fault from start to end).
FAULT_KINDS = (
    "hbm_brownout",        # an HBM degradation window became active
    "hbm_recovery",        # ... and ended (bandwidth restored)
    "core_dropout",        # cores remapped onto survivors from this cycle
    "scratchpad_loss",     # on-chip capacity lost; program re-spilled
    "transient_failure",   # one op attempt failed
    "retry",               # the resilience policy re-issued the op
    "degraded_fallback",   # retries exhausted; op completed in safe mode
    "abort",               # retries exhausted; program abandoned
)


@dataclass(frozen=True)
class FaultEvent:
    """One fault injection or recovery action on the fault timeline.

    ``cycle`` is where the event lands on the simulated timeline (the
    frontier cycle of the op being adjusted, or the window boundary for
    brown-outs).  ``details`` carries kind-specific JSON-safe fields
    (bandwidth factor, cores lost, attempt number, backoff cycles, ...).
    """

    program: str                     # tenant / program name
    kind: str                        # one of FAULT_KINDS
    cycle: float
    op_index: int = -1               # op being adjusted (-1: program-level)
    op_label: str = ""
    details: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "program": self.program,
            "kind": self.kind,
            "cycle": self.cycle,
            "op_index": self.op_index,
            "op_label": self.op_label,
            "details": dict(self.details),
        }


class FaultInjector:
    """Applies one fault timetable to one run, recording every
    :class:`FaultEvent` it emits in :attr:`events`."""

    def __init__(self, model: FaultModel,
                 policy: ResiliencePolicy = DEFAULT_POLICY,
                 config: AlchemistConfig = ALCHEMIST_DEFAULT) -> None:
        self.model = model
        self.policy = policy
        self.config = config
        #: Complete fault timeline, in injection order.
        self.events: List[FaultEvent] = []
        self.retries_by_op: Dict[Tuple[str, int], int] = {}
        self.total_retries = 0
        self.total_failures = 0
        self.degraded_ops = 0
        self.respill_ops_added = 0
        #: Tenants whose program was abandoned by an ``abort`` policy.
        self.aborted: Set[str] = set()
        self.ops_total = 0
        self.ops_completed = 0
        # era configs: cumulative dead cores -> degraded machine config
        self._era_configs: Dict[int, AlchemistConfig] = {0: config}
        self._announced_dropouts: Set[int] = set()
        self._hbm_active: Set[int] = set()
        self._hbm_done: Set[int] = set()

    # ------------------------------ program prep ------------------------ #

    def prepare(self, program: Program, timed: bool = False) -> Program:
        """Re-schedule ``program`` against the post-fault scratchpad.

        With no scratchpad loss this is the identity.  Otherwise
        :func:`~repro.compiler.passes.insert_spills` re-runs against the
        reduced capacity, so the degraded schedule carries its extra HBM
        traffic where the overflow occurs; the program keeps its name, so
        tenant accounting and the campaign reports stay stable.

        ``timed`` says the caller already holds per-op timings for
        ``program``.  A re-spill adds ops those timings cannot describe,
        so it raises ``ValueError`` rather than charging the wrong op list.
        """
        loss = self.model.total_scratchpad_loss()
        if loss == 0:
            return program
        capacity = self.config.total_onchip_bytes - loss
        if capacity <= 0:
            raise ValueError(
                f"scratchpad loss ({loss} B) exceeds on-chip capacity "
                f"({self.config.total_onchip_bytes} B)")
        spilled = insert_spills(program, capacity, self.config.word_bytes)
        added = len(spilled.ops) - len(program.ops)
        if timed and added:
            raise ValueError(
                f"scratchpad loss ({loss} B) re-spills {program.name!r} "
                f"(+{added} ops), so the supplied timings no longer match "
                f"its ops; let the simulator time the program")
        self.respill_ops_added += added
        self.events.append(FaultEvent(
            program=program.name, kind="scratchpad_loss", cycle=0.0,
            details={"bytes_lost": loss, "capacity_bytes": capacity,
                     "spill_ops_added": added}))
        return spilled

    # ------------------------------ per-op hook ------------------------- #

    def adjust(self, tenant: str, index: int, op: HighLevelOp,
               timing: OpCost, start: float) -> Optional[OpCost]:
        """Fault-adjusted timing for op ``index`` dispatched at ``start``.

        Returns the input ``timing`` object itself when no fault touches
        this op (the zero-overhead invariant), an inflated copy when one
        does, or ``None`` when the policy aborts the tenant's program — and
        for every later op of an aborted tenant, which drains unexecuted.
        """
        self.ops_total += 1
        if tenant in self.aborted:
            return None
        if self.model.is_empty():
            self.ops_completed += 1
            return timing

        adjusted = timing
        lost = self.model.cores_lost_at(start)
        if lost and timing.compute_cycles > 0:
            self._announce_dropouts(tenant, start)
            # re-cost on the degraded machine (shared cost model, so static
            # analysis of the degraded config predicts the same charge)
            adjusted = cost_op(op, self._era_config(lost))
        window = self.model.hbm_window_at(start)
        self._announce_hbm(tenant, start)
        if window is not None and adjusted.hbm_cycles > 0:
            adjusted = self._scale_hbm(adjusted, window.bandwidth_factor)

        if self.model.transient is not None and adjusted.serialized_cycles > 0:
            survived, penalty = self._apply_transients(
                tenant, index, op, adjusted, start)
            if not survived:
                self.aborted.add(tenant)
                self.events.append(FaultEvent(
                    program=tenant, kind="abort", cycle=start,
                    op_index=index, op_label=op.label or op.kind.value,
                    details={"attempts": self.policy.max_attempts,
                             "policy": self.policy.name}))
                return None
            if penalty > 0.0:
                adjusted = self._inflate(adjusted, penalty)

        self.ops_completed += 1
        return adjusted

    # ------------------------------ summaries --------------------------- #

    @property
    def availability(self) -> float:
        """Fraction of submitted ops that completed (1.0 when none ran)."""
        if self.ops_total == 0:
            return 1.0
        return self.ops_completed / self.ops_total

    def max_retries_per_op(self) -> int:
        return max(self.retries_by_op.values(), default=0)

    def counters(self) -> Dict[str, object]:
        return {
            "ops_total": self.ops_total,
            "ops_completed": self.ops_completed,
            "retries": self.total_retries,
            "failures": self.total_failures,
            "degraded_ops": self.degraded_ops,
            "respill_ops_added": self.respill_ops_added,
            "aborted_tenants": sorted(self.aborted),
            "availability": self.availability,
        }

    # ------------------------------ internals --------------------------- #

    def _era_config(self, cores_lost: int) -> AlchemistConfig:
        cfg = self._era_configs.get(cores_lost)
        if cfg is None:
            cfg = self.config.with_capacity_loss(cores=cores_lost)
            self._era_configs[cores_lost] = cfg
        return cfg

    @staticmethod
    def _scale_hbm(timing: OpCost, factor: float) -> OpCost:
        return replace(timing, hbm_cycles=timing.hbm_cycles / factor)

    @staticmethod
    def _inflate(timing: OpCost, penalty: float) -> OpCost:
        """Fold wasted cycles (failed attempts + backoff + safe mode) into
        every resource the op occupies — a documented pessimism: during a
        retry the op's reservations are held, so nothing else slips in."""
        return replace(
            timing,
            compute_cycles=(timing.compute_cycles + penalty
                            if timing.compute_cycles > 0 else 0.0),
            sram_cycles=(timing.sram_cycles + penalty
                         if timing.sram_cycles > 0 else 0.0),
            hbm_cycles=(timing.hbm_cycles + penalty
                        if timing.hbm_cycles > 0 else 0.0))

    def _apply_transients(self, tenant: str, index: int, op: HighLevelOp,
                          timing: OpCost,
                          start: float) -> Tuple[bool, float]:
        """Run the retry loop; returns ``(survived, penalty_cycles)``."""
        label = op.label or op.kind.value
        penalty = 0.0
        max_attempts = self.policy.max_attempts
        for attempt in range(1, max_attempts + 1):
            if not self.model.attempt_fails(tenant, index, attempt):
                return True, penalty
            self.total_failures += 1
            self.events.append(FaultEvent(
                program=tenant, kind="transient_failure", cycle=start,
                op_index=index, op_label=label,
                details={"attempt": attempt}))
            penalty += timing.serialized_cycles     # the wasted execution
            if attempt == max_attempts:
                break
            backoff = self.policy.backoff_cycles(attempt)
            penalty += backoff
            self.total_retries += 1
            key = (tenant, index)
            self.retries_by_op[key] = self.retries_by_op.get(key, 0) + 1
            self.events.append(FaultEvent(
                program=tenant, kind="retry", cycle=start,
                op_index=index, op_label=label,
                details={"attempt": attempt + 1,
                         "backoff_cycles": backoff}))
        # every attempt failed
        if self.policy.on_exhaust == "abort":
            return False, penalty
        self.degraded_ops += 1
        safe_mode = timing.serialized_cycles * self.policy.degrade_factor
        penalty += safe_mode - timing.serialized_cycles
        # the op's nominal duration stands in for one execution; safe mode
        # costs degrade_factor x nominal, so add the difference on top of
        # the wasted attempts (which already include the final failure)
        self.events.append(FaultEvent(
            program=tenant, kind="degraded_fallback", cycle=start,
            op_index=index, op_label=label,
            details={"attempts": max_attempts,
                     "degrade_factor": self.policy.degrade_factor}))
        return True, penalty

    def _announce_dropouts(self, tenant: str, cycle: float) -> None:
        for d_idx, drop in enumerate(self.model.dropouts):
            if d_idx in self._announced_dropouts or drop.at_cycle > cycle:
                continue
            self._announced_dropouts.add(d_idx)
            lost = self.model.cores_lost_at(drop.at_cycle)
            self.events.append(FaultEvent(
                program=tenant, kind="core_dropout", cycle=drop.at_cycle,
                details={"cores": drop.cores, "cores_lost_total": lost,
                         "cores_remaining":
                             self._era_config(lost).total_cores}))

    def _announce_hbm(self, tenant: str, cycle: float) -> None:
        for w_idx, window in enumerate(self.model.hbm_events):
            if w_idx in self._hbm_done:
                continue
            if w_idx in self._hbm_active:
                if cycle >= window.end_cycle:
                    self._hbm_done.add(w_idx)
                    self._hbm_active.discard(w_idx)
                    self.events.append(FaultEvent(
                        program=tenant, kind="hbm_recovery",
                        cycle=window.end_cycle,
                        details={"bandwidth_factor": 1.0}))
                continue
            if window.active_at(cycle):
                self._hbm_active.add(w_idx)
                self.events.append(FaultEvent(
                    program=tenant, kind="hbm_brownout",
                    cycle=window.start_cycle,
                    details={
                        "bandwidth_factor": window.bandwidth_factor,
                        "start_cycle": window.start_cycle,
                        "end_cycle": window.end_cycle,
                    }))
            elif cycle >= window.end_cycle:
                # the whole window passed with no op starting inside it:
                # bandwidth was never observed degraded, emit nothing
                self._hbm_done.add(w_idx)
