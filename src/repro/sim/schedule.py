"""The resource-frontier scheduling kernel.

Compute, on-chip bandwidth and HBM bandwidth are three independent
pipelined resources; an op occupies each one it needs, starting once all
of them are free.  Any core runs any Meta-OP, so this one rule schedules
CKKS, TFHE and BFV work alike.  A tenant *with* a
:class:`~repro.compiler.ops.ProgramGraph` dispatches in dataflow order and
also waits for its producers (the event engine, and with it every fault
run); one *without* runs in program order (the cycle simulator's traces).
A zero-cost op is a zero-duration marker at its producers' finish, or at
the resource frontier without a graph.  Bounds, for every policy and
dependency structure:

* ``makespan >= pipelined cycles`` — each resource serves ops serially, so
  its final free time is at least its total demand;
* ``makespan <= serialized cycles`` — every dispatched op starts no later
  than the current global frontier, so each op extends the frontier by at
  most its own serialized duration.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.compiler.cost.model import OpCost
from repro.compiler.ops import HighLevelOp, ProgramGraph

#: The three pipelined hardware resources of the timing model.
RESOURCES = ("compute", "sram", "hbm")

#: Dispatch policies understood by :func:`schedule`.
POLICIES = ("fcfs", "round-robin", "priority")

#: ``(name, graph or None, per-op cost records)`` — one program sharing
#: the machine; ``None`` runs it in program order.
Tenant = Tuple[str, Optional[ProgramGraph], Sequence[OpCost]]

#: The fault hook (:meth:`repro.sim.faults.FaultInjector.adjust`):
#: ``(tenant, index, op, cost record, provisional start)`` -> the record
#: to charge, or ``None`` when the op does not run (its tenant aborted).
Adjust = Callable[[str, int, HighLevelOp, OpCost, float], Optional[OpCost]]


@dataclass(frozen=True)
class ScheduledOp:
    """One dispatched operator: its slot on the timeline and the cost
    record charged for it (fault-adjusted when an injector ran)."""

    tenant: str
    index: int                       # op index within the tenant's program
    start: float
    end: float
    timing: OpCost

    @property
    def label(self) -> str:
        return self.timing.op.label or self.timing.op.kind.value


def _demands(timing: OpCost) -> Dict[str, float]:
    """Cycles per resource the op actually occupies (zero demands drop)."""
    needs = (("compute", timing.compute_cycles),
             ("sram", timing.sram_cycles),
             ("hbm", timing.hbm_cycles))
    return {r: c for r, c in needs if c > 0}


def schedule(tenants: Sequence[Tenant], policy: str = "fcfs",
             priorities: Optional[Mapping[str, int]] = None,
             adjust: Optional[Adjust] = None,
             ) -> Tuple[List[ScheduledOp], float]:
    """Dispatch every tenant's ops over the three resources.

    Returns the executed ops in dispatch order and the makespan.
    ``priorities`` (policy ``"priority"``) maps tenant name -> priority;
    higher dispatches first.  ``adjust`` sees each op at its provisional
    start; adjustments preserve the set of used resources, so that start
    stands.  An op it turns down is left out of the schedule, finishing at
    its provisional start so its successors still release.
    """
    if policy not in POLICIES:
        raise ValueError(
            f"unknown policy {policy!r}; expected one of {POLICIES}")
    prio = priorities or {}
    names = [name for name, _, _ in tenants]
    indeg: List[List[int]] = []
    finish: List[List[float]] = []
    ready: List[List[int]] = []
    for _, graph, timings in tenants:
        n = len(timings)
        deg = [0] * n
        if graph is None:
            heap = [0] if n else []  # op i+1 readies when op i dispatches
        else:
            for i, preds in graph.edges.items():
                deg[i] = len(preds)
            heap = [i for i in range(n) if deg[i] == 0]
            heapq.heapify(heap)
        indeg.append(deg)
        finish.append([0.0] * n)
        ready.append(heap)
    free = {r: 0.0 for r in RESOURCES}
    out: List[ScheduledOp] = []
    makespan = 0.0
    rr_next = 0                              # round-robin pointer
    remaining = sum(len(timings) for _, _, timings in tenants)
    while remaining:
        remaining -= 1
        t = _pick_tenant(names, ready, policy, prio, rr_next)
        if policy == "round-robin":
            rr_next = (t + 1) % len(tenants)
        i = heapq.heappop(ready[t])
        _, graph, timings = tenants[t]
        timing = timings[i]
        used = _demands(timing)
        if graph is None:
            dep_ready, idle = 0.0, max(free.values())
        else:
            dep_ready = max((finish[t][q] for q in graph.edges.get(i, ())),
                            default=0.0)
            idle = dep_ready
        start = max(dep_ready, max(free[r] for r in used)) if used else idle
        end = start
        charged = timing if adjust is None else adjust(
            names[t], i, timing.op, timing, start)
        if charged is not None:
            if charged is not timing:
                used = _demands(charged)
            if used:
                end = start + max(used.values())
                for r, cycles in used.items():
                    free[r] = start + cycles
            makespan = max(makespan, end)
            out.append(ScheduledOp(names[t], i, start, end, charged))
        finish[t][i] = end
        if graph is None:
            if i + 1 < len(timings):
                ready[t].append(i + 1)
        else:
            for s in graph.succs.get(i, ()):
                indeg[t][s] -= 1
                if indeg[t][s] == 0:
                    heapq.heappush(ready[t], s)
    return out, makespan


def _pick_tenant(names: Sequence[str], ready: List[List[int]], policy: str,
                 priorities: Mapping[str, int], rr_next: int) -> int:
    """Index of the tenant to dispatch from next (deterministic)."""
    candidates = [t for t in range(len(ready)) if ready[t]]
    if not candidates:
        raise RuntimeError(
            "no dispatchable op but work remains — dependency deadlock "
            "(did a pass introduce a cross-tenant cycle?)")
    if policy == "priority":
        return max(candidates,
                   key=lambda t: (priorities.get(names[t], 0), -t))
    if policy == "round-robin":
        for k in range(len(ready)):
            t = (rr_next + k) % len(ready)
            if ready[t]:
                return t
    # fcfs: lowest pending op index wins, tenant order breaks ties
    return min(candidates, key=lambda t: (ready[t][0], t))
