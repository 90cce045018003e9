"""The serving loop: admission, slot batching, and dispatch.

:class:`ServingSimulator` replays an open-loop arrival trace
(:func:`repro.serve.traffic.generate_trace`) against one Alchemist:

1. each arrival passes :class:`~repro.serve.admission.AdmissionController`
   against the live per-class queue depths (admit / degrade / shed);
2. whenever the machine is free and work is queued, the dispatcher drains
   the queues — SLA classes in rank order, FIFO within a class — through
   :class:`~repro.serve.batching.SlotBatcher` into one batch;
3. the batch's operator program runs on
   :class:`~repro.sim.engine.EventDrivenSimulator`; every request in the
   batch completes when the batch does.

Each batch program shape (:meth:`~repro.serve.batching.Batch.program_key`)
is built once per simulator, and one memo keeps its noise and key
verdicts and its service latency.  Building it runs the static
slot-partition lint (:func:`~repro.serve.batching.assert_zero_exchange`),
so a packing rule that implied cross-unit slot traffic fails loudly
instead of producing optimistic latencies.

The loop is a pure function of ``(trace, config, batcher, admission)``:
no wall-clock time, no unseeded randomness — replays are byte-identical,
which is what lets ``BENCH_serving.json`` be drift-gated like the other
goldens.  A run's :class:`ServeReport` is plain data: its
:meth:`~ServeReport.as_dict` is what that golden holds and what
``repro serve`` prints its lines from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hw.config import ALCHEMIST_DEFAULT, AlchemistConfig
from repro.serve.admission import AdmissionController
from repro.compiler.verify.keys import KeyResidencyAnalysis
from repro.compiler.verify.noise import NoiseBudgetAnalysis
from repro.serve.batching import Batch, BatchingError, SlotBatcher, \
    assert_zero_exchange
from repro.serve.traffic import Request, SlaClass, offered_load_rps
from repro.sim.engine import EventDrivenSimulator


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    if not 0.0 < q <= 100.0:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))   # ceil(n * q / 100)
    return ordered[int(rank) - 1]


@dataclass(frozen=True)
class RequestOutcome:
    """What happened to one offered request."""

    request: Request
    sla: Optional[str]               # admitted class (None = shed)
    degraded: bool
    batch_id: Optional[int] = None
    dispatch_us: float = 0.0
    finish_us: float = 0.0
    shed_reason: str = ""            # "queue-full"/"noise"/"keys" when shed

    @property
    def served(self) -> bool:
        return self.batch_id is not None

    @property
    def shed(self) -> bool:
        return self.sla is None

    @property
    def latency_us(self) -> float:
        """Arrival-to-completion latency (0 for shed requests)."""
        if not self.served:
            return 0.0
        return self.finish_us - self.request.arrival_us


@dataclass(frozen=True)
class BatchRecord:
    """One dispatched batch on the machine timeline."""

    batch_id: int
    scheme: str
    kind: str
    occupancy: int
    total_width: int
    slots: int
    start_us: float
    service_us: float

    @property
    def finish_us(self) -> float:
        return self.start_us + self.service_us

    @property
    def fill_fraction(self) -> float:
        return self.total_width / self.slots


@dataclass(frozen=True)
class ClassStats:
    """Latency/SLA roll-up for one admitted SLA class."""

    name: str
    target_us: float
    admitted: int
    served: int
    p50_us: float
    p99_us: float
    mean_us: float
    max_us: float
    violations: int

    @property
    def violation_fraction(self) -> float:
        return self.violations / self.served if self.served else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "target_us": self.target_us,
            "admitted": self.admitted,
            "served": self.served,
            "p50_us": self.p50_us,
            "p99_us": self.p99_us,
            "mean_us": self.mean_us,
            "max_us": self.max_us,
            "violations": self.violations,
            "violation_fraction": self.violation_fraction,
        }


@dataclass
class ServeReport:
    """Deterministic outcome of one serving run."""

    profile: str
    seed: int
    rate_rps: float
    admission_mode: str
    config: AlchemistConfig
    outcomes: List[RequestOutcome] = field(default_factory=list)
    batches: List[BatchRecord] = field(default_factory=list)
    classes: Tuple[SlaClass, ...] = ()

    # ------------------------------ aggregates ------------------------- #

    @property
    def offered(self) -> int:
        return len(self.outcomes)

    @property
    def served(self) -> int:
        return sum(1 for o in self.outcomes if o.served)

    @property
    def shed(self) -> int:
        return sum(1 for o in self.outcomes if o.shed)

    @property
    def degraded(self) -> int:
        return sum(1 for o in self.outcomes if o.degraded)

    @property
    def shed_by_noise(self) -> int:
        """Requests shed because the static noise-budget verifier proved
        their program would not decrypt (never dispatched)."""
        return sum(1 for o in self.outcomes if o.shed_reason == "noise")

    @property
    def shed_by_keys(self) -> int:
        """Requests shed because the static key verifier proved their
        program consumes an unprovisioned evaluation key (never
        dispatched)."""
        return sum(1 for o in self.outcomes if o.shed_reason == "keys")

    @property
    def horizon_us(self) -> float:
        """Last activity instant: final completion or final arrival."""
        last_finish = max((b.finish_us for b in self.batches), default=0.0)
        last_arrival = max(
            (o.request.arrival_us for o in self.outcomes), default=0.0)
        return max(last_finish, last_arrival)

    @property
    def offered_rps(self) -> float:
        return offered_load_rps([o.request for o in self.outcomes])

    @property
    def goodput_rps(self) -> float:
        """Served requests per second of wall time (arrival to drain)."""
        horizon = self.horizon_us
        if horizon <= 0:
            return 0.0
        return self.served / (horizon * 1e-6)

    @property
    def utilization(self) -> float:
        """Fraction of the horizon the machine was busy."""
        horizon = self.horizon_us
        if horizon <= 0:
            return 0.0
        return min(1.0, sum(b.service_us for b in self.batches) / horizon)

    @property
    def mean_occupancy(self) -> float:
        if not self.batches:
            return 0.0
        return sum(b.occupancy for b in self.batches) / len(self.batches)

    @property
    def mean_fill(self) -> float:
        if not self.batches:
            return 0.0
        return (sum(b.fill_fraction for b in self.batches)
                / len(self.batches))

    def latencies_us(self, sla: Optional[str] = None) -> List[float]:
        """Latencies of served requests (optionally one admitted class),
        in dispatch order."""
        return [o.latency_us for o in self.outcomes
                if o.served and (sla is None or o.sla == sla)]

    def class_stats(self) -> List[ClassStats]:
        out = []
        for cls in self.classes:
            latencies = self.latencies_us(cls.name)
            admitted = sum(1 for o in self.outcomes if o.sla == cls.name)
            out.append(ClassStats(
                name=cls.name,
                target_us=cls.latency_target_us,
                admitted=admitted,
                served=len(latencies),
                p50_us=percentile(latencies, 50),
                p99_us=percentile(latencies, 99),
                mean_us=(sum(latencies) / len(latencies)
                         if latencies else 0.0),
                max_us=max(latencies, default=0.0),
                violations=sum(1 for v in latencies
                               if v > cls.latency_target_us),
            ))
        return out

    @property
    def sla_violations(self) -> int:
        return sum(c.violations for c in self.class_stats())

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready aggregate view (no per-request records — stable and
        small enough to commit as a golden)."""
        all_latencies = self.latencies_us()
        out: Dict[str, object] = {
            "profile": self.profile,
            "seed": self.seed,
            "rate_rps": self.rate_rps,
            "admission_mode": self.admission_mode,
            "offered": self.offered,
            "offered_rps": self.offered_rps,
            "served": self.served,
            "shed": self.shed,
            "degraded": self.degraded,
            "goodput_rps": self.goodput_rps,
            "horizon_us": self.horizon_us,
            "utilization": self.utilization,
            "num_batches": len(self.batches),
            "mean_occupancy": self.mean_occupancy,
            "mean_fill": self.mean_fill,
            "p50_us": percentile(all_latencies, 50),
            "p99_us": percentile(all_latencies, 99),
            "sla_violations": self.sla_violations,
            "classes": {c.name: c.as_dict() for c in self.class_stats()},
        }
        # Golden-stability: the counters appear only when a pre-dispatch
        # gate actually fired, so existing BENCH_serving.json stays
        # byte-stable.
        if self.shed_by_noise:
            out["shed_by_noise"] = self.shed_by_noise
        if self.shed_by_keys:
            out["shed_by_keys"] = self.shed_by_keys
        return out


class ServingSimulator:
    """Replays an arrival trace through admission, batching and dispatch."""

    def __init__(self, config: AlchemistConfig = ALCHEMIST_DEFAULT,
                 batcher: Optional[SlotBatcher] = None,
                 admission: Optional[AdmissionController] = None,
                 engine: Optional[EventDrivenSimulator] = None) -> None:
        self.config = config
        self.batcher = batcher or SlotBatcher()
        self.admission = admission or AdmissionController()
        self.engine = engine or EventDrivenSimulator(config)
        #: program_key -> (noise_ok, keys_ok, service_us): one entry per
        #: batch program shape, shared by admission and dispatch
        self._shapes: Dict[str, Tuple[bool, bool, float]] = {}

    # ------------------------------------------------------------------ #

    def _shape(self, batch: Batch) -> Tuple[bool, bool, float]:
        """``(noise_ok, keys_ok, service_us)`` of ``batch``'s program
        shape.  The first batch of a :meth:`Batch.program_key` builds the
        program, gates it on :func:`assert_zero_exchange` (which raises),
        verifies and times it; batches sharing a key build equal programs.
        """
        key = batch.program_key()
        entry = self._shapes.get(key)
        if entry is None:
            program = self.batcher.program(batch)
            assert_zero_exchange(program, self.config)
            headroom = NoiseBudgetAnalysis.program_headroom_bits(program)
            cycles = self.engine.makespan(program)
            entry = (headroom is None or headroom > 0.0,
                     not KeyResidencyAnalysis.missing_keys(program),
                     cycles / self.config.cycles_per_second * 1e6)
            self._shapes[key] = entry
        return entry

    def _probe(self, request: Request) -> Tuple[bool, bool]:
        """``(noise_ok, keys_ok)`` of the request's single-occupancy batch
        shape.  A request that cannot even form a batch passes: its
        capacity error surfaces on the normal path."""
        try:
            probe = Batch(scheme=request.scheme, kind=request.kind,
                          slots=self.batcher.capacity(request.scheme),
                          requests=(request,))
        except BatchingError:
            return True, True
        noise_ok, keys_ok, _ = self._shape(probe)
        return noise_ok, keys_ok

    def noise_admissible(self, request: Request) -> bool:
        """Static noise-budget gate: False when the verifier proves the
        request's program exhausts its budget (headroom <= 0, ``ALC701``),
        so it is shed before it can waste a dispatch slot.  Programs
        without a noise annotation pass."""
        return self._probe(request)[0]

    def keys_admissible(self, request: Request) -> bool:
        """Static evaluation-key gate: False when the request's program
        consumes a key the tenant has not provisioned (``ALC801``) — the
        first keyswitch would fault on the missing key material.
        Programs without a key annotation pass."""
        return self._probe(request)[1]

    def simulate(self, trace: Sequence[Request], *, profile: str = "",
                 seed: int = 0, rate_rps: float = 0.0) -> ServeReport:
        """Run the serving loop over ``trace`` (must be arrival-sorted).

        ``profile``/``seed``/``rate_rps`` are metadata echoed into the
        report; the trace itself fully determines the outcome.
        """
        arrivals = list(trace)
        for a, b in zip(arrivals, arrivals[1:]):
            if b.arrival_us < a.arrival_us:
                raise ValueError("trace must be sorted by arrival time")
        report = ServeReport(
            profile=profile, seed=seed, rate_rps=rate_rps,
            admission_mode=self.admission.mode, config=self.config,
            classes=self.admission.classes)
        queues: Dict[str, List[Request]] = {
            c.name: [] for c in self.admission.classes}
        placed: Dict[int, Tuple[Optional[str], bool, str]] = {}
        dispatched: Dict[int, Tuple[int, float, float]] = {}
        n = len(arrivals)
        i = 0                        # next arrival to admit
        free_at = 0.0                # when the machine next idles
        batch_id = 0
        while True:
            if any(queues.values()):
                now = free_at
            elif i < n:
                now = max(free_at, arrivals[i].arrival_us)
            else:
                break
            start = max(free_at, now)
            # admission: everything that has arrived by the dispatch
            # instant joins (or is shed from) the bounded queues
            while i < n and arrivals[i].arrival_us <= start:
                req = arrivals[i]
                depths = {name: len(q) for name, q in queues.items()}
                decision = self.admission.decide(
                    req, depths, noise_ok=self.noise_admissible(req),
                    keys_ok=self.keys_admissible(req))
                placed[req.rid] = (decision.sla, decision.degraded,
                                   decision.reason)
                if decision.sla is not None:
                    queues[decision.sla].append(req)
                i += 1
            if not any(queues.values()):
                continue             # everything shed; jump to next arrival
            # dispatch order: class rank, FIFO within a class
            ordered: List[Request] = []
            for cls in self.admission.classes:
                ordered.extend(queues[cls.name])
            batch, remaining = self.batcher.pack(ordered)
            kept = {r.rid for r in remaining}
            for name in queues:
                queues[name] = [r for r in queues[name] if r.rid in kept]
            service_us = self._shape(batch)[2]
            report.batches.append(BatchRecord(
                batch_id=batch_id, scheme=batch.scheme, kind=batch.kind,
                occupancy=batch.occupancy, total_width=batch.total_width,
                slots=batch.slots, start_us=start, service_us=service_us))
            finish = start + service_us
            for r in batch.requests:
                dispatched[r.rid] = (batch_id, start, finish)
            free_at = finish
            batch_id += 1
        for req in arrivals:
            sla, degraded, reason = placed[req.rid]
            if req.rid in dispatched:
                bid, start, finish = dispatched[req.rid]
                report.outcomes.append(RequestOutcome(
                    request=req, sla=sla, degraded=degraded,
                    batch_id=bid, dispatch_us=start, finish_us=finish))
            else:
                report.outcomes.append(RequestOutcome(
                    request=req, sla=sla, degraded=degraded,
                    shed_reason=reason))
        return report
