"""Deterministic, seeded fault models for the Alchemist event engine.

A :class:`FaultModel` is a *timetable* of hardware faults, fixed before the
simulation starts and derived only from an explicit integer seed — never
from wall-clock randomness — so every campaign replays bit-identically.
Four fault classes are modelled, matching what production FHE accelerators
plausibly suffer (CiFHER's resizable-core argument, REED's chiplet loss):

* :class:`HbmDegradation` — an HBM brown-out window: off-chip bandwidth
  drops to ``bandwidth_factor`` of nominal between two timeline cycles;
* :class:`CoreDropout` — from ``at_cycle`` on, ``cores`` computing cores
  are dead.  Slot partitioning is per *unit* (Section 5.3), so the victims'
  Meta-OP share is remapped onto the surviving cores of the same units —
  the zero-exchange invariant survives, and the shared cost model simply
  sees fewer wave slots (``AlchemistConfig.with_capacity_loss``);
* :class:`ScratchpadLoss` — on-chip SRAM capacity permanently lost before
  the run; the program is re-scheduled against the reduced capacity by
  re-running :func:`~repro.compiler.passes.insert_spills`;
* :class:`TransientFaults` — each op *attempt* fails independently with a
  fixed probability.  Failure draws are a pure function of
  ``(seed, tenant, op index, attempt)`` via SHA-256 (no Python ``hash()``,
  which is salted per process), so replay is exact across runs and
  platforms.

Faults perturb **timing and scheduling only**.  Nothing in this package
touches the functional CKKS/BFV/TFHE layers; the differential harness in
``tests/integration/test_fault_differential.py`` proves decrypted results
are unchanged under every campaign.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from hashlib import sha256
from random import Random
from typing import Dict, List, Optional, Tuple

from repro.hw.config import AlchemistConfig


@dataclass(frozen=True)
class HbmDegradation:
    """Off-chip bandwidth reduced to ``bandwidth_factor`` of nominal inside
    ``[start_cycle, end_cycle)`` — an HBM brown-out / thermal throttle."""

    start_cycle: float
    end_cycle: float
    bandwidth_factor: float          # 0 < factor <= 1 (fraction remaining)

    def __post_init__(self) -> None:
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise ValueError("bandwidth_factor must be in (0, 1]")
        if self.end_cycle <= self.start_cycle:
            raise ValueError("degradation window must have positive length")

    def active_at(self, cycle: float) -> bool:
        return self.start_cycle <= cycle < self.end_cycle

    def as_dict(self) -> Dict[str, object]:
        return {"kind": "hbm_degradation", "start_cycle": self.start_cycle,
                "end_cycle": self.end_cycle,
                "bandwidth_factor": self.bandwidth_factor}


@dataclass(frozen=True)
class CoreDropout:
    """``cores`` computing cores dead from ``at_cycle`` onwards."""

    at_cycle: float
    cores: int

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("a dropout must lose at least one core")
        if self.at_cycle < 0:
            raise ValueError("at_cycle must be non-negative")

    def as_dict(self) -> Dict[str, object]:
        return {"kind": "core_dropout", "at_cycle": self.at_cycle,
                "cores": self.cores}


@dataclass(frozen=True)
class ScratchpadLoss:
    """``bytes_lost`` of on-chip capacity gone before the run starts."""

    bytes_lost: int

    def __post_init__(self) -> None:
        if self.bytes_lost < 1:
            raise ValueError("a scratchpad loss must lose at least one byte")

    def as_dict(self) -> Dict[str, object]:
        return {"kind": "scratchpad_loss", "bytes_lost": self.bytes_lost}


@dataclass(frozen=True)
class TransientFaults:
    """Every op attempt fails independently with ``probability``."""

    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability < 1.0:
            raise ValueError("probability must be in [0, 1)")

    def as_dict(self) -> Dict[str, object]:
        return {"kind": "transient", "probability": self.probability}


def _stable_fraction(*parts: object) -> float:
    """A deterministic value in [0, 1) from the given parts.

    SHA-256 over a textual key: stable across processes, platforms and
    Python versions (unlike ``hash()``, which salts strings per process),
    and — unlike a CRC, which is linear and clusters badly on similar
    keys — uniformly mixed, so per-op failure draws behave independently.
    """
    key = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(sha256(key).digest()[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultModel:
    """A fixed, seeded timetable of fault events for one simulation run.

    An *empty* model (no events, the default) is the contract for the
    zero-overhead invariant: both simulators must produce bit-identical
    cycle counts and trace events through the injection path as without it.
    """

    seed: int = 0
    hbm_events: Tuple[HbmDegradation, ...] = ()
    dropouts: Tuple[CoreDropout, ...] = ()
    scratchpad_losses: Tuple[ScratchpadLoss, ...] = ()
    transient: Optional[TransientFaults] = None

    # ------------------------------ queries ----------------------------- #

    def is_empty(self) -> bool:
        return (not self.hbm_events and not self.dropouts
                and not self.scratchpad_losses and self.transient is None)

    @classmethod
    def empty(cls, seed: int = 0) -> "FaultModel":
        return cls(seed=seed)

    def hbm_window_at(self, cycle: float) -> Optional[HbmDegradation]:
        """The (first) active brown-out window at ``cycle``, if any."""
        for event in self.hbm_events:
            if event.active_at(cycle):
                return event
        return None

    def cores_lost_at(self, cycle: float) -> int:
        """Cumulative dead cores at ``cycle`` (dropouts stack)."""
        return sum(d.cores for d in self.dropouts if d.at_cycle <= cycle)

    def total_scratchpad_loss(self) -> int:
        return sum(s.bytes_lost for s in self.scratchpad_losses)

    def attempt_fails(self, tenant: str, op_index: int, attempt: int) -> bool:
        """Whether attempt ``attempt`` (1-based) of op ``op_index`` fails.

        A pure function of ``(seed, tenant, op_index, attempt)`` — replay
        with the same seed is bit-identical, and the draw is independent of
        simulated time, so the cycle simulator and the event engine see the
        *same* failure pattern for the same program.
        """
        if self.transient is None or self.transient.probability <= 0.0:
            return False
        draw = _stable_fraction(self.seed, tenant, op_index, attempt)
        return draw < self.transient.probability

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "seed": self.seed,
            "hbm_events": [e.as_dict() for e in self.hbm_events],
            "dropouts": [e.as_dict() for e in self.dropouts],
            "scratchpad_losses": [e.as_dict()
                                  for e in self.scratchpad_losses],
        }
        out["transient"] = (None if self.transient is None
                            else self.transient.as_dict())
        return out


# --------------------------------------------------------------------- #
# Campaign presets
# --------------------------------------------------------------------- #

#: Campaign names understood by :func:`build_campaign` / ``repro faults``.
CAMPAIGNS = ("default", "hbm", "dropout", "transient", "scratchpad",
             "storm", "none")


@dataclass(frozen=True)
class _CampaignShape:
    """What a named campaign injects (quantities drawn from the seed)."""

    hbm_windows: int = 0
    dropout_events: int = 0
    scratchpad_fraction: float = 0.0    # fraction of on-chip capacity lost
    transient_probability: float = 0.0


_CAMPAIGN_SHAPES: Dict[str, _CampaignShape] = {
    "none": _CampaignShape(),
    "default": _CampaignShape(hbm_windows=1, dropout_events=1,
                              transient_probability=0.02),
    "hbm": _CampaignShape(hbm_windows=2),
    "dropout": _CampaignShape(dropout_events=2),
    "transient": _CampaignShape(transient_probability=0.10),
    "scratchpad": _CampaignShape(scratchpad_fraction=0.25),
    "storm": _CampaignShape(hbm_windows=2, dropout_events=2,
                            scratchpad_fraction=0.25,
                            transient_probability=0.05),
}


def campaign_seed(seed: int, workload: str) -> int:
    """Per-workload sub-seed: distinct fault timetables per workload under
    one campaign seed, still a pure function of ``(seed, workload)``."""
    return seed ^ zlib.crc32(workload.encode())


def build_campaign(name: str, seed: int, baseline_cycles: float,
                   config: AlchemistConfig) -> FaultModel:
    """Materialize the named campaign into a concrete :class:`FaultModel`.

    Event *placement* is drawn from ``random.Random(seed)`` (deterministic,
    platform-stable for the generators used here) and scaled by the
    workload's fault-free ``baseline_cycles`` so windows land inside the
    execution rather than after it.  ``config`` bounds the capacity losses.
    """
    if name not in _CAMPAIGN_SHAPES:
        raise ValueError(
            f"unknown campaign {name!r}; expected one of {CAMPAIGNS}")
    shape = _CAMPAIGN_SHAPES[name]
    rng = Random(seed)
    span = max(baseline_cycles, 1.0)

    hbm: List[HbmDegradation] = []
    for _ in range(shape.hbm_windows):
        start = rng.uniform(0.05, 0.55) * span
        length = rng.uniform(0.10, 0.35) * span
        factor = rng.uniform(0.35, 0.80)
        hbm.append(HbmDegradation(start_cycle=start,
                                  end_cycle=start + length,
                                  bandwidth_factor=factor))

    total_cores = config.num_units * config.cores_per_unit
    drops: List[CoreDropout] = []
    budget = max(1, total_cores // 2)      # never kill half the machine
    for _ in range(shape.dropout_events):
        at = rng.uniform(0.10, 0.80) * span
        cores = rng.randint(1, max(1, budget // 4))
        if sum(d.cores for d in drops) + cores >= budget:
            break
        drops.append(CoreDropout(at_cycle=at, cores=cores))

    losses: List[ScratchpadLoss] = []
    if shape.scratchpad_fraction > 0.0:
        capacity = (config.num_units * config.local_sram_bytes
                    + config.shared_sram_bytes)
        losses.append(ScratchpadLoss(
            bytes_lost=int(capacity * shape.scratchpad_fraction)))

    transient = (TransientFaults(shape.transient_probability)
                 if shape.transient_probability > 0.0 else None)

    return FaultModel(
        seed=seed,
        hbm_events=tuple(sorted(hbm, key=lambda e: e.start_cycle)),
        dropouts=tuple(sorted(drops, key=lambda e: e.at_cycle)),
        scratchpad_losses=tuple(losses),
        transient=transient,
    )
