"""Top-level Alchemist accelerator: structure + bookkeeping.

Bundles the 128 computing units (core cluster + local scratchpad), the
shared memory, the transpose register file and the HBM interface.  Timing
and scheduling live in :mod:`repro.sim`; this class provides the machine the
simulator drives, plus area/power reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.hw.area import AreaModel, PowerModel
from repro.hw.config import ALCHEMIST_DEFAULT, AlchemistConfig
from repro.hw.core import CoreCluster
from repro.hw.memory import (
    HBMModel,
    LocalScratchpad,
    SharedMemory,
    TransposeBuffer,
)


@dataclass
class ComputingUnit:
    """One of the 128 independent units: core cluster + private scratchpad."""

    unit_id: int
    cluster: CoreCluster
    scratchpad: LocalScratchpad


class Alchemist:
    """The unified cross-scheme FHE accelerator (structural model)."""

    def __init__(self, config: AlchemistConfig = ALCHEMIST_DEFAULT):
        self.config = config
        self.units: List[ComputingUnit] = [
            ComputingUnit(
                unit_id=i,
                cluster=CoreCluster(
                    lanes=config.lanes_per_core,
                    num_cores=config.cores_per_unit,
                ),
                scratchpad=LocalScratchpad(config.local_sram_bytes),
            )
            for i in range(config.num_units)
        ]
        self.shared_memory = SharedMemory(config.shared_sram_bytes)
        self.transpose_buffer = TransposeBuffer(
            config.num_units, config.word_bytes
        )
        self.hbm = HBMModel(config.hbm_bytes_per_cycle)
        self.area_model = AreaModel(config)
        self.power_model = PowerModel(config)

    # ------------------------------------------------------------------ #

    @property
    def total_busy_core_cycles(self) -> int:
        return sum(u.cluster.busy_core_cycles for u in self.units)

    def overall_utilization(self, elapsed_cycles: int) -> float:
        if elapsed_cycles <= 0:
            return 0.0
        capacity = elapsed_cycles * self.config.total_cores
        return min(1.0, self.total_busy_core_cycles / capacity)

    def reset_activity(self) -> None:
        for unit in self.units:
            unit.cluster.reset()
        self.hbm.bytes_transferred = 0

    # ------------------------------------------------------------------ #

    def area_mm2(self) -> float:
        return self.area_model.total_area()

    def average_power_watts(self) -> float:
        return self.power_model.average_power_watts()

    def describe(self) -> str:
        c = self.config
        return (
            f"Alchemist: {c.num_units} units x {c.cores_per_unit} cores x "
            f"{c.lanes_per_core} lanes @ {c.frequency_ghz} GHz, "
            f"{c.total_onchip_bytes // (1024 * 1024)} MB on-chip, "
            f"{c.hbm_bandwidth_gbps / 1000:.1f} TB/s HBM, "
            f"{self.area_mm2():.1f} mm^2, "
            f"{self.average_power_watts():.1f} W"
        )
