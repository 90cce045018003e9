"""Top-level Alchemist accelerator: configuration, area and power.

The 128 computing units (core cluster + local scratchpad), the shared
memory, the transpose register file and the HBM interface are described
by an :class:`~repro.hw.config.AlchemistConfig`; their time is one cost
per operator (:func:`repro.compiler.cost.model.cost_op`), scheduled by
:mod:`repro.sim`.  This class reports the machine's area and power.
"""

from __future__ import annotations

from repro.hw.area import AreaModel, PowerModel
from repro.hw.config import ALCHEMIST_DEFAULT, AlchemistConfig


class Alchemist:
    """The unified cross-scheme FHE accelerator (area and power view)."""

    def __init__(self, config: AlchemistConfig = ALCHEMIST_DEFAULT):
        self.config = config
        self.area_model = AreaModel(config)
        self.power_model = PowerModel(config)

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
