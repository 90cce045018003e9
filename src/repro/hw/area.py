"""Area and power model reproducing Table 5 (and the Table 6 comparison).

The paper synthesized RTL in a commercial 14nm process (Design Compiler) and
modeled SRAMs with CACTI.  We substitute an analytical component model with
per-component constants calibrated so the bottom-up sums land on the
published component areas; the *structure* (what contributes, and how area
scales with the configuration) is the model, the constants are calibration.

Published anchors (Table 5):
  core 0.043 mm², local SRAM (512KB) 0.427 mm², computing unit 1.118 mm²,
  128 units 143.104 mm², transpose RF 6.380 mm², shared SRAM (2MB)
  1.801 mm², 2 HBM2 PHYs 29.801 mm², total 181.086 mm².
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.hw.config import AlchemistConfig

# ---------------------------- calibrated constants ---------------------- #
# 14nm logic area, in mm^2.  A 36x36 multiplier dominates the core; the
# remaining lane logic (adder, accumulator, registers, muxing/control) is
# grouped per lane.  8 lanes * (mult + lane logic) + core control = 0.043.
_MULT_AREA_MM2 = 3.3e-3          # one 36-bit modular-capable multiplier
_LANE_LOGIC_AREA_MM2 = 1.9e-3    # adder + accumulator + register slice
_CORE_CONTROL_AREA_MM2 = 1.4e-3  # sequencer, dataflow control (Fig 5(d))

# SRAM density at 14nm (CACTI-like linear model with per-bank overhead).
_SRAM_MM2_PER_KB = 0.000817      # 512KB -> 0.427 mm^2 with bank overhead
_SRAM_BANK_OVERHEAD_MM2 = 0.0087
_SHARED_SRAM_MM2_PER_KB = 0.000836  # wider banks: 2MB -> 1.801 mm^2
_SHARED_BANK_OVERHEAD_MM2 = 0.0889

# Transpose register file: full crossbar-connected RF sized for one
# 128 x 128 word tile (Figure 5(a)); area per word including wiring.
_TRANSPOSE_MM2_PER_WORD = 6.380 / (128 * 128)

# One HBM2 PHY (14nm, published implementations are ~14.9 mm^2).
_HBM2_PHY_MM2 = 29.801 / 2

# Cluster-level interconnect/control on top of the 16 cores.
_CLUSTER_OVERHEAD_MM2 = 0.003

# Average power calibration: the paper reports 77.9 W at the design point.
_POWER_W_PER_MM2_LOGIC = 0.553
_POWER_W_PER_MM2_SRAM = 0.152
_HBM_PHY_POWER_W = 8.6


@dataclass
class AreaBreakdown:
    """Per-component areas in mm^2 (the rows of Table 5) of ``config``."""

    core: float
    core_cluster: float
    local_sram: float
    computing_unit: float
    all_units: float
    transpose_rf: float
    shared_sram: float
    memory_interface: float
    total: float
    config: AlchemistConfig

    def as_table_rows(self) -> Dict[str, float]:
        c = self.config
        return {
            f"1x Core Cluster ({c.cores_per_unit}x CORE)": self.core_cluster,
            "1x Local SRAM": self.local_sram,
            "1x Computing Unit (Core Cluster + Local SRAM)": self.computing_unit,
            f"{c.num_units}x Computing Unit": self.all_units,
            "Register file for transpose": self.transpose_rf,
            "Shared memory": self.shared_sram,
            f"Memory interface ({c.hbm_stacks}xHBM2 PHYs)":
                self.memory_interface,
            "Total": self.total,
        }


class AreaModel:
    """Bottom-up area model over an :class:`AlchemistConfig`."""

    def __init__(self, config: AlchemistConfig):
        self.config = config

    # ------------------------------ components ------------------------- #

    def core_area(self) -> float:
        lanes = self.config.lanes_per_core
        return (
            lanes * (_MULT_AREA_MM2 + _LANE_LOGIC_AREA_MM2)
            + _CORE_CONTROL_AREA_MM2
        )

    def core_cluster_area(self) -> float:
        return (
            self.config.cores_per_unit * self.core_area()
            + _CLUSTER_OVERHEAD_MM2
        )

    def local_sram_area(self) -> float:
        return (
            self.config.local_sram_kb * _SRAM_MM2_PER_KB
            + _SRAM_BANK_OVERHEAD_MM2
        )

    def computing_unit_area(self) -> float:
        return self.core_cluster_area() + self.local_sram_area()

    def transpose_rf_area(self) -> float:
        words = self.config.num_units * self.config.num_units
        return words * _TRANSPOSE_MM2_PER_WORD

    def shared_sram_area(self) -> float:
        kb = self.config.shared_sram_mb * 1024
        return kb * _SHARED_SRAM_MM2_PER_KB + _SHARED_BANK_OVERHEAD_MM2

    def memory_interface_area(self) -> float:
        return self.config.hbm_stacks * _HBM2_PHY_MM2

    # ------------------------------ totals ----------------------------- #

    def breakdown(self) -> AreaBreakdown:
        core = self.core_area()
        cluster = self.core_cluster_area()
        local = self.local_sram_area()
        unit = self.computing_unit_area()
        units = self.config.num_units * unit
        transpose = self.transpose_rf_area()
        shared = self.shared_sram_area()
        mem_if = self.memory_interface_area()
        total = units + transpose + shared + mem_if
        return AreaBreakdown(
            core=core,
            core_cluster=cluster,
            local_sram=local,
            computing_unit=unit,
            all_units=units,
            transpose_rf=transpose,
            shared_sram=shared,
            memory_interface=mem_if,
            total=total,
            config=self.config,
        )

    def total_area(self) -> float:
        return self.breakdown().total

    def logic_area(self) -> float:
        b = self.breakdown()
        return self.config.num_units * b.core_cluster + b.transpose_rf

    def sram_area(self) -> float:
        b = self.breakdown()
        return self.config.num_units * b.local_sram + b.shared_sram


class PowerModel:
    """Simple area-proportional average power model (reported, not asserted:
    the paper gives a single 77.9 W figure without a breakdown)."""

    def __init__(self, config: AlchemistConfig):
        self.config = config
        self.area = AreaModel(config)

    def average_power_watts(self) -> float:
        logic = self.area.logic_area() * _POWER_W_PER_MM2_LOGIC
        sram = self.area.sram_area() * _POWER_W_PER_MM2_SRAM
        hbm = self.config.hbm_stacks * _HBM_PHY_POWER_W
        return logic + sram + hbm
