"""Hardware model of the Alchemist accelerator (paper Section 5).

Structure: 128 independent computing units (16 unified cores + 512KB local
scratchpad each), a 2MB shared memory, a transpose register file, and 2 HBM2
stacks at 1 TB/s, all at 1 GHz.  This package holds the configuration,
the area/power model (Table 5/6), the slot-based data management
(Figure 5(b)) and an executable distributed 4-step NTT over the units
(Section 5.3).  Time is one cost per operator,
:func:`repro.compiler.cost.model.cost_op`, scheduled by :mod:`repro.sim`.
"""

from repro.hw.config import AlchemistConfig, ALCHEMIST_DEFAULT
from repro.hw.area import AreaModel, AreaBreakdown, PowerModel
from repro.hw.datalayout import SlotPartition
from repro.hw.distributed import DistributedFourStepNTT
from repro.hw.accelerator import Alchemist

__all__ = [
    "AlchemistConfig",
    "ALCHEMIST_DEFAULT",
    "AreaModel",
    "AreaBreakdown",
    "PowerModel",
    "SlotPartition",
    "DistributedFourStepNTT",
    "Alchemist",
]
