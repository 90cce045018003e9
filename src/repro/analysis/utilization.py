"""Utilization studies: Alchemist vs modular designs (Figures 1 and 7(b))."""

from __future__ import annotations

from typing import Dict, Tuple

from repro.baselines.models import MODULAR_DESIGNS, ModularAcceleratorModel
from repro.compiler.cost.model import by_class
from repro.compiler.ops import Program
from repro.sim.simulator import CycleSimulator


def alchemist_utilization(
    program: Program, simulator: CycleSimulator = None
) -> Tuple[float, Dict[str, float]]:
    """(overall, per-class) compute utilization of Alchemist on a program."""
    simulator = simulator or CycleSimulator()
    report = simulator.run(program)
    return report.overall_compute_utilization(), report.utilization_by_class()


def modular_utilization(
    design: str, program: Program, simulator: CycleSimulator = None
) -> Tuple[float, Dict[str, float]]:
    """(overall, per-unit) utilization of a modular baseline on a program.

    The workload demand fed to the modular model is the busy-core-cycle
    distribution our compiler/simulator derives — i.e. both machines see
    the same work, only the hardware organization differs.
    """
    simulator = simulator or CycleSimulator()
    model: ModularAcceleratorModel = MODULAR_DESIGNS[design]
    report = simulator.run(program)
    demand = {cls: busy
              for cls, (busy, _) in by_class(report.timings).items()}
    return model.utilization(demand)


def utilization_comparison(
    programs: Dict[str, Program],
    designs=("SHARP", "CraterLake", "F1"),
    simulator: CycleSimulator = None,
) -> Dict[str, Dict[str, float]]:
    """Overall utilization of Alchemist and each design on each workload
    (the right-hand side of Figure 1)."""
    simulator = simulator or CycleSimulator()
    out: Dict[str, Dict[str, float]] = {}
    for name, program in programs.items():
        row = {}
        overall, _ = alchemist_utilization(program, simulator)
        row["Alchemist"] = overall
        for design in designs:
            row[design], _ = modular_utilization(design, program, simulator)
        out[name] = row
    return out
