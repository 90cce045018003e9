"""Benchmark runner: re-executes the Table 7 / Figure 6 workloads through a
traced simulator and emits machine-readable JSON.

``BENCH_table7.json`` — basic CKKS operator latencies/throughputs against
the paper's published column.  ``BENCH_fig6.json`` — application results:
deep CKKS apps (LoLa-MNIST, bootstrapping, HELR) with speedups over the
published accelerator baselines, and TFHE PBS throughput for both parameter
sets.  Every operator/workload entry carries per-op records (latency,
utilization, bound type, resource cycles) from the trace collector.

The output is deterministic: it depends only on the architecture config and
the workload builders — no timestamps, no environment probing — so the JSON
files can be committed and diffed.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Sequence

from repro.baselines.published import (
    ACCELERATOR_SPECS,
    FIGURE6_CKKS_BASELINES,
    FIGURE6_TFHE_BASELINES,
    TABLE7_BASELINES,
)
from repro.compiler.ckks_programs import (
    bootstrapping_program,
    cmult_program,
    hadd_program,
    helr_iteration_program,
    keyswitch_program,
    lola_mnist_program,
    pmult_program,
    rotation_program,
)
from repro.compiler.cost.model import utilization
from repro.compiler.tfhe_programs import PBS_SET_I, PBS_SET_II, pbs_batch_program
from repro.hw.config import ALCHEMIST_DEFAULT, AlchemistConfig
from repro.sim.schedule import ScheduledOp
from repro.sim.simulator import CycleSimulator
from repro.telemetry.collector import TraceCollector

#: Schema identifiers embedded in the emitted files.
TABLE7_SCHEMA = "alchemist-bench/table7/v1"
FIG6_SCHEMA = "alchemist-bench/fig6/v1"

TABLE7_OPERATORS = {
    "Pmult": pmult_program,
    "Hadd": hadd_program,
    "Keyswitch": keyswitch_program,
    "Cmult": cmult_program,
    "Rotation": rotation_program,
}


def _per_op_records(ops: Sequence[ScheduledOp], config: AlchemistConfig):
    """Per-op latency/utilization/bound rows for one traced program."""
    hz = config.cycles_per_second
    rows = []
    for s in ops:
        c = s.timing
        rows.append({
            "name": s.label,
            "kind": c.op.kind.value,
            "operator_class": c.operator_class,
            "latency_us": (s.end - s.start) / hz * 1e6,
            "start_us": s.start / hz * 1e6,
            "utilization": utilization(c.busy_core_cycles, c.compute_cycles,
                                       config.total_cores),
            "bound": c.bound,
            "compute_cycles": c.compute_cycles,
            "sram_cycles": c.sram_cycles,
            "hbm_cycles": c.hbm_cycles,
            "waves": c.waves,
            "meta_ops": c.meta_ops,
            "sram_bytes": c.sram_bytes,
            "hbm_bytes": c.hbm_bytes,
        })
    return rows


def _run_traced(builder, config: AlchemistConfig):
    """Simulate one workload with tracing on; return (report, per-op rows,
    collector summary entry)."""
    collector = TraceCollector()
    sim = CycleSimulator(config, collector=collector)
    program = builder()
    report = sim.run(program)
    _, ops, _ = collector.programs[program.name]
    rows = _per_op_records(ops, config)
    summary = collector.summary_dict()["programs"][program.name]
    return report, rows, summary


def bench_table7(
    config: AlchemistConfig = ALCHEMIST_DEFAULT,
) -> Dict[str, object]:
    """Re-run the five Table 7 basic operators and collect metrics."""
    operators = {}
    for name, builder in TABLE7_OPERATORS.items():
        report, rows, summary = _run_traced(builder, config)
        paper = TABLE7_BASELINES[name]["Alchemist_paper"]
        measured = report.throughput_per_second()
        operators[name] = {
            "latency_us": report.seconds * 1e6,
            "throughput_op_s": measured,
            "paper_op_s": paper,
            "ratio_to_paper": measured / paper,
            "bound": report.bottleneck,
            "utilization": report.overall_compute_utilization(),
            "utilization_by_class": report.utilization_by_class(),
            "cycles": {
                "compute": report.total_compute_cycles,
                "sram": report.total_sram_cycles,
                "hbm": report.total_hbm_cycles,
            },
            "hbm_gigabytes": report.hbm_gigabytes(),
            "bound_histogram": summary["bound_histogram"],
            "bandwidth_occupancy": summary["bandwidth_occupancy"],
            "ops": rows,
        }
    return {
        "schema": TABLE7_SCHEMA,
        "config": config.as_dict(),
        "operators": operators,
    }


def bench_fig6(
    config: AlchemistConfig = ALCHEMIST_DEFAULT,
) -> Dict[str, object]:
    """Re-run the Figure 6 application workloads and collect metrics."""
    alch_area = ACCELERATOR_SPECS["Alchemist"].area_mm2_14nm
    ckks_apps = {
        "lola_mnist_enc": lambda: lola_mnist_program(encrypted_weights=True),
        "lola_mnist_plain": lambda: lola_mnist_program(
            encrypted_weights=False),
        "bootstrapping": bootstrapping_program,
        "helr_iteration": helr_iteration_program,
    }
    ckks = {}
    for app, builder in ckks_apps.items():
        report, rows, summary = _run_traced(builder, config)
        ms = report.seconds * 1e3
        speedups = {
            b.accelerator: b.milliseconds / ms
            for b in FIGURE6_CKKS_BASELINES if b.app == app
        }
        ckks[app] = {
            "latency_ms": ms,
            "bound": report.bottleneck,
            "utilization": report.overall_compute_utilization(),
            "num_ops": summary["num_ops"],
            "bound_histogram": summary["bound_histogram"],
            "speedup_vs": speedups,
            "ops": rows,
        }
    tfhe = {}
    for name, wl in (("set_I", PBS_SET_I), ("set_II", PBS_SET_II)):
        report, rows, summary = _run_traced(
            lambda wl=wl: pbs_batch_program(wl, batch=128), config)
        pbs_per_sec = 128.0 / report.seconds
        tfhe[name] = {
            "batch": 128,
            "batch_latency_ms": report.seconds * 1e3,
            "pbs_per_sec": pbs_per_sec,
            "bound": report.bottleneck,
            "utilization": report.overall_compute_utilization(),
            "num_ops": summary["num_ops"],
            "bound_histogram": summary["bound_histogram"],
            "speedup_vs": {
                base: pbs_per_sec / entry["pbs_per_sec"]
                for base, entry in FIGURE6_TFHE_BASELINES.items()
            },
            "ops": rows,
        }
    return {
        "schema": FIG6_SCHEMA,
        "config": config.as_dict(),
        "alchemist_area_mm2_14nm": alch_area,
        "ckks_applications": ckks,
        "tfhe_pbs": tfhe,
    }


def write_bench_files(
    out_dir: str = ".", config: AlchemistConfig = ALCHEMIST_DEFAULT
) -> Dict[str, str]:
    """Write ``BENCH_table7.json`` / ``BENCH_fig6.json`` into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for stem, result in (
        ("BENCH_table7", bench_table7(config)),
        ("BENCH_fig6", bench_fig6(config)),
    ):
        path = os.path.join(out_dir, stem + ".json")
        with open(path, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
        paths[stem] = path
    return paths
