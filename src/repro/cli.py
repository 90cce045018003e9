"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Architecture summary: configuration, area, power.
``simulate <workload> [--units N] [--hbm-gbps G] [--engine] [--fuse]``
    Run one workload through the cycle simulator (``--engine`` uses the
    dependency-aware event-driven scheduler; ``--fuse`` applies the
    elementwise-fusion compiler pass first).
``simulate --mix A,B[,C...] [--policy fcfs|round-robin|priority]``
    Run several workloads as tenants time-sharing the machine under the
    chosen dispatch policy, reporting per-tenant latency, slowdown vs
    running alone, and a Jain fairness index.  ``ckks-bootstrap`` and
    ``tfhe-pbs`` are accepted aliases for ``bootstrapping``/``pbs-i``.
``table7``
    The basic-operator throughput table (paper Table 7).
``ratios``
    Figure 1 operator-ratio bars for every benchmark workload.
``utilization``
    Figure 1/7(b) utilization comparison across accelerator designs.
``workloads``
    List the available workload names.
``report``
    Live paper-vs-measured markdown report (the EXPERIMENTS.md numbers).
``trace <workload> [--format chrome|csv] [-o FILE]``
    Simulate one workload with telemetry on and export the cycle trace
    (Chrome ``chrome://tracing`` JSON or CSV).
``bench [--out-dir DIR]``
    Re-run the Table 7 / Figure 6 benchmark suites and write
    ``BENCH_table7.json`` / ``BENCH_fig6.json``.
``faults [workload ...] [--campaign C] [--seed N] [--policy P] [--json] [-o F]``
    Seeded fault-injection campaign (:mod:`repro.sim.faults`): HBM
    brown-outs, core dropout, scratchpad loss and transient op failures
    applied to the event-driven scheduler under a resilience policy,
    reporting makespan inflation, availability and fairness per workload
    plus the cross-scheme mix.  Deterministic for a fixed seed; ``-o``
    writes the same JSON document as the committed ``BENCH_faults.json``.
    Exit codes: 0 — campaign completed (possibly degraded); 1 — at least
    one tenant aborted; 2 — usage error (unknown workload, campaign, or
    policy).
``serve [--profile P ...] [--seed N] [--rate R[,R...]] [--requests N]
[--admission degrade|shed] [--json] [-o F]``
    Replay seeded FHE-as-a-service traffic (:mod:`repro.serve`) through
    admission control, cross-request slot batching and the event-driven
    scheduler, sweeping offered load and reporting per-SLA-class
    latency percentiles, goodput and shed/degrade counts.
    Deterministic for a fixed seed; ``-o`` writes the same JSON document
    as the committed ``BENCH_serving.json``.  Exit codes: 0 — every
    request served (possibly degraded); 1 — at least one request shed;
    2 — usage error (unknown profile or admission mode).
``lint [workload ...] [--json] [--notes] [--engine-audit] [--noise]
[--keys] [--fail-on S]``
    Statically verify workload programs with the FHE linter
    (:mod:`repro.compiler.verify`): level/scale bookkeeping,
    slot-partition conformance, dataflow liveness, cost advisories,
    and — with ``--engine-audit`` — hazard-audit the event-driven
    schedule.  No workload names means all of them.  ``--fail-on``
    sets the severity threshold for a non-zero exit (default
    ``error``); ``--notes`` also shows advisory notes.  ``--noise``
    and ``--keys`` run only the focused ALC7xx noise-budget or ALC8xx
    evaluation-key residency analysis, notes shown.
``analyze [workload ...] [--json] [--per-op] [--roofline] [--check]
[--compressed]``
    Static cost & roofline analysis (:mod:`repro.compiler.cost`):
    predict per-op and per-program cycles, SRAM/HBM traffic, Meta-OP
    counts, bottlenecks, critical path, and peak scratchpad occupancy
    *without simulating*, plus the ALC6xx performance advisories.
    ``--check`` differentially validates the static totals against the
    cycle simulator (exact) and the event-driven engine (bounded).
    ``--compressed`` adds a comparison against the default
    :class:`~repro.hw.config.CompressionModel` — seed-expanded key
    transfers move half the HBM bytes plus an on-chip expansion charge
    — and marks every op the model flips off the HBM roof (ALC605).
    Shares ``--fail-on`` semantics with ``lint``.

Exit codes (``lint`` / ``analyze``): 0 — clean at the configured
``--fail-on`` threshold (and, for ``analyze --check``, statics match the
simulator); 1 — diagnostics at/above the threshold, or a ``--check``
mismatch; 2 — usage error (unknown workload or missing argument).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Dict, List, Optional, Sequence

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
from repro.compiler.ops import Program
from repro.compiler.bfv_programs import bfv_cmult_program
from repro.compiler.tfhe_programs import PBS_SET_I, PBS_SET_II, pbs_batch_program


def _workloads() -> Dict[str, Program]:
    return {
        "pmult": pmult_program(),
        "hadd": hadd_program(),
        "keyswitch": keyswitch_program(),
        "cmult": cmult_program(),
        "rotation": rotation_program(),
        "bootstrapping": bootstrapping_program(),
        "helr": helr_iteration_program(),
        "lola-enc": lola_mnist_program(encrypted_weights=True),
        "lola-plain": lola_mnist_program(encrypted_weights=False),
        "pbs-i": pbs_batch_program(PBS_SET_I, batch=128),
        "pbs-ii": pbs_batch_program(PBS_SET_II, batch=128),
        "bfv-cmult": bfv_cmult_program(),
    }


#: Scheme-qualified aliases accepted anywhere a workload name is.
WORKLOAD_ALIASES = {
    "ckks-bootstrap": "bootstrapping",
    "tfhe-pbs": "pbs-i",
    "bfv-mult": "bfv-cmult",
}


def _resolve_workloads(names: Sequence[str]) -> Optional[List[Program]]:
    """The programs ``names`` denote (aliases resolved; all of them,
    sorted by name, when ``names`` is empty).  ``None`` after reporting
    the first unknown name, before any work starts."""
    workloads = _workloads()
    programs = []
    for name in names or sorted(workloads):
        program = workloads.get(WORKLOAD_ALIASES.get(name, name))
        if program is None:
            print(f"unknown workload {name!r}; try: "
                  + ", ".join(sorted(workloads)), file=sys.stderr)
            return None
        programs.append(program)
    return programs


def _config_from_args(args) -> "AlchemistConfig":
    from repro.hw.config import ALCHEMIST_DEFAULT

    overrides = {}
    if getattr(args, "units", None) is not None:
        overrides["num_units"] = args.units
    if getattr(args, "hbm_gbps", None) is not None:
        overrides["hbm_bandwidth_gbps"] = args.hbm_gbps
    return ALCHEMIST_DEFAULT.with_overrides(**overrides)


def cmd_info(args) -> int:
    from repro.hw.accelerator import Alchemist

    acc = Alchemist(_config_from_args(args))
    print(acc.describe())
    print("\nArea breakdown (Table 5):")
    for name, mm2 in acc.area_model.breakdown().as_table_rows().items():
        print(f"  {name:46s} {mm2:8.3f} mm^2")
    return 0


def cmd_workloads(args) -> int:
    for name, prog in _workloads().items():
        print(f"{name:14s} {len(prog.ops):5d} ops   {prog.description}")
    return 0


def _fuse_programs(programs):
    from repro.compiler.passes import fuse_elementwise

    fused = []
    for prog in programs:
        out = fuse_elementwise(prog)
        if out is not prog:
            print(f"[fuse-elementwise] {prog.name}: fused "
                  f"{len(prog.ops) - len(out.ops)} elementwise pairs "
                  f"({len(prog.ops)} -> {len(out.ops)} ops)")
        fused.append(out)
    return fused


def cmd_simulate(args) -> int:
    from repro.sim.simulator import CycleSimulator

    config = _config_from_args(args)
    if args.mix:
        return _simulate_mix(args, config)
    if not args.workload:
        print("workload name required (or use --mix)", file=sys.stderr)
        return 2
    programs = _resolve_workloads([args.workload])
    if programs is None:
        return 2
    program = programs[0]
    if args.fuse:
        program = _fuse_programs([program])[0]
    sim = CycleSimulator(config)
    report = sim.run(program)
    print(report.summary())
    if args.engine:
        from repro.sim.engine import EventDrivenSimulator

        mix = EventDrivenSimulator(config).run(program)
        print(f"event-driven: {mix.makespan_cycles:,.0f} cycles = "
              f"{mix.seconds * 1e6:,.1f} us "
              f"(pipelined {report.pipelined_cycles:,.0f} <= event <= "
              f"serialized {report.serialized_cycles:,.0f})")
    per_class = report.utilization_by_class()
    if per_class:
        print("utilization by operator class:")
        for cls, util in sorted(per_class.items()):
            print(f"  {cls:8s} {util:.2f}")
    if program.name.startswith("pbs"):
        print(f"throughput: {128 / report.seconds:,.0f} PBS/s (batch 128)")
    else:
        print(f"throughput: {report.throughput_per_second():,.1f} op/s")
    return 0


def _simulate_mix(args, config) -> int:
    from repro.sim.engine import EventDrivenSimulator

    names = [s.strip() for s in args.mix.split(",") if s.strip()]
    if len(names) < 1:
        print("--mix needs at least one workload name", file=sys.stderr)
        return 2
    programs = _resolve_workloads(names)
    if programs is None:
        return 2
    if args.fuse:
        programs = _fuse_programs(programs)
    priorities = {}
    if args.priorities:
        for entry in args.priorities.split(","):
            key, _, value = entry.partition("=")
            priorities[key.strip()] = int(value or 0)
    engine = EventDrivenSimulator(config)
    mix = engine.run_mix(programs, policy=args.policy, priorities=priorities)
    print(mix.summary())
    return 0


def cmd_trace(args) -> int:
    import json

    from repro.sim.simulator import CycleSimulator
    from repro.telemetry import (
        TraceCollector,
        to_chrome_trace,
        to_csv_text,
        write_chrome_trace,
        write_csv,
    )

    programs = _resolve_workloads([args.workload])
    if programs is None:
        return 2
    collector = TraceCollector()
    sim = CycleSimulator(_config_from_args(args), collector=collector)
    report = sim.run(programs[0])
    if args.output:
        if args.format == "chrome":
            write_chrome_trace(collector, args.output)
        else:
            write_csv(collector, args.output)
        print(f"{report.summary()}")
        print(f"wrote {collector.num_events} events to {args.output} "
              f"({args.format})")
    else:
        if args.format == "chrome":
            print(json.dumps(to_chrome_trace(collector), indent=1,
                             sort_keys=True))
        else:
            print(to_csv_text(collector), end="")
    return 0


def _fail_on_severity(name: str):
    from repro.compiler.verify import Severity

    return Severity[name.upper()]


def cmd_lint(args) -> int:
    import json

    from repro.compiler.verify import (
        KeyResidencyAnalysis,
        NoiseBudgetAnalysis,
        lint_program,
    )

    config = _config_from_args(args)
    programs = _resolve_workloads(args.workloads)
    if programs is None:
        return 2
    analyses = None
    if getattr(args, "noise", False):
        # focused noise-budget run: only the ALC7xx analysis, and always
        # show the ALC704 headroom notes (they are the point)
        analyses = [NoiseBudgetAnalysis()]
        args.notes = True
    if getattr(args, "keys", False):
        # focused evaluation-key run: only the ALC8xx analysis, and
        # always show the inventory/seed-expansion notes (the point)
        analyses = [KeyResidencyAnalysis()]
        args.notes = True
    reports = []
    for program in programs:
        schedule = None
        if args.engine_audit:
            from repro.sim.engine import EventDrivenSimulator

            mix = EventDrivenSimulator(config).run(program)
            schedule = [s for s in mix.schedule
                        if s.tenant == program.name]
        reports.append(lint_program(program, config=config,
                                    analyses=analyses, schedule=schedule))
    if args.json:
        print(json.dumps([r.as_dict() for r in reports], indent=1,
                         sort_keys=True))
    else:
        for report in reports:
            print(report.format(show_notes=args.notes))
    threshold = _fail_on_severity(args.fail_on)
    failing = sum(1 for r in reports for d in r.diagnostics
                  if d.severity >= threshold)
    if failing:
        print(f"lint: {failing} diagnostic(s) at/above "
              f"--fail-on {args.fail_on} across {len(reports)} program(s)",
              file=sys.stderr)
        return 1
    return 0


def _compression_flips(base_report, comp_report):
    """Ops that leave the HBM roof under the compression model."""
    return [
        {"name": comp.label, "from": base.bound, "to": comp.bound}
        for base, comp in zip(base_report.rows, comp_report.rows)
        if base.bound == "hbm" and comp.bound != "hbm"
    ]


def _compression_comparison(base_report, comp_report) -> str:
    base_us = base_report.seconds * 1e6
    comp_us = comp_report.seconds * 1e6
    line = (f"compressed: {comp_report.pipelined_cycles:,.0f} cycles = "
            f"{comp_us:,.1f} us vs {base_us:,.1f} us baseline; bottleneck "
            f"{base_report.bottleneck} -> {comp_report.bottleneck}")
    flips = _compression_flips(base_report, comp_report)
    if flips:
        line += "; flips: " + ", ".join(
            f"{f['name']}({f['from']}->{f['to']})" for f in flips)
    return line


def cmd_analyze(args) -> int:
    import json

    from repro.compiler.cost import differential_check, format_roofline
    from repro.compiler.verify import CostAnalysis, KeyResidencyAnalysis, \
        Linter, NoiseBudgetAnalysis

    config = _config_from_args(args)
    compressed = getattr(args, "compressed", False)
    # --compressed: the baseline report stays for comparison; the linter
    # and the differential check run under the compression model so the
    # ALC605 flips and the static==sim proof cover the compressed path.
    linter = Linter([CostAnalysis(), NoiseBudgetAnalysis(),
                     KeyResidencyAnalysis()],
                    config=config.with_compression() if compressed else config)
    programs = _resolve_workloads(args.workloads)
    if programs is None:
        return 2
    threshold = _fail_on_severity(args.fail_on)
    failing = 0
    check_failures = 0
    json_out = []
    for program in programs:
        # every report comes from the lint run's context, which builds
        # each (program, config) report once
        ctx = linter.context(program)
        lint = linter.run(program, ctx)
        report = ctx.cost_of(program, config)
        comp_report = ctx.cost_of(program) if compressed else None
        failing += sum(1 for d in lint.diagnostics
                       if d.severity >= threshold)
        check = (differential_check(program, ctx.cost_of(program))
                 if args.check else None)
        if check is not None and not check.ok:
            check_failures += 1
        if args.json:
            entry = dict(report.as_dict())
            entry["diagnostics"] = [d.as_dict() for d in lint.diagnostics]
            if comp_report is not None:
                entry["compressed"] = comp_report.as_dict()
                entry["compression_flips"] = _compression_flips(
                    report, comp_report)
            if check is not None:
                entry["check"] = {
                    "ok": check.ok,
                    "exact": check.exact,
                    "engine_within_bounds": check.engine_within_bounds,
                    "engine_makespan": check.engine_makespan,
                    "lower_bound": check.lower_bound,
                    "upper_bound": check.upper_bound,
                    "mismatches": list(check.mismatches),
                }
            json_out.append(entry)
            continue
        print(report.summary())
        if comp_report is not None:
            print("  " + _compression_comparison(report, comp_report))
        if args.per_op:
            print(report.per_op_table())
            if comp_report is not None:
                print("with compression:")
                print(comp_report.per_op_table())
        if args.roofline:
            print(format_roofline(report))
            if comp_report is not None:
                print("with compression:")
                print(format_roofline(comp_report))
        for d in lint.diagnostics:
            print("  " + d.format())
        if check is not None:
            print("  check: " + check.format())
    if args.json:
        print(json.dumps(json_out, indent=1, sort_keys=True))
    if check_failures:
        print(f"analyze: --check failed for {check_failures} program(s)",
              file=sys.stderr)
        return 1
    if failing:
        print(f"analyze: {failing} diagnostic(s) at/above "
              f"--fail-on {args.fail_on}", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args) -> int:
    from repro.telemetry.bench import write_bench_files

    paths = write_bench_files(args.out_dir, _config_from_args(args))
    for stem, path in paths.items():
        print(f"wrote {path}")
    return 0


def cmd_kernels(args) -> int:
    from repro.kernels.bench import main as kernels_main

    forwarded = []
    if args.quick:
        forwarded.append("--quick")
    if args.json:
        forwarded.append("--json")
    if args.output:
        forwarded.extend(["-o", args.output])
    if args.check_floor is not None:
        forwarded.extend(["--check-floor", str(args.check_floor)])
    return kernels_main(forwarded)


def cmd_faults(args) -> int:
    import json

    from repro.sim.faults import (
        CAMPAIGNS,
        POLICY_PRESETS,
        run_campaign,
    )
    from repro.sim.faults.report import campaign_builders

    if args.campaign not in CAMPAIGNS:
        print(f"unknown campaign {args.campaign!r}; try: "
              + ", ".join(CAMPAIGNS), file=sys.stderr)
        return 2
    if args.policy not in POLICY_PRESETS:
        print(f"unknown policy {args.policy!r}; try: "
              + ", ".join(sorted(POLICY_PRESETS)), file=sys.stderr)
        return 2
    builders = campaign_builders()
    names = None
    if args.workloads:
        names = [WORKLOAD_ALIASES.get(n, n) for n in args.workloads]
        unknown = [n for n in names if n not in builders]
        if unknown:
            print("unknown campaign workload(s) "
                  + ", ".join(repr(n) for n in unknown)
                  + "; try: " + ", ".join(sorted(builders)),
                  file=sys.stderr)
            return 2
    doc = run_campaign(
        campaign=args.campaign,
        seed=args.seed,
        policy=POLICY_PRESETS[args.policy],
        config=_config_from_args(args),
        workloads=names,
        include_mix=not args.no_mix,
    )
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    elif args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(f"campaign {args.campaign!r} seed {args.seed} "
              f"policy {args.policy!r}:")
        entries = list(doc["workloads"].values())
        if "mix" in doc:
            entries.append(doc["mix"])
        for entry in entries:
            flags = []
            if entry["retries"]:
                flags.append(f"{entry['retries']} retries")
            if entry["degraded_ops"]:
                flags.append(f"{entry['degraded_ops']} degraded")
            if entry["aborted_tenants"]:
                flags.append(
                    "ABORTED: " + ",".join(entry["aborted_tenants"]))
            suffix = f" ({', '.join(flags)})" if flags else ""
            print(f"  {entry['program']:24s} "
                  f"x{entry['inflation']:.3f} inflation, "
                  f"availability {entry['availability']:.3f}, "
                  f"fairness {entry['fairness']:.3f}{suffix}")
    aborted = any(e["aborted_tenants"]
                  for e in list(doc["workloads"].values())
                  + ([doc["mix"]] if "mix" in doc else []))
    return 1 if aborted else 0


def cmd_serve(args) -> int:
    import json

    from repro.serve import PROFILES, run_serving
    from repro.serve.admission import ADMISSION_MODES

    if args.admission not in ADMISSION_MODES:
        print(f"unknown admission mode {args.admission!r}; try: "
              + ", ".join(ADMISSION_MODES), file=sys.stderr)
        return 2
    profiles = None
    if args.profile:
        unknown = [p for p in args.profile if p not in PROFILES]
        if unknown:
            print("unknown profile(s) "
                  + ", ".join(repr(p) for p in unknown)
                  + "; try: " + ", ".join(PROFILES), file=sys.stderr)
            return 2
        profiles = args.profile
    try:
        rates = tuple(float(r) for r in args.rate.split(",") if r.strip())
    except ValueError:
        print(f"--rate expects comma-separated numbers, got {args.rate!r}",
              file=sys.stderr)
        return 2
    if not rates or not all(0 < r < math.inf for r in rates):
        print(f"--rate needs finite positive rates, got {args.rate!r}",
              file=sys.stderr)
        return 2
    if args.requests < 1:
        print("--requests must be at least 1", file=sys.stderr)
        return 2
    serve_config = _config_from_args(args)
    if getattr(args, "compressed", False):
        serve_config = serve_config.with_compression()
    try:
        doc = run_serving(
            seed=args.seed,
            profiles=profiles,
            rates=rates,
            n_requests=args.requests,
            admission_mode=args.admission,
            config=serve_config,
        )
    except ValueError as exc:    # a rate so low its arrival instants overflow
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    elif args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(f"serving seed {args.seed} admission {args.admission!r} "
              f"({args.requests} requests/point):")
        for name, entry in doc["profiles"].items():
            for point in entry["sweep"]:
                flags = []
                if point["shed"]:
                    flags.append(f"{point['shed']} shed")
                if point["degraded"]:
                    flags.append(f"{point['degraded']} degraded")
                if point["sla_violations"]:
                    flags.append(f"{point['sla_violations']} SLA misses")
                suffix = f" ({', '.join(flags)})" if flags else ""
                print(f"  {name:8s} @{point['rate_rps']:10,.0f} rps: "
                      f"goodput {point['goodput_rps']:10,.0f} rps, "
                      f"p50 {point['p50_us']:8,.0f} us, "
                      f"p99 {point['p99_us']:8,.0f} us, "
                      f"{point['num_batches']:4d} batches "
                      f"(occ {point['mean_occupancy']:.1f}){suffix}")
    total_shed = sum(point["shed"]
                     for entry in doc["profiles"].values()
                     for point in entry["sweep"])
    return 1 if total_shed else 0


def cmd_table7(args) -> int:
    from repro.analysis.report import format_table
    from repro.baselines.published import TABLE7_BASELINES
    from repro.sim.simulator import CycleSimulator

    sim = CycleSimulator(_config_from_args(args))
    workloads = _workloads()
    rows = []
    for op in ("pmult", "hadd", "keyswitch", "cmult", "rotation"):
        report = sim.run(workloads[op])
        paper = TABLE7_BASELINES[op.capitalize()]["Alchemist_paper"]
        rows.append([op, f"{report.throughput_per_second():,.0f}",
                     f"{paper:,}", report.bottleneck])
    print(format_table(
        ["op", "sim (op/s)", "paper (op/s)", "bound"], rows,
        title="Table 7: basic operator throughput"))
    return 0


def cmd_ratios(args) -> int:
    from repro.analysis.opcount import figure1_workloads, operator_ratio
    from repro.analysis.report import format_ratio_bar
    from repro.sim.simulator import CycleSimulator

    sim = CycleSimulator(_config_from_args(args))
    for name, prog in figure1_workloads().items():
        print(f"{name:20s} {format_ratio_bar(operator_ratio(prog, sim))}")
    return 0


def cmd_report(args) -> int:
    from repro.analysis.summary import generate_report

    print(generate_report())
    return 0


def cmd_utilization(args) -> int:
    from repro.analysis.opcount import figure1_workloads
    from repro.analysis.report import format_table
    from repro.analysis.utilization import utilization_comparison

    table = utilization_comparison(figure1_workloads())
    designs = ("Alchemist", "SHARP", "CraterLake", "F1")
    rows = [
        [name] + [f"{row[d]:.2f}" for d in designs]
        for name, row in table.items()
    ]
    print(format_table(["workload", *designs], rows,
                       title="Overall hardware utilization (Figure 1)"))
    return 0


def _positive(kind):
    """An argparse type: a finite ``kind`` number above zero (NaN,
    infinity and an int with no finite float value are not)."""
    def parse(text: str):
        value = kind(text)
        try:
            finite = 0 < float(value) < math.inf
        except OverflowError:           # an int beyond float range
            finite = False
        if not finite:
            raise argparse.ArgumentTypeError(
                f"must be positive and finite, got {text}")
        return value

    parse.__name__ = kind.__name__      # argparse's "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Alchemist (DAC 2024) reproduction toolkit",
    )
    parser.add_argument(
        "--kernel-backend", choices=("numpy", "reference"),
        default=None,
        help="kernel backend for the functional hot paths (default: "
             "$REPRO_KERNEL_BACKEND or the batched numpy backend)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_hw_args(p):
        p.add_argument("--units", type=_positive(int),
                       help="computing units (128)")
        p.add_argument("--hbm-gbps", type=_positive(float),
                       help="HBM bandwidth (1000)")

    add_hw_args(sub.add_parser("info", help="architecture summary"))
    sub.add_parser("workloads", help="list workload names")
    sim_p = sub.add_parser("simulate",
                           help="simulate one workload or a tenant mix")
    sim_p.add_argument("workload", nargs="?",
                       help="workload name (omit when using --mix)")
    sim_p.add_argument("--mix",
                       help="comma-separated workloads to co-schedule, e.g. "
                            "ckks-bootstrap,tfhe-pbs")
    sim_p.add_argument("--policy", choices=("fcfs", "round-robin", "priority"),
                       default="fcfs", help="mix dispatch policy")
    sim_p.add_argument("--priorities",
                       help="tenant priorities as name=N[,name=N...] "
                            "(tenant names as printed in the mix summary)")
    sim_p.add_argument("--engine", action="store_true",
                       help="also run the event-driven dependency scheduler")
    sim_p.add_argument("--fuse", action="store_true",
                       help="apply the elementwise-fusion pass first")
    add_hw_args(sim_p)
    add_hw_args(sub.add_parser("table7", help="basic-operator table"))
    add_hw_args(sub.add_parser("ratios", help="operator-ratio bars"))
    sub.add_parser("utilization", help="cross-design utilization table")
    sub.add_parser("report", help="live paper-vs-measured markdown report")
    trace_p = sub.add_parser("trace", help="export a cycle trace")
    trace_p.add_argument("workload")
    trace_p.add_argument("--format", choices=("chrome", "csv"),
                         default="chrome", help="output format")
    trace_p.add_argument("-o", "--output", help="output file (default stdout)")
    add_hw_args(trace_p)
    bench_p = sub.add_parser("bench", help="write BENCH_*.json files")
    bench_p.add_argument("--out-dir", default=".",
                         help="directory for BENCH_table7.json/BENCH_fig6.json")
    add_hw_args(bench_p)
    kern_p = sub.add_parser(
        "kernels",
        help="benchmark the kernel backends (batched numpy vs per-limb "
             "reference) and check bit-identity")
    kern_p.add_argument("--quick", action="store_true",
                        help="short chain + short timing windows (CI smoke)")
    kern_p.add_argument("--json", action="store_true",
                        help="print the full JSON document")
    kern_p.add_argument("-o", "--output",
                        help="write BENCH_kernels.json-style output here")
    kern_p.add_argument("--check-floor", type=_positive(float), default=None,
                        help="fail unless the gated ops (ntt_forward, "
                             "cmult_rescale) clear this speedup")
    faults_p = sub.add_parser(
        "faults",
        help="run a seeded fault-injection campaign over the workloads")
    faults_p.add_argument("workloads", nargs="*",
                          help="campaign workload names (default: the "
                               "standard sweep)")
    faults_p.add_argument("--campaign", default="default",
                          help="campaign preset: default, hbm, dropout, "
                               "transient, scratchpad, storm, none")
    faults_p.add_argument("--seed", type=int, default=0,
                          help="campaign seed (default: 0)")
    faults_p.add_argument("--policy", default="retry-degrade",
                          help="resilience policy: retry-degrade, "
                               "retry-abort, fail-fast, patient")
    faults_p.add_argument("--json", action="store_true",
                          help="print the full campaign JSON document")
    faults_p.add_argument("-o", "--output",
                          help="write the campaign JSON to this file")
    faults_p.add_argument("--no-mix", action="store_true",
                          help="skip the cross-scheme tenant mix")
    add_hw_args(faults_p)
    serve_p = sub.add_parser(
        "serve",
        help="replay seeded FHE-as-a-service traffic with slot batching")
    serve_p.add_argument("--profile", action="append",
                         help="traffic profile: steady, diurnal, storm "
                              "(repeatable; default: all)")
    serve_p.add_argument("--seed", type=int, default=0,
                         help="traffic seed (default: 0)")
    serve_p.add_argument("--rate", default="500,2000,8000",
                         help="offered load sweep in requests/s, "
                              "comma-separated (default: 500,2000,8000)")
    serve_p.add_argument("--requests", type=int, default=400,
                         help="requests per (profile, rate) point "
                              "(default: 400)")
    serve_p.add_argument("--admission", default="degrade",
                         help="overload response: degrade (admit into a "
                              "looser SLA class) or shed (reject)")
    serve_p.add_argument("--json", action="store_true",
                         help="print the full serving JSON document")
    serve_p.add_argument("-o", "--output",
                         help="write the serving JSON to this file")
    serve_p.add_argument("--compressed", action="store_true",
                         help="serve with seed-expanded keys / compressed "
                              "HBM transfers (CompressionModel defaults)")
    add_hw_args(serve_p)

    def add_fail_on(p):
        p.add_argument("--fail-on", choices=("error", "warning", "note"),
                       default="error",
                       help="lowest severity that causes exit code 1 "
                            "(default: error)")

    lint_p = sub.add_parser("lint",
                            help="statically verify workload programs")
    lint_p.add_argument("workloads", nargs="*",
                        help="workload names (default: all)")
    lint_p.add_argument("--json", action="store_true",
                        help="machine-readable diagnostic output")
    lint_p.add_argument("--notes", action="store_true",
                        help="also show advisory notes (spill predictions, "
                             "dead values)")
    lint_p.add_argument("--engine-audit", action="store_true",
                        help="also hazard-audit the event-driven schedule")
    lint_p.add_argument("--noise", action="store_true",
                        help="run only the noise-budget analysis (ALC7xx) "
                             "and show per-program headroom notes")
    lint_p.add_argument("--keys", action="store_true",
                        help="run only the evaluation-key residency "
                             "analysis (ALC8xx) and show the key "
                             "inventory / seed-expansion notes")
    add_fail_on(lint_p)
    add_hw_args(lint_p)
    analyze_p = sub.add_parser(
        "analyze",
        help="static cost & roofline analysis (no simulation)")
    analyze_p.add_argument("workloads", nargs="*",
                           help="workload names (default: all)")
    analyze_p.add_argument("--json", action="store_true",
                           help="machine-readable cost report output")
    analyze_p.add_argument("--per-op", action="store_true",
                           help="print the per-op cost table")
    analyze_p.add_argument("--roofline", action="store_true",
                           help="print roofline placement per op")
    analyze_p.add_argument("--check", action="store_true",
                           help="differentially validate static totals "
                                "against the cycle simulator and engine")
    analyze_p.add_argument("--compressed", action="store_true",
                           help="compare against the default "
                                "CompressionModel: seed-expanded key "
                                "transfers at half the bytes plus an "
                                "on-chip expansion charge (ALC605 marks "
                                "hbm->compute flips)")
    add_fail_on(analyze_p)
    add_hw_args(analyze_p)
    return parser


COMMANDS = {
    "info": cmd_info,
    "workloads": cmd_workloads,
    "simulate": cmd_simulate,
    "table7": cmd_table7,
    "ratios": cmd_ratios,
    "utilization": cmd_utilization,
    "report": cmd_report,
    "trace": cmd_trace,
    "bench": cmd_bench,
    "kernels": cmd_kernels,
    "faults": cmd_faults,
    "serve": cmd_serve,
    "lint": cmd_lint,
    "analyze": cmd_analyze,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.kernel_backend is not None:
        from repro.kernels import set_backend

        set_backend(args.kernel_backend)
    try:
        return COMMANDS[args.command](args)
    except BrokenPipeError:
        # stdout closed early (e.g. piped into `head`) — not an error
        return 0


if __name__ == "__main__":
    sys.exit(main())
