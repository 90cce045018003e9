"""Child process of the runner: one workload in a fresh interpreter.

The set-up clock starts just before the library is first imported, so
``setup_s`` covers the library's imports, prime generation, key
generation, program builds and the warm-up requests.  It is scaled to
the reference host speed by the mean of the probe medians taken just
before and just after it.  The child then measures for ``--seconds``
and prints its result, with every request's latency, as one JSON line
after :data:`MARKER` on standard output.

Run by the runner as ``python -m benchmarks.e2e.child --workload W
--seed S --seconds T --warmup K [--part P --parts N] [--trace-dir DIR]``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

MARKER = "E2E-RESULT "


def _window_doc(window) -> dict:
    return {"elapsed_s": window.elapsed_s,
            "samples": [[s.index, s.seconds, s.ok, s.error, s.probe_s]
                        for s in window.samples]}


def _traced(session, args) -> dict:
    """Half the window untraced, then half traced; the two p50s give the
    tracing overhead."""
    from benchmarks.e2e.tracer import Tracer, layer_table

    half = args.seconds / 2
    plain = session.measure(half)
    tracer = Tracer()
    with tracer.installed():
        traced = session.measure(half, tracer)
    overhead = (traced.metrics()["latency_ms.p50"]
                / plain.metrics()["latency_ms.p50"] - 1.0)
    per_layer = tracer.per_layer(overhead)
    out_dir = Path(args.trace_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}"
    with open(out_dir / f"{stem}.trace.json", "w") as fh:
        json.dump(tracer.chrome_trace(), fh)
    (out_dir / f"{stem}.layers.txt").write_text(
        layer_table(per_layer, tracer.missing))
    return {"window": _window_doc(plain), "traced_window": _window_doc(traced),
            "per_layer": per_layer, "trace_missing": tracer.missing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--warmup", type=int, required=True)
    parser.add_argument("--trace-dir")
    parser.add_argument("--part", type=int, default=0,
                        help="this child measures request indices "
                             "warmup+part, warmup+part+parts, ...")
    parser.add_argument("--parts", type=int, default=1)
    args = parser.parse_args(argv)

    from benchmarks.e2e.session import Session, peak_rss_mb
    from benchmarks.e2e.speed import probe_median, scaled

    before = probe_median()
    start = time.perf_counter()
    session = Session(args.workload, args.seed, args.warmup)
    setup_wall_s = time.perf_counter() - start
    setup_probe_s = (before + probe_median()) / 2
    result = {"setup_s": scaled(setup_wall_s, setup_probe_s),
              "setup_wall_s": setup_wall_s,
              "setup_probe_s": setup_probe_s,
              "warmup_ok": session.warmup_ok}

    import numpy
    from repro.kernels import get_backend

    result["numpy"] = numpy.__version__
    if args.trace_dir:
        result.update(_traced(session, args))
    else:
        session.next_index += args.part
        result["window"] = _window_doc(
            session.measure(args.seconds, step=args.parts))
    result["modeled"] = session.modeled()
    result["kernel_backend"] = get_backend().name
    result["peak_rss_mb"] = peak_rss_mb()
    print(MARKER + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
