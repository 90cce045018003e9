"""Kernel-backend throughput benchmark: batched numpy vs per-limb reference.

This module is the producer of the committed ``BENCH_kernels.json`` golden.
It times every hot-path kernel — forward/inverse NTT, pointwise multiply,
Bconv, Modup, Moddown, rescale — plus three end-to-end composites (a full
CKKS Cmult+rescale, one TFHE gate bootstrap, and a batch of
``PBS_BATCH`` gate bootstraps in one blind-rotation pass) under the
per-limb ``reference`` backend and the limb-batched ``numpy`` backend, on
the same seeded inputs, and records ops/sec (gates/sec for the PBS
entries), the speedup ratio, and whether the two backends produced
bit-identical outputs.

Timing: every op runs ``PAPER_LOOPS`` timed loops per backend (each at
least one second long; ``QUICK_LOOPS`` shorter ones in ``--quick`` mode),
alternating reference and batched loops so a change in host speed moves
both sides alike.  Each rate is the median over the loops, reported with
its interquartile range; the speedup is the ratio of the two medians, and
the floors are gated on it.

Scale: the paper's RNS-CKKS chain (L = 44 levels, dnum = 4, i.e. 45 base +
12 special primes) at a reduced ring degree.  Ring degree scales both
backends identically — the batching win is across the *limb* axis — so the
speedup floors stay meaningful while the bench runs in seconds rather than
hours.  Absolute ops/sec are machine-dependent; the drift gate
(``benchmarks/check_bench_drift.py``) therefore validates the committed
golden's *invariants* (schema, op coverage, bit-identity, speedup floors),
not the raw timings.

Run ``python -m repro.kernels.bench -o BENCH_kernels.json`` (or
``repro kernels -o BENCH_kernels.json``) to regenerate the golden.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels import backend_scope, get_backend

SCHEMA = "alchemist-bench/kernels/v2"

#: Paper chain (L = 44, dnum = 4 -> 45 base + 12 special primes) at a
#: reduced ring degree.
PAPER_SCALE: Dict[str, int] = {"n": 256, "num_levels": 44, "dnum": 4}

#: CI smoke scale: a short chain so the whole sweep stays under a minute.
QUICK_SCALE: Dict[str, int] = {"n": 256, "num_levels": 8, "dnum": 2}

#: Timed loops per backend and op, and each loop's minimum length (s).
PAPER_LOOPS, PAPER_LOOP_SECONDS = 7, 1.0
QUICK_LOOPS, QUICK_LOOP_SECONDS = 3, 0.2

#: Ops whose batched/reference speedup the drift gate enforces.  The
#: committed paper-scale golden must clear ``PAPER_SPEEDUP_FLOOR``; fresh
#: quick-mode runs on shared CI machines use a lower ``--check-floor``.
GATED_OPS: Tuple[str, ...] = ("ntt_forward", "cmult_rescale")
PAPER_SPEEDUP_FLOOR = 5.0

#: Gates per blind-rotation pass in the ``pbs_batch`` entry, and the
#: per-gate throughput that pass must reach over one-gate ``pbs`` (the
#: gain comes from batching ciphertexts, not limbs, so it is gated
#: against ``pbs`` rather than against the reference backend).
PBS_BATCH = 32
PBS_BATCH_FLOOR = 1.5

#: Every op a well-formed kernels golden must report.
REQUIRED_OPS: Tuple[str, ...] = (
    "ntt_forward",
    "ntt_inverse",
    "pointwise_mul",
    "bconv",
    "modup",
    "moddown",
    "rescale",
    "cmult_rescale",
    "pbs",
    "pbs_batch",
)

_SEED = 0xA1C


def _loop_rate(fn: Callable[[], Any], min_time: float) -> float:
    """Calls/sec of ``fn`` over one loop of at least ``min_time`` seconds."""
    start = time.perf_counter()
    calls = 0
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_time:
            return calls / elapsed


def _median_iqr(rates: List[float]) -> Tuple[float, List[float]]:
    """Median of ``rates`` and its interquartile range ``[q1, q3]``."""
    q1, median, q3 = statistics.quantiles(rates, n=4, method="inclusive")
    return median, [q1, q3]


def _measure(
    run: Callable[[], Any],
    outputs_equal: Callable[[Any, Any], bool],
    *,
    loops: int,
    min_time: float,
    items: int = 1,
) -> Dict[str, Any]:
    """One op entry: run under both backends, time each, compare outputs.
    The first call per backend is the warm-up and gives the compared
    output; then ``loops`` timed loops per backend alternate.  Rates count
    ``items`` ops per call of ``run``."""
    outputs: Dict[str, Any] = {}
    for name in ("reference", "numpy"):
        with backend_scope(name):
            outputs[name] = run()
    rates: Dict[str, List[float]] = {"reference": [], "numpy": []}
    for _ in range(loops):
        for name in ("reference", "numpy"):
            with backend_scope(name):
                rates[name].append(items * _loop_rate(run, min_time))
    ref, ref_iqr = _median_iqr(rates["reference"])
    bat, bat_iqr = _median_iqr(rates["numpy"])
    return {
        "reference_ops_per_s": ref,
        "reference_iqr": ref_iqr,
        "batched_ops_per_s": bat,
        "batched_iqr": bat_iqr,
        "speedup": bat / ref,
        "bit_identical": bool(
            outputs_equal(outputs["reference"], outputs["numpy"])),
    }


def _arrays_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.array_equal(a, b))


def _ckks_stack(scale: Dict[str, int]) -> Tuple[Any, Any]:
    """(evaluator, ciphertext) for the Cmult composite at ``scale``."""
    from repro.ckks.encoder import CKKSEncoder
    from repro.ckks.encryptor import CKKSEncryptor
    from repro.ckks.evaluator import CKKSEvaluator
    from repro.ckks.keys import CKKSKeyGenerator
    from repro.ckks.params import CKKSParams

    rng = np.random.default_rng(_SEED)
    params = CKKSParams(
        n=scale["n"], num_levels=scale["num_levels"], dnum=scale["dnum"]
    )
    encoder = CKKSEncoder(params.n, params.scale)
    keygen = CKKSKeyGenerator(params, rng)
    # Switching keys are formed on first use: the Cmult forms only the
    # top level's.
    relin = keygen.relin_key()
    encryptor = CKKSEncryptor(
        params, encoder, rng, secret_key=keygen.secret_key()
    )
    evaluator = CKKSEvaluator(params, encoder, relin_key=relin)
    ct = encryptor.encrypt_values(rng.normal(size=params.slots))
    return evaluator, ct


def bench_kernels(quick: bool = False) -> Dict[str, Any]:
    """Run the full sweep; returns the ``BENCH_kernels.json`` document."""
    from repro.ckks.params import CKKSParams
    from repro.tfhe.bootstrap import BootstrapKit
    from repro.tfhe.lwe import LweSample
    from repro.tfhe.params import TEST_PARAMS
    from repro.tfhe.torus import TORUS_MODULUS

    scale = QUICK_SCALE if quick else PAPER_SCALE
    loops, min_time = ((QUICK_LOOPS, QUICK_LOOP_SECONDS) if quick
                       else (PAPER_LOOPS, PAPER_LOOP_SECONDS))
    measure = partial(_measure, loops=loops, min_time=min_time)
    n = scale["n"]
    params = CKKSParams(
        n=n, num_levels=scale["num_levels"], dnum=scale["dnum"]
    )
    base: Tuple[int, ...] = tuple(params.base_primes)
    special: Tuple[int, ...] = tuple(params.special_primes)
    full = base + special
    digit: Tuple[int, ...] = tuple(params.digits_at_level(params.num_levels)[0])
    complement = tuple(q for q in full if q not in digit)

    rng = np.random.default_rng(_SEED)

    def residues(primes: Sequence[int]) -> np.ndarray:
        cols = [rng.integers(0, q, n, dtype=np.uint64) for q in primes]
        return np.stack(cols)

    x_full = residues(full)
    x_base = residues(base)
    x_digit = residues(digit)
    spectrum = get_backend().ntt_forward(x_full, full)

    ops: Dict[str, Dict[str, Any]] = {}
    ops["ntt_forward"] = measure(
        lambda: get_backend().ntt_forward(x_full, full),
        _arrays_equal,
    )
    ops["ntt_inverse"] = measure(
        lambda: get_backend().ntt_inverse(spectrum, full),
        _arrays_equal,
    )
    ops["pointwise_mul"] = measure(
        lambda: get_backend().pointwise_mul(spectrum, spectrum, full),
        _arrays_equal,
    )
    ops["bconv"] = measure(
        lambda: get_backend().bconv(x_base, base, special),
        _arrays_equal,
    )
    ops["modup"] = measure(
        lambda: get_backend().modup(x_digit, digit, complement),
        _arrays_equal,
    )
    ops["moddown"] = measure(
        lambda: get_backend().moddown(x_full, base, special),
        _arrays_equal,
    )
    ops["rescale"] = measure(
        lambda: get_backend().rescale(x_base, base),
        _arrays_equal,
    )

    evaluator, ct = _ckks_stack(scale)

    def ct_equal(a: Any, b: Any) -> bool:
        return all(
            np.array_equal(pa.data, pb.data)
            for pa, pb in zip(a.parts, b.parts)
        )

    ops["cmult_rescale"] = measure(
        lambda: evaluator.multiply_rescale(ct, ct), ct_equal
    )

    # TFHE gate bootstrap: at TEST_PARAMS the torus NTT transforms the
    # digit rows on one prime (the numpy backend as one dense float64
    # product, the reference backend through the butterflies), against a
    # key held as two 16-bit halves (repro.tfhe.polymul), so limb
    # batching wins little by construction — reported for coverage,
    # never floor-gated.
    # Batching across ciphertexts is what pays: ``pbs_batch`` refreshes
    # PBS_BATCH gates in one pass and is gated against ``pbs`` per gate.
    kit = BootstrapKit(TEST_PARAMS, np.random.default_rng(_SEED))
    mu = TORUS_MODULUS // 8
    sample = kit.encrypt(mu)
    batch = LweSample.stack([kit.encrypt(mu if i % 2 else -mu)
                             for i in range(PBS_BATCH)])

    def lwe_equal(a: Any, b: Any) -> bool:
        return bool(np.array_equal(a.a, b.a) and np.array_equal(a.b, b.b))

    ops["pbs"] = measure(
        lambda: kit.gate_bootstrap(sample, mu), lwe_equal
    )
    ops["pbs_batch"] = measure(
        lambda: kit.gate_bootstrap(batch, mu), lwe_equal, items=PBS_BATCH,
    )

    return {
        "schema": SCHEMA,
        "mode": "quick" if quick else "paper",
        "config": {
            "n": n,
            "num_levels": scale["num_levels"],
            "dnum": scale["dnum"],
            "base_primes": len(base),
            "special_primes": len(special),
            "loops": loops,
            "loop_seconds": min_time,
            "pbs_params": {
                "lwe_dim": TEST_PARAMS.lwe_dim,
                "ring_degree": TEST_PARAMS.ring_degree,
                "batch": PBS_BATCH,
            },
        },
        "ops": ops,
    }


def check_floors(doc: Dict[str, Any], floor: float) -> List[str]:
    """Invariant violations in a kernels document (empty list = clean).

    Every floor is gated on the median rates.  A ``floor`` that is not
    positive and finite raises :class:`ValueError`: no speedup fails it.
    """
    if not 0 < floor < math.inf:
        raise ValueError(f"speedup floor must be positive and finite, got "
                         f"{floor!r}")
    problems: List[str] = []
    ops = doc.get("ops", {})
    for name in REQUIRED_OPS:
        if name not in ops:
            problems.append(f"missing op {name!r}")
            continue
        entry = ops[name]
        if entry.get("bit_identical") is not True:
            problems.append(f"{name}: backends are not bit-identical")
        ref = entry.get("reference_ops_per_s", 0)
        bat = entry.get("batched_ops_per_s", 0)
        if not (ref > 0 and bat > 0):
            problems.append(f"{name}: non-positive throughput")
            continue
        ratio = bat / ref
        if abs(entry.get("speedup", 0.0) - ratio) > 1e-6 * ratio:
            problems.append(
                f"{name}: speedup field {entry.get('speedup')!r} does not "
                f"equal batched/reference = {ratio!r}"
            )
        for side, median in (("reference", ref), ("batched", bat)):
            iqr = entry.get(f"{side}_iqr")
            if not (isinstance(iqr, list) and len(iqr) == 2
                    and iqr[0] <= median <= iqr[1]):
                problems.append(
                    f"{name}: {side}_iqr {iqr!r} does not bracket the "
                    f"median {median!r}"
                )
    for name in GATED_OPS:
        entry = ops.get(name)
        if entry and entry.get("speedup", 0.0) < floor:
            problems.append(
                f"{name}: speedup {entry['speedup']:.2f}x below the "
                f"{floor:g}x floor"
            )
    single, batched = ops.get("pbs"), ops.get("pbs_batch")
    if single and batched and single.get("batched_ops_per_s", 0) > 0:
        gain = (batched.get("batched_ops_per_s", 0)
                / single["batched_ops_per_s"])
        if gain < PBS_BATCH_FLOOR:
            problems.append(
                f"pbs_batch: {gain:.2f}x the per-gate throughput of pbs, "
                f"below the {PBS_BATCH_FLOOR:g}x floor"
            )
    return problems


def _print_table(doc: Dict[str, Any]) -> None:
    cfg = doc["config"]
    print(
        f"kernel throughput (mode={doc['mode']}, n={cfg['n']}, "
        f"L={cfg['num_levels']}, dnum={cfg['dnum']}, "
        f"{cfg['base_primes']}+{cfg['special_primes']} primes; medians of "
        f"{cfg['loops']} loops per backend, IQR in brackets)"
    )
    print(
        f"  {'op':14s} {'reference/s':>29s} {'batched/s':>29s} "
        f"{'speedup':>8s}  bit-identical"
    )
    for name in REQUIRED_OPS:
        e = doc["ops"][name]
        cols = [
            f"{e[f'{side}_ops_per_s']:9.2f} [{lo:7.1f}, {hi:7.1f}]"
            for side in ("reference", "batched")
            for lo, hi in [e[f"{side}_iqr"]]
        ]
        print(
            f"  {name:14s} {cols[0]:>29s} {cols[1]:>29s} "
            f"{e['speedup']:7.2f}x  {e['bit_identical']}"
        )


def _speedup_floor(text: str) -> float:
    """An argparse type: a ``--check-floor`` above zero and finite."""
    floor = float(text)
    if not 0 < floor < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {text}")
    return floor


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="short chain + short timing windows (CI smoke)")
    parser.add_argument("--json", action="store_true",
                        help="print the full JSON document")
    parser.add_argument("-o", "--output",
                        help="write the JSON document to this file")
    parser.add_argument("--check-floor", type=_speedup_floor, default=None,
                        help="fail unless the gated ops clear this speedup")
    args = parser.parse_args(argv)

    doc = bench_kernels(quick=args.quick)
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    elif args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        _print_table(doc)

    if args.check_floor is not None:
        problems = check_floors(doc, args.check_floor)
        for problem in problems:
            print(f"FAIL kernels: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(f"OK    kernels: gated ops clear {args.check_floor:g}x, "
              f"pbs_batch clears {PBS_BATCH_FLOOR:g}x pbs per gate, "
              f"and all outputs are bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
