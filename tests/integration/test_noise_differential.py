"""Differential validation of the static noise-budget verifier (ALC7xx).

The verifier (:mod:`repro.compiler.verify.noise`) claims a one-sided
contract: a program it calls clean must decrypt on the real stacks.  This
harness enforces that contract per scheme with a corpus of circuits
straddling the budget boundary — each circuit exists twice, as an
annotated operator-IR program (what the verifier sees) and as a real
CKKS/BFV/TFHE execution (what actually happens), built from the *same*
parameters:

* **zero false negatives** — every circuit the verifier passes
  (headroom > 0) decrypts correctly on the real scheme;
* **the error is reachable** — at least one circuit per scheme is both
  statically rejected (``ALC701``) and *really* fails to decrypt, so the
  rejection is not pure pessimism;
* **bounded, reported conservatism** — the static headroom never
  undershoots the measured headroom by more than a per-scheme pessimism
  budget (the price of worst-case value bounds, z-sigma tails, and
  max-combine transfer functions).
"""

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np
import pytest

from repro.bfv.encoder import BFVEncoder
from repro.bfv.params import BFVParams
from repro.bfv.scheme import (
    BFVDecryptor,
    BFVEncryptor,
    BFVEvaluator,
    BFVKeyGenerator,
)
from repro.compiler.ops import HighLevelOp, OpKind, Program
from repro.compiler.verify import Linter, NoiseBudgetAnalysis
from repro.compiler.verify.noise import noise_domain
from repro.tfhe.lwe import LweKey, lwe_decrypt_phase, lwe_encrypt
from repro.tfhe.params import TEST_PARAMS

TORUS = 1 << 32

#: Maximum tolerated pessimism (measured headroom - static headroom) in
#: bits, per scheme.  These bound the *price* of the one-sided model:
#: worst-case value bounds and z-sigma tails for CKKS, 6-sigma expansion
#: bounds for BFV, and the exponential (weight ** depth) vs. linear
#: (depth * var) lincomb combine for TFHE.
MAX_PESSIMISM_BITS = {"ckks": 26.0, "bfv": 45.0, "tfhe": 26.0}

#: Slack on the soundness direction: measured headroom may sit this far
#: *below* static headroom only through measurement granularity (a single
#: max-of-draws realization vs. the z-sigma prediction), never more.
SOUNDNESS_SLACK_BITS = 1.0


def _centered(x: int) -> int:
    """Torus32 value mapped to the centered representative."""
    return ((int(x) + (1 << 31)) % TORUS) - (1 << 31)


def _chain_program(name: str, meta: dict,
                   steps: List[Tuple[OpKind, Optional[str], int]],
                   poly_degree: int = 512) -> Program:
    """A linear chain of single-output ops with the given noise roles.

    ``steps`` holds ``(kind, role, extra_inputs)`` tuples; extra inputs
    are fresh external values (the verifier seeds them at the domain's
    fresh state), which is how ct+ct adds enter the chain.
    """
    prog = Program(name, poly_degree=poly_degree,
                   description="noise-differential corpus circuit",
                   inputs=("x0",), metadata={"noise": meta})
    cur = "x0"
    ext = 0
    for i, (kind, role, extra) in enumerate(steps):
        uses = [cur]
        for _ in range(extra):
            uses.append(f"ext{ext}")
            ext += 1
        label = f"s{i}.{role or kind.name.lower()}"
        prog.add(HighLevelOp(kind, label, poly_degree=poly_degree,
                             channels=1, polys=2,
                             defs=(label,), uses=tuple(uses), role=role))
        cur = label
    return prog


@dataclass
class Record:
    """One corpus circuit, judged statically and on the real scheme."""

    name: str
    static_bits: float
    measured_bits: float
    real_ok: bool

    @property
    def static_ok(self) -> bool:
        return self.static_bits > 0.0


def _assert_corpus_contract(scheme: str, records: List[Record]) -> None:
    """The three corpus-level guarantees, with readable failure output."""
    assert len(records) >= 20, f"{scheme}: corpus too small ({len(records)})"
    false_negatives = [r for r in records if r.static_ok and not r.real_ok]
    assert not false_negatives, (
        f"{scheme}: verifier passed circuits that failed to decrypt: "
        + "; ".join(f"{r.name} (static {r.static_bits:.1f} bits)"
                    for r in false_negatives))
    for r in records:
        if not r.real_ok:
            # past the cliff the measured error is modulus-wrap garbage
            # (orders of magnitude beyond any noise model); the FN check
            # above is the only meaningful contract for failed circuits
            continue
        assert r.measured_bits >= r.static_bits - SOUNDNESS_SLACK_BITS, (
            f"{scheme}:{r.name}: static model underestimates error "
            f"(static {r.static_bits:.1f} vs measured "
            f"{r.measured_bits:.1f} bits)")
    demonstrators = [r for r in records
                     if r.static_bits <= 0.0 and not r.real_ok]
    assert demonstrators, (
        f"{scheme}: no circuit is both statically rejected and really "
        f"failing — the ALC701 error is never demonstrated reachable")
    # conservatism is only well-defined where the circuit really decrypts
    # (a failed circuit's "measured headroom" is nearest-lattice-point
    # distance to the *wrong* message — garbage on both axes)
    decrypting = [r for r in records if r.real_ok]
    worst = max(decrypting, key=lambda r: r.measured_bits - r.static_bits)
    pessimism = worst.measured_bits - worst.static_bits
    assert pessimism <= MAX_PESSIMISM_BITS[scheme], (
        f"{scheme}: conservatism exceeded the reported budget: "
        f"{pessimism:.1f} bits at {worst.name} "
        f"(static {worst.static_bits:.1f}, measured "
        f"{worst.measured_bits:.1f}, budget "
        f"{MAX_PESSIMISM_BITS[scheme]:.1f})")


def _assert_alc701(program: Program) -> None:
    report = Linter([NoiseBudgetAnalysis()]).run(program)
    assert any(d.code == "ALC701" for d in report.diagnostics), (
        f"{program.name}: expected ALC701 from the noise lint")


# ------------------------------- CKKS ----------------------------------- #


def _ckks_meta(stack, value_bound: float, pt_bound: float,
               tolerance: float) -> dict:
    p = stack.params
    return {
        "scheme": "ckks", "n": p.n, "scale_bits": p.scale_bits,
        "sigma": p.error_std, "hamming_weight": p.hamming_weight,
        "dnum": p.dnum, "num_levels": p.num_levels,
        "first_prime_bits": p.first_prime_bits,
        "value_bound": value_bound, "pt_bound": pt_bound,
        "tolerance": tolerance,
    }


#: (kind, depth, pt_bound, tolerance) — pmult chains sweep depth x
#: plaintext magnitude; squares/adds/rotates cover the other transfer
#: functions.  The (pmult, 3+, 256) rows and the 1e-4-tolerance row are
#: the boundary: statically rejected, and the 256-chains really fail.
CKKS_CORPUS = (
    [("pmult", k, pb, 0.05) for k in (1, 2, 3, 4) for pb in (1.0, 16.0)]
    + [("pmult", k, 256.0, 0.05) for k in (1, 2, 3, 4)]
    + [("pmult", 2, 1.0, 1e-4)]
    + [("square", k, 1.0, 0.05) for k in (1, 2, 3)]
    + [("add", j, 1.0, 0.05) for j in (2, 8)]
    + [("rotate", k, 1.0, 0.05) for k in (1, 3)]
)


def _ckks_program(spec, stack) -> Program:
    kind, depth, pt_bound, tol = spec
    value_bound = 1.0 if kind == "square" else 0.5
    meta = _ckks_meta(stack, value_bound, pt_bound, tol)
    steps: List[Tuple[OpKind, Optional[str], int]] = []
    if kind == "pmult":
        for _ in range(depth):
            steps += [(OpKind.EW_MULT, "pmult", 0),
                      (OpKind.EW_MULT, "rescale", 0)]
    elif kind == "square":
        for _ in range(depth):
            steps += [(OpKind.EW_MULT, "tensor", 0),
                      (OpKind.DECOMP_POLY_MULT, "keyswitch", 0),
                      (OpKind.EW_MULT, "rescale", 0)]
    elif kind == "add":
        steps += [(OpKind.EW_ADD, "add", 1)] * depth
    else:                                   # rotate
        for _ in range(depth):
            steps += [(OpKind.AUTOMORPHISM, None, 0),
                      (OpKind.DECOMP_POLY_MULT, "keyswitch", 0)]
    return _chain_program(
        f"ckks-{kind}-d{depth}-p{pt_bound:g}-t{tol:g}", meta, steps,
        poly_degree=stack.params.n)


def _ckks_run(spec, stack, rng) -> Tuple[bool, float]:
    kind, depth, pt_bound, tol = spec
    slots = stack.params.n // 2
    bound = 1.0 if kind == "square" else 0.5
    v = rng.uniform(-bound, bound, slots)
    ct = stack.encryptor.encrypt_values(v)
    expected = v.astype(np.complex128)
    if kind == "pmult":
        for _ in range(depth):
            w = rng.uniform(-pt_bound, pt_bound, slots)
            ct = stack.evaluator.rescale(stack.evaluator.mul_plain(ct, w))
            expected = expected * w
    elif kind == "square":
        for _ in range(depth):
            ct = stack.evaluator.multiply_rescale(ct, ct)
            expected = expected * expected
    elif kind == "add":
        for _ in range(depth):
            w = rng.uniform(-bound, bound, slots)
            ct = stack.evaluator.add(ct, stack.encryptor.encrypt_values(w))
            expected = expected + w
    else:                                   # rotate
        for i in range(depth):
            step = (1, 2, 4)[i % 3]
            ct = stack.evaluator.rotate(ct, step)
            expected = np.roll(expected, -step)
    err = float(np.abs(stack.decryptor.decrypt(ct) - expected).max())
    return err <= tol, math.log2(tol / max(err, 1e-300))


def test_ckks_noise_verifier_differential(ckks512_stack, rng_factory):
    records = []
    for i, spec in enumerate(CKKS_CORPUS):
        program = _ckks_program(spec, ckks512_stack)
        static = NoiseBudgetAnalysis.program_headroom_bits(program)
        assert static is not None, program.name
        real_ok, measured = _ckks_run(
            spec, ckks512_stack, rng_factory(0xD1F0 + i))
        records.append(Record(program.name, static, measured, real_ok))
        if static <= 0.0:
            _assert_alc701(program)
    _assert_corpus_contract("ckks", records)


# -------------------------------- BFV ----------------------------------- #


BFV_PARAMS = BFVParams(n=64, num_primes=3, dnum=2, hamming_weight=16)


@pytest.fixture(scope="module")
def bfv_stack():
    rng = np.random.default_rng(0xBFD1FF)
    encoder = BFVEncoder(BFV_PARAMS.n, BFV_PARAMS.plain_modulus)
    keygen = BFVKeyGenerator(BFV_PARAMS, rng)
    encryptor = BFVEncryptor(BFV_PARAMS, rng, keygen.public_key(), encoder)
    decryptor = BFVDecryptor(BFV_PARAMS, keygen.secret_key(), encoder)
    evaluator = BFVEvaluator(BFV_PARAMS, relin_key=keygen.relin_key())
    return encryptor, decryptor, evaluator


def _bfv_meta() -> dict:
    return {
        "scheme": "bfv", "n": BFV_PARAMS.n,
        "log2_q": sum(math.log2(p) for p in BFV_PARAMS.ct_primes),
        "log2_t": math.log2(BFV_PARAMS.plain_modulus),
        "sigma": BFV_PARAMS.error_std, "dnum": BFV_PARAMS.dnum,
    }


#: (kind, depth, adds) — multiplicative depth is the budget spender
#: (~24 bits per level at these parameters); depth 4 and 5 are past the
#: boundary and really fail.  Add chains and mixed circuits exercise the
#: noise-sum transfer.
BFV_CORPUS = (
    [("square", d, 0) for d in (1, 2, 3, 4, 5)]
    + [("mul", d, 0) for d in (1, 2, 3, 4)]
    + [("add", 0, j) for j in (1, 3, 7, 15)]
    + [("mixed", d, j) for d in (1, 2, 3) for j in (3, 7)]
    + [("mixed", 4, 3)]
)


def _bfv_program(spec) -> Program:
    kind, depth, adds = spec
    steps: List[Tuple[OpKind, Optional[str], int]] = []
    for _ in range(depth):
        steps += [(OpKind.EW_MULT, "tensor", 1 if kind == "mul" else 0),
                  (OpKind.DECOMP_POLY_MULT, "keyswitch", 0)]
    steps += [(OpKind.EW_ADD, "add", 1)] * adds
    return _chain_program(f"bfv-{kind}-d{depth}-a{adds}", _bfv_meta(),
                          steps, poly_degree=BFV_PARAMS.n)


def _bfv_run(spec, stack, rng) -> Tuple[bool, float]:
    kind, depth, adds = spec
    enc, dec, ev = stack
    t = BFV_PARAMS.plain_modulus
    v = rng.integers(0, t, BFV_PARAMS.n)
    ct = enc.encrypt_values(v)
    expected = v.copy()
    for _ in range(depth):
        if kind == "mul":
            w = rng.integers(0, t, BFV_PARAMS.n)
            ct = ev.multiply(ct, enc.encrypt_values(w))
            expected = (expected * w) % t
        else:
            ct = ev.multiply(ct, ct)
            expected = (expected * expected) % t
    for _ in range(adds):
        w = rng.integers(0, t, BFV_PARAMS.n)
        ct = ev.add(ct, enc.encrypt_values(w))
        expected = (expected + w) % t
    budget = dec.noise_budget_bits(ct)
    exact = bool(np.array_equal(dec.decrypt_values(ct) % t, expected))
    return exact and budget > 0.0, budget


def test_bfv_noise_verifier_differential(bfv_stack, rng_factory):
    records = []
    for i, spec in enumerate(BFV_CORPUS):
        program = _bfv_program(spec)
        static = NoiseBudgetAnalysis.program_headroom_bits(program)
        assert static is not None, program.name
        real_ok, measured = _bfv_run(spec, bfv_stack,
                                     rng_factory(0xBFD2 + i))
        records.append(Record(program.name, static, measured, real_ok))
        if static <= 0.0:
            _assert_alc701(program)
    _assert_corpus_contract("bfv", records)


# ------------------------------- TFHE ----------------------------------- #


def _tfhe_meta(params, margin: float = 1.0 / 16.0) -> dict:
    return {
        "scheme": "tfhe", "lwe_dim": params.lwe_dim,
        "ring_degree": params.ring_degree, "bg_bit": params.bg_bit,
        "decomp_length": params.decomp_length,
        "ks_base_bit": params.ks_base_bit, "ks_length": params.ks_length,
        "lwe_noise_std": params.lwe_noise_std,
        "ring_noise_std": params.ring_noise_std, "margin": margin,
    }


#: (sigma, stages) leveled lincomb chains: each stage adds one fresh
#: sample (the linear half of a binary gate).  The sigma sweep moves the
#: boundary into reach of short chains; sigma=3e-2 fails fresh off the
#: encryptor — statically rejected and really undecodable.
TFHE_LINCOMB_CORPUS = (
    [(1.0e-6, k) for k in (1, 2, 4, 8, 16, 24)]
    + [(2.0e-3, k) for k in (1, 2, 4, 8, 16, 24)]
    + [(5.0e-3, k) for k in (1, 2, 4, 8, 16, 24)]
    + [(3.0e-2, 1), (3.0e-2, 2)]
)

#: pre-PBS adds: the PBS resets the budget regardless of how much the
#: leveled prefix accumulated (within decodability of the prefix).
TFHE_PBS_CORPUS = (0, 4)

MARGIN = 1.0 / 16.0
LINCOMB_SAMPLES = 128
PBS_SAMPLES = 4


def _tfhe_lincomb_program(sigma: float, stages: int) -> Program:
    params = replace(TEST_PARAMS, lwe_noise_std=sigma)
    steps = [(OpKind.EW_ADD, "lincomb", 1)] * stages
    return _chain_program(f"tfhe-lincomb-s{sigma:g}-k{stages}",
                          _tfhe_meta(params), steps,
                          poly_degree=params.ring_degree)


def _tfhe_lincomb_run(sigma: float, stages: int,
                      rng) -> Tuple[bool, float]:
    params = replace(TEST_PARAMS, lwe_noise_std=sigma)
    key = LweKey.generate(params, rng)
    worst = 0
    for _ in range(LINCOMB_SAMPLES):
        acc = lwe_encrypt(0, key, rng)
        for _ in range(stages):
            acc = acc + lwe_encrypt(0, key, rng)
        worst = max(worst, abs(_centered(lwe_decrypt_phase(acc, key))))
    err = worst / TORUS
    return err < MARGIN, math.log2(MARGIN / max(err, 1e-300))


def _tfhe_pbs_program(pre_adds: int) -> Program:
    steps = [(OpKind.EW_ADD, "lincomb", 1)] * pre_adds
    steps += [(OpKind.DECOMP_POLY_MULT, "pbs", 0),
              (OpKind.EW_ADD, "lwe-keyswitch", 0)]
    return _chain_program(f"tfhe-pbs-pre{pre_adds}",
                          _tfhe_meta(TEST_PARAMS), steps,
                          poly_degree=TEST_PARAMS.ring_degree)


def _tfhe_pbs_run(pre_adds: int, kit, rng) -> Tuple[bool, float]:
    mu = TORUS // 8
    worst = 0
    for _ in range(PBS_SAMPLES):
        acc = kit.encrypt(mu)
        for _ in range(pre_adds):
            acc = acc + lwe_encrypt(0, kit.lwe_key, rng)
        out = kit.gate_bootstrap(acc, mu)
        err = abs(_centered(lwe_decrypt_phase(out, kit.lwe_key) - mu))
        worst = max(worst, err)
    err_frac = worst / TORUS
    return err_frac < MARGIN, math.log2(MARGIN / max(err_frac, 1e-300))


def test_tfhe_noise_verifier_differential(tfhe_kit, rng_factory):
    records = []
    for i, (sigma, stages) in enumerate(TFHE_LINCOMB_CORPUS):
        program = _tfhe_lincomb_program(sigma, stages)
        static = NoiseBudgetAnalysis.program_headroom_bits(program)
        assert static is not None, program.name
        real_ok, measured = _tfhe_lincomb_run(sigma, stages,
                                              rng_factory(0x7FE0 + i))
        records.append(Record(program.name, static, measured, real_ok))
        if static <= 0.0:
            _assert_alc701(program)
    for j, pre in enumerate(TFHE_PBS_CORPUS):
        program = _tfhe_pbs_program(pre)
        static = NoiseBudgetAnalysis.program_headroom_bits(program)
        assert static is not None, program.name
        real_ok, measured = _tfhe_pbs_run(pre, tfhe_kit,
                                          rng_factory(0x7FF0 + j))
        records.append(Record(program.name, static, measured, real_ok))
    _assert_corpus_contract("tfhe", records)


# --------------------------- model agreement ---------------------------- #


def test_bfv_static_budget_tracks_measured_budget(bfv_stack, rng_factory):
    """The static BFV headroom and ``noise_budget_bits`` measure the same
    quantity: fresh off the encryptor they must agree within the model's
    6-sigma expansion bound (static below measured, but not by much)."""
    enc, dec, _ = bfv_stack
    rng = rng_factory(0xBFD9)
    ct = enc.encrypt_values(rng.integers(0, BFV_PARAMS.plain_modulus,
                                         BFV_PARAMS.n))
    measured = dec.noise_budget_bits(ct)
    domain = noise_domain(_bfv_meta())
    static = domain.headroom_bits(domain.fresh())
    assert static <= measured
    assert measured - static < 12.0


def test_tfhe_pbs_variance_formula_tracks_reality(tfhe_kit, rng_factory):
    """The analytic bootstrapped variance upper-bounds the measured PBS
    output error (z-sigma of the formula clears every observed draw)."""
    rng = rng_factory(0x7FEA)
    mu = TORUS // 8
    std = math.sqrt(tfhe_kit.params.bootstrapped_variance())
    for _ in range(4):
        out = tfhe_kit.gate_bootstrap(tfhe_kit.encrypt(mu), mu)
        err = abs(_centered(lwe_decrypt_phase(out, tfhe_kit.lwe_key) - mu))
        assert err / TORUS < 6.0 * std
