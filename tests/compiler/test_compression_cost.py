"""Cost-model + diagnostics tests for compressed HBM transfers.

Four contracts:

* :class:`CompressionModel` validates its ratios, and an all-default
  (inert) instance leaves every :func:`cost_op` output *bit-identical*
  to ``compression=None`` — the timing-only contract the BENCH goldens
  depend on.
* (hypothesis) compressed costs are monotone in the compression ratio:
  wire bytes and HBM cycles nondecreasing, the on-chip expansion charge
  nonincreasing — no ratio can make the model "pay twice".
* The paper chain flips: under the realized design point (seed-expanded
  keys, ``key_ratio=1/2``) every Table-7 keyswitch-class workload leaves
  the HBM roof and becomes compute-bound, at pinned cycle counts — and
  static analysis still matches both simulators exactly
  (``differential_check``) because they share :func:`cost_op`.
* Diagnostics: ``ALC605`` fires exactly when a compression model is
  active; ``ALC805`` (the seed-expansion *upside*) is retracted once the
  upside is realised, and its advertised savings equal the measured
  on-disk delta of the ``seeded/v1`` format — at the fixture scale by
  byte-counting real files, at the paper scale by the 134,479,872-byte
  evk anchor.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import serialization as ser
from repro.ckks.keys import CKKSKeyGenerator
from repro.ckks.params import CKKSParams
from repro.cli import _workloads
from repro.compiler.ckks_programs import (
    WORD_BYTES,
    CKKSWorkload,
    bootstrapping_program,
    cmult_program,
    keyswitch_program,
    rotation_program,
)
from repro.compiler.cost.analyzer import analyze_program, differential_check
from repro.compiler.cost.model import cost_op
from repro.compiler.ops import HighLevelOp, OpKind
from repro.compiler.verify import Linter
from repro.compiler.verify.costcheck import CostAnalysis
from repro.compiler.verify.keys import KeyResidencyAnalysis, analyze_keys
from repro.hw.config import (
    ALCHEMIST_DEFAULT,
    DEFAULT_COMPRESSION,
    CompressionModel,
)
from repro.sim.simulator import CycleSimulator
from repro.telemetry import TraceCollector

COMPRESSED = ALCHEMIST_DEFAULT.with_compression()

#: One paper-shape evaluation-key stream (the transfer class compression
#: targets) and one untagged ciphertext transfer.
KEY_LOAD = HighLevelOp(OpKind.HBM_LOAD, label="evk",
                       bytes_moved=134_479_872, key="relin")
CT_LOAD = HighLevelOp(OpKind.HBM_LOAD, label="ct", bytes_moved=1_000_000)


# ----------------------------- the model --------------------------------- #


@pytest.mark.parametrize("kwargs", [
    {"key_ratio": 0.0},
    {"key_ratio": -0.5},
    {"key_ratio": 1.5},
    {"ciphertext_ratio": 0.0},
    {"ciphertext_ratio": 2.0},
    {"expand_bytes_per_cycle": 0.0},
    {"expand_bytes_per_cycle": -1.0},
])
def test_invalid_models_are_rejected(kwargs):
    with pytest.raises(ValueError):
        CompressionModel(**kwargs)


def test_enabled_semantics():
    assert not CompressionModel().enabled
    assert CompressionModel(seed_expanded_keys=True).enabled
    assert not CompressionModel(seed_expanded_keys=True,
                                key_ratio=1.0).enabled
    assert CompressionModel(ciphertext_ratio=0.5).enabled
    assert DEFAULT_COMPRESSION.enabled
    assert COMPRESSED.compression is DEFAULT_COMPRESSION


def test_inert_model_costs_bit_identical():
    """An attached-but-inert model never reaches the cost branch: every
    OpCost field of every op is exactly equal (frozen dataclass ==)."""
    inert = replace(ALCHEMIST_DEFAULT, compression=CompressionModel())
    for program in (keyswitch_program(), cmult_program()):
        for op in program.ops:
            assert cost_op(op, ALCHEMIST_DEFAULT) == cost_op(op, inert)
    assert cost_op(KEY_LOAD, ALCHEMIST_DEFAULT) == cost_op(KEY_LOAD, inert)


def test_key_transfers_untouched_without_seed_expansion():
    """ciphertext_ratio alone compresses only untagged traffic — a
    key-tagged stream keeps its full byte count."""
    config = replace(ALCHEMIST_DEFAULT,
                     compression=CompressionModel(ciphertext_ratio=0.5))
    assert cost_op(KEY_LOAD, config) == cost_op(KEY_LOAD, ALCHEMIST_DEFAULT)
    assert cost_op(CT_LOAD, config).hbm_bytes == CT_LOAD.bytes_moved // 2


def test_default_point_halves_key_wire_bytes_and_charges_expansion():
    base = cost_op(KEY_LOAD, ALCHEMIST_DEFAULT)
    comp = cost_op(KEY_LOAD, COMPRESSED)
    assert comp.hbm_bytes == base.hbm_bytes // 2
    dropped = base.hbm_bytes - comp.hbm_bytes
    assert comp.compute_cycles == base.compute_cycles + (
        dropped / DEFAULT_COMPRESSION.expand_bytes_per_cycle)
    # untagged ciphertext traffic is untouched at the default point
    assert cost_op(CT_LOAD, COMPRESSED) == cost_op(CT_LOAD, ALCHEMIST_DEFAULT)


ratios = st.floats(min_value=0.01, max_value=1.0)


@settings(deadline=None)
@given(r1=ratios, r2=ratios)
def test_compressed_cost_is_monotone_in_key_ratio(r1, r2):
    """Per resource: wire bytes / HBM cycles nondecreasing in the ratio,
    the expansion compute charge nonincreasing — for any ratio pair."""
    lo, hi = sorted((r1, r2))

    def at(ratio):
        return cost_op(KEY_LOAD, replace(
            ALCHEMIST_DEFAULT, compression=CompressionModel(
                seed_expanded_keys=True, key_ratio=ratio)))

    c_lo, c_hi = at(lo), at(hi)
    assert c_lo.hbm_bytes <= c_hi.hbm_bytes
    assert c_lo.hbm_cycles <= c_hi.hbm_cycles
    assert c_lo.compute_cycles >= c_hi.compute_cycles
    # and the two charges balance exactly: every dropped wire byte is
    # expanded on-chip at the declared rate
    full = cost_op(KEY_LOAD, ALCHEMIST_DEFAULT)
    for c in (c_lo, c_hi):
        assert c.compute_cycles - full.compute_cycles == pytest.approx(
            (full.hbm_bytes - c.hbm_bytes) / 4096.0)


# --------------------------- the paper chain ------------------------------ #


@pytest.mark.parametrize("build, base_cycles, comp_cycles", [
    (keyswitch_program, 134_480, 91_871),
    (cmult_program, 134_480, 118_371),
    (rotation_program, 134_480, 91_871),
    (bootstrapping_program, 7_996_244, 5_023_241),
])
def test_paper_chain_flips_hbm_to_compute(build, base_cycles, comp_cycles):
    """The tentpole's headline: seed-expanded key transfers take every
    Table-7 keyswitch-class workload off the HBM roof."""
    program = build()
    base = analyze_program(program, ALCHEMIST_DEFAULT)
    comp = analyze_program(program, COMPRESSED)
    assert base.bottleneck == "hbm"
    assert comp.bottleneck == "compute"
    assert round(base.pipelined_cycles) == base_cycles
    assert round(comp.pipelined_cycles) == comp_cycles
    assert comp.total_hbm_bytes < base.total_hbm_bytes
    assert comp.pipelined_cycles < base.pipelined_cycles


@pytest.mark.parametrize("build", [keyswitch_program, cmult_program])
def test_static_matches_simulators_under_compression(build):
    """Static and simulated costs share cost_op, so the differential
    check stays exact with compression on — not just off."""
    program = build()
    assert differential_check(
        program, analyze_program(program, COMPRESSED)).ok


@pytest.mark.parametrize("name", sorted(_workloads()))
def test_reports_count_the_wire_bytes_cost_op_charges(name):
    """Under compression the simulator report, the static analyzer and
    the trace all count the HBM wire bytes ``cost_op`` charged — never
    the unexpanded bytes of the op."""
    program = _workloads()[name]
    collector = TraceCollector()
    report = CycleSimulator(COMPRESSED, collector=collector).run(program)
    traced = collector.summary_dict()["programs"][program.name]["hbm_bytes"]
    static = analyze_program(program, COMPRESSED).total_hbm_bytes
    assert round(report.hbm_gigabytes() * 1e9) == static == traced


# ---------------------------- diagnostics -------------------------------- #


def _codes(program, analyses, config):
    report = Linter(analyses, config=config).run(program)
    return {d.code for d in report.diagnostics}


def test_alc605_fires_only_under_an_active_model():
    program = keyswitch_program()
    assert "ALC605" in _codes(program, [CostAnalysis()], COMPRESSED)
    assert "ALC605" not in _codes(program, [CostAnalysis()],
                                  ALCHEMIST_DEFAULT)
    inert = replace(ALCHEMIST_DEFAULT, compression=CompressionModel())
    assert "ALC605" not in _codes(program, [CostAnalysis()], inert)


def test_alc605_message_quantifies_the_flip():
    report = Linter([CostAnalysis()], config=COMPRESSED).run(
        keyswitch_program())
    flips = [d for d in report.diagnostics if d.code == "ALC605"]
    assert flips
    assert any("hbm-bound to compute-bound" in d.message for d in flips)


def test_alc805_retracted_when_expansion_is_realised():
    """The upside note must not double-count: once the active config
    already seed-expands keys, ALC805 disappears (ALC804 stays)."""
    program = cmult_program()
    base = _codes(program, [KeyResidencyAnalysis()], ALCHEMIST_DEFAULT)
    comp = _codes(program, [KeyResidencyAnalysis()], COMPRESSED)
    assert "ALC805" in base and "ALC804" in base
    assert "ALC805" not in comp and "ALC804" in comp


def test_alc805_savings_equal_measured_on_disk_delta(tmp_path):
    """The diagnostic's byte claim is the serialization layer's measured
    truth.  Fixture scale: the top-level dropped words of a real seeded
    relin key, counted from the .npz containers, equal ``evk_bytes/2``.
    Paper scale: the same formula gives the 134,479,872-byte evk and the
    67,239,936-byte ALC805 savings the cmult key report advertises."""
    params = CKKSParams(n=128, num_levels=3, dnum=2, hamming_weight=16)
    keygen = CKKSKeyGenerator(params, np.random.default_rng(5),
                              expand_seed=7)
    relin = keygen.relin_key()
    raw, z = tmp_path / "relin.npz", tmp_path / "relin.z.npz"
    ser.save_relin_key(raw, relin, compressed=False)
    ser.save_relin_key(z, relin, compressed=True)

    wl = CKKSWorkload(n=params.n, num_levels=params.num_levels,
                      dnum=params.dnum)
    top = params.num_levels

    def words(path, level):
        with np.load(path, allow_pickle=False) as blob:
            return sum(int(blob[k].size) for k in blob.files
                       if k.startswith(f"l{level}_"))

    dropped_bytes = (words(raw, top) - words(z, top)) * WORD_BYTES
    assert dropped_bytes == wl.evk_bytes(top) / 2

    # the paper-shape anchor the ALC8xx report advertises
    assert CKKSWorkload().evk_bytes(44) == 134_479_872
    report = analyze_keys(cmult_program(), ALCHEMIST_DEFAULT)
    assert report.sizes["relin"] == 134_479_872
    assert report.seed_expansion_savings_bytes == 67_239_936
