"""Differential harness: compression never changes functional FHE results.

The compression layer's core contract mirrors the fault layer's: it
changes *bytes on the wire and cycles in the cost model only*, never the
mathematics.  This harness proves it end to end, per scheme:

* **CKKS** — one seed-expanded key/ciphertext stack is serialized both
  raw and ``seeded/v1``-compressed; every reloaded artifact must be
  bit-equal to the in-memory original, and the same homomorphic
  evaluation (mult-rescale + rotate-and-add) over all three key sources
  must decrypt to *bit-identical* slot vectors.
* **BFV / TFHE** — the exact schemes: a seed-expanded keygen and an
  ordinary one must produce bit-identical decrypted plaintexts (and, for
  TFHE, identical gate truth tables through real PBS), because seed
  expansion only changes where the uniform mask bytes come from.
* **timing purity** — an *inert* :class:`CompressionModel` (all defaults)
  attached to a config leaves both simulators' cycle totals and the
  trace-event stream byte-identical to ``compression=None``: the cost
  branch is opt-in, so the BENCH goldens can never drift while
  compression is off.
"""

import numpy as np
import pytest

from repro import serialization as ser
from repro.bfv import (
    BFVDecryptor,
    BFVEncoder,
    BFVEncryptor,
    BFVEvaluator,
    BFVKeyGenerator,
    BFVParams,
)
from repro.ckks.encoder import CKKSEncoder
from repro.ckks.encryptor import CKKSDecryptor, CKKSEncryptor
from repro.ckks.evaluator import CKKSEvaluator
from repro.ckks.keys import CKKSKeyGenerator
from repro.ckks.params import CKKSParams
from repro.compiler.ckks_programs import cmult_program, keyswitch_program
from repro.hw.config import ALCHEMIST_DEFAULT, CompressionModel
from repro.sim.engine import EventDrivenSimulator
from repro.sim.simulator import CycleSimulator
from repro.telemetry import TraceCollector
from repro.tfhe.gates import TFHEGates
from repro.tfhe.bootstrap import BootstrapKit
from repro.tfhe.params import TEST_PARAMS

from dataclasses import replace

EXPAND_SEED = 0x5EED
CKKS_ROTATIONS = (1, 2, 4)


def _poly_equal(p, q) -> bool:
    return (p.ntt_form == q.ntt_form and p.primes == q.primes
            and np.array_equal(p.data, q.data))


def _relin_equal(a, b) -> bool:
    if sorted(a.levels) != sorted(b.levels):
        return False
    return all(
        _poly_equal(pa, pb) and _poly_equal(qa, qb)
        for level in a.levels
        for (pa, qa), (pb, qb) in zip(a.levels[level].pairs,
                                      b.levels[level].pairs))


def _galois_equal(a, b) -> bool:
    if sorted(a.keys) != sorted(b.keys):
        return False
    return all(
        _poly_equal(pa, pb) and _poly_equal(qa, qb)
        for entry in a.keys
        for (pa, qa), (pb, qb) in zip(a.keys[entry].pairs,
                                      b.keys[entry].pairs))


# ------------------------------- CKKS ----------------------------------- #


@pytest.fixture(scope="module")
def seeded_ckks():
    """A fully seed-expanded n=128 CKKS stack (keys + symmetric cts)."""
    params = CKKSParams(n=128, num_levels=3, dnum=2, hamming_weight=16)
    rng = np.random.default_rng(0xC04)
    encoder = CKKSEncoder(params.n, params.scale)
    keygen = CKKSKeyGenerator(params, rng, expand_seed=EXPAND_SEED)
    sk = keygen.secret_key()
    encryptor = CKKSEncryptor(
        params, encoder, rng, public_key=keygen.public_key(),
        secret_key=sk, expand_seed=EXPAND_SEED)
    decryptor = CKKSDecryptor(params, encoder, sk)
    return {
        "params": params,
        "encoder": encoder,
        "keygen": keygen,
        "sk": sk,
        "pk": keygen.public_key(),
        "relin": keygen.relin_key(),
        "galois": keygen.rotation_key(CKKS_ROTATIONS),
        "encryptor": encryptor,
        "decryptor": decryptor,
    }


def _ckks_eval(stack, relin, galois, ct_a, ct_b):
    """Mult-rescale then a rotate-and-add reduction (steps 1, 2)."""
    ev = CKKSEvaluator(stack["params"], stack["encoder"],
                       relin_key=relin, galois_key=galois)
    acc = ev.multiply_rescale(ct_a, ct_b)
    for step in (1, 2):
        acc = ev.add(acc, ev.rotate(acc, step))
    return stack["decryptor"].decrypt(acc)


def test_ckks_decryptions_bit_identical_compressed_vs_raw(
        seeded_ckks, tmp_path):
    """The central contract: the same workload evaluated with in-memory,
    raw-serialized, and seeded/v1-compressed keys + ciphertexts decrypts
    to *bit-identical* results — compression is invisible to the math."""
    stack = seeded_ckks
    slots = stack["params"].n // 2
    rng = np.random.default_rng(0xD1F)
    a = rng.uniform(-1, 1, slots)
    b = rng.uniform(-1, 1, slots)
    enc = stack["encryptor"]
    ct_a = enc.encrypt_symmetric(enc.encode(a))
    ct_b = enc.encrypt_symmetric(enc.encode(b))
    assert ct_a.seed_meta is not None      # the mask is seed-expanded

    loaded = {}
    for compressed in (False, True):
        tag = "z" if compressed else "raw"
        ser.save_relin_key(tmp_path / f"relin.{tag}.npz", stack["relin"],
                           compressed=compressed)
        ser.save_galois_key(tmp_path / f"galois.{tag}.npz", stack["galois"],
                            compressed=compressed)
        ser.save_public_key(tmp_path / f"pk.{tag}.npz", stack["pk"],
                            compressed=compressed)
        ser.save_ciphertext(tmp_path / f"ct_a.{tag}.npz", ct_a,
                            compressed=compressed)
        ser.save_ciphertext(tmp_path / f"ct_b.{tag}.npz", ct_b,
                            compressed=compressed)
        loaded[tag] = (
            ser.load_relin_key(tmp_path / f"relin.{tag}.npz"),
            ser.load_galois_key(tmp_path / f"galois.{tag}.npz"),
            ser.load_ciphertext(tmp_path / f"ct_a.{tag}.npz"),
            ser.load_ciphertext(tmp_path / f"ct_b.{tag}.npz"),
        )
        pk = ser.load_public_key(tmp_path / f"pk.{tag}.npz")
        assert _poly_equal(pk.b, stack["pk"].b)
        assert _poly_equal(pk.a, stack["pk"].a)

    # every reloaded artifact is bit-equal to the in-memory original
    for tag in ("raw", "z"):
        relin, galois, lct_a, lct_b = loaded[tag]
        assert _relin_equal(relin, stack["relin"])
        assert _galois_equal(galois, stack["galois"])
        for orig, back in ((ct_a, lct_a), (ct_b, lct_b)):
            assert back.scale == orig.scale
            assert all(_poly_equal(p, q)
                       for p, q in zip(back.parts, orig.parts))

    # ... so the three evaluation paths decrypt bit-identically
    reference = _ckks_eval(stack, stack["relin"], stack["galois"],
                           ct_a, ct_b)
    for tag in ("raw", "z"):
        relin, galois, lct_a, lct_b = loaded[tag]
        result = _ckks_eval(stack, relin, galois, lct_a, lct_b)
        assert np.array_equal(reference, result)

    # and the evaluation itself is correct (sanity, approximate scheme)
    want = a * b
    expect = sum(np.roll(want, -s) for s in range(4))
    np.testing.assert_allclose(reference.real[::4], expect[::4], atol=1e-2)


def test_ckks_compressed_files_are_smaller(seeded_ckks, tmp_path):
    """The harness also measures: seeded/v1 actually shrinks the files."""
    stack = seeded_ckks
    for name, saver, obj in (
            ("relin", ser.save_relin_key, stack["relin"]),
            ("galois", ser.save_galois_key, stack["galois"]),
            ("pk", ser.save_public_key, stack["pk"])):
        saver(tmp_path / f"{name}.raw.npz", obj, compressed=False)
        saver(tmp_path / f"{name}.z.npz", obj, compressed=True)
        raw = (tmp_path / f"{name}.raw.npz").stat().st_size
        z = (tmp_path / f"{name}.z.npz").stat().st_size
        assert z < raw, f"{name}: {z} >= {raw}"


# ------------------------------- BFV ------------------------------------ #


BFV_PARAMS = BFVParams(n=64, num_primes=3, dnum=2, hamming_weight=16)


def _bfv_stack(expand_seed):
    rng = np.random.default_rng(0xFA17)
    encoder = BFVEncoder(BFV_PARAMS.n, BFV_PARAMS.plain_modulus)
    keygen = BFVKeyGenerator(BFV_PARAMS, rng, expand_seed=expand_seed)
    encryptor = BFVEncryptor(BFV_PARAMS, rng, keygen.public_key(), encoder)
    decryptor = BFVDecryptor(BFV_PARAMS, keygen.secret_key(), encoder)
    evaluator = BFVEvaluator(BFV_PARAMS, relin_key=keygen.relin_key())
    return encryptor, decryptor, evaluator


def test_bfv_decryptions_bit_identical_seeded_vs_plain():
    """BFV is exact: whether the uniform key halves come from the rng or
    from a SeedExpander stream, decryptions equal the plaintext arithmetic
    bit for bit."""
    t = BFV_PARAMS.plain_modulus
    rng = np.random.default_rng(7)
    x = rng.integers(0, t, BFV_PARAMS.n)
    y = rng.integers(0, t, BFV_PARAMS.n)

    results = []
    for expand_seed in (None, EXPAND_SEED):
        encryptor, decryptor, evaluator = _bfv_stack(expand_seed)
        ct_x = encryptor.encrypt_values(x)
        ct_y = encryptor.encrypt_values(y)
        ct_sum = evaluator.add(ct_x, ct_y)
        ct_prod = evaluator.relinearize(evaluator.multiply(ct_x, ct_y))
        results.append((decryptor.decrypt_values(ct_sum),
                        decryptor.decrypt_values(ct_prod)))

    (sum_plain, prod_plain), (sum_seeded, prod_seeded) = results
    assert np.array_equal(sum_plain, sum_seeded)
    assert np.array_equal(prod_plain, prod_seeded)
    assert np.array_equal(sum_plain, (x + y) % t)
    assert np.array_equal(prod_plain, (x * y) % t)


# ------------------------------- TFHE ----------------------------------- #


def test_tfhe_gates_bit_identical_seeded_vs_plain(tfhe_kit):
    """Real PBS through a seed-expanded kit produces the same gate truth
    tables as the shared (unseeded) kit — seed expansion only relocates
    the mask randomness."""
    seeded_kit = BootstrapKit(TEST_PARAMS, np.random.default_rng(99),
                              expand_seed=EXPAND_SEED)
    cases = [(False, False), (False, True), (True, False), (True, True)]

    def truth_table(kit):
        gates = TFHEGates(kit)
        out = []
        for x, y in cases:
            cx, cy = gates.encrypt_bit(x), gates.encrypt_bit(y)
            out.append((gates.decrypt_bit(gates.gate_nand(cx, cy)),
                        gates.decrypt_bit(gates.gate_and(cx, cy)),
                        gates.decrypt_bit(gates.gate_xor(cx, cy))))
        return out

    assert truth_table(seeded_kit) == truth_table(tfhe_kit)
    for row, (x, y) in zip(truth_table(seeded_kit), cases):
        assert row == (not (x and y), x and y, x != y)


def test_tfhe_keyswitch_key_compressed_round_trip(tmp_path):
    """The compressed TFHE keyswitch table reloads bit-equal, so a PBS
    keyswitched through the reloaded key is bit-identical."""
    kit = BootstrapKit(TEST_PARAMS, np.random.default_rng(99),
                       expand_seed=EXPAND_SEED)
    ksk = kit.keyswitch_key
    for compressed in (False, True):
        path = tmp_path / f"ksk.{compressed}.npz"
        ser.save_tfhe_keyswitch_key(path, ksk, compressed=compressed)
        back = ser.load_tfhe_keyswitch_key(path)
        assert np.array_equal(back.table, ksk.table)
    raw = (tmp_path / "ksk.False.npz").stat().st_size
    z = (tmp_path / "ksk.True.npz").stat().st_size
    assert z < raw

    from repro.tfhe.bootstrap import make_sign_test_polynomial

    extracted = kit.bootstrap_to_extracted(
        kit.encrypt(1 << 29),
        make_sign_test_polynomial(TEST_PARAMS, 1 << 29))
    want = ser.load_tfhe_keyswitch_key(
        tmp_path / "ksk.True.npz").keyswitch(extracted)
    got = ksk.keyswitch(extracted)
    assert np.array_equal(want.a, got.a) and want.b == got.b


def test_tfhe_lwe_sample_compressed_round_trip(tmp_path):
    kit = BootstrapKit(TEST_PARAMS, np.random.default_rng(99),
                       expand_seed=EXPAND_SEED)
    ct = kit.encrypt(1 << 29)
    assert ct.seed_meta is not None
    for compressed in (False, True):
        path = tmp_path / f"lwe.{compressed}.npz"
        ser.save_lwe_sample(path, ct, TEST_PARAMS, compressed=compressed)
        back, params = ser.load_lwe_sample(path)
        assert params == TEST_PARAMS
        assert np.array_equal(back.a, ct.a) and back.b == ct.b
        assert kit.decrypt_phase(back) == kit.decrypt_phase(ct)


# ------------------------- empty model, full stack ----------------------- #


def test_inert_compression_model_is_a_timing_noop():
    """A default-constructed CompressionModel never reaches the cost
    branch: cycle totals, per-op timings, the traced schedule, and the
    event-driven makespan are all *identical* to ``compression=None``
    (the BENCH goldens pin the uncompressed numbers bit-exactly)."""
    inert = CompressionModel()
    assert not inert.enabled
    base_config = ALCHEMIST_DEFAULT
    inert_config = replace(ALCHEMIST_DEFAULT, compression=inert)

    for program in (cmult_program(), keyswitch_program()):
        base_col, inert_col = TraceCollector(), TraceCollector()
        base = CycleSimulator(base_config, collector=base_col).run(program)
        comp = CycleSimulator(inert_config, collector=inert_col).run(program)
        assert base.total_compute_cycles == comp.total_compute_cycles
        assert base.total_sram_cycles == comp.total_sram_cycles
        assert base.total_hbm_cycles == comp.total_hbm_cycles
        assert base.pipelined_cycles == comp.pipelined_cycles
        assert base.serialized_cycles == comp.serialized_cycles
        # scheduled ops and their cost records are frozen dataclasses:
        # == is field-exact
        assert (base_col.programs[program.name][1]
                == inert_col.programs[program.name][1])
        assert (EventDrivenSimulator(base_config).run(program).makespan_cycles
                == EventDrivenSimulator(inert_config).run(program)
                .makespan_cycles)
