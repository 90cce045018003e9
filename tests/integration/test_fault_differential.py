"""Differential harness: faults never change functional FHE results.

The fault layer's core contract is that it perturbs *timing and
scheduling only*.  This harness proves it end to end, per scheme: encrypt
once, evaluate + decrypt to get a reference result, then run seeded fault
campaigns through the event engine over the corresponding workload
programs, then evaluate + decrypt *the same ciphertexts again* and demand
bit-exact equality with the reference.  Any fault-layer code path that
reached into the functional CKKS/BFV/TFHE state — shared RNG, mutated
ciphertext, clobbered key material — would break the second evaluation.
"""

import numpy as np
import pytest

from repro.bfv import (
    BFVDecryptor,
    BFVEncoder,
    BFVEncryptor,
    BFVEvaluator,
    BFVKeyGenerator,
    BFVParams,
)
from repro.compiler.bfv_programs import bfv_cmult_program
from repro.compiler.ckks_programs import cmult_program, rotation_program
from repro.compiler.tfhe_programs import pbs_batch_program
from repro.sim.engine import EventDrivenSimulator
from repro.sim.faults import (
    CAMPAIGNS,
    FaultInjector,
    POLICY_PRESETS,
    build_campaign,
    campaign_seed,
)
from repro.tfhe.gates import TFHEGates

#: Every non-empty campaign preset, exercised per scheme.
ACTIVE_CAMPAIGNS = tuple(c for c in CAMPAIGNS if c != "none")


def _run_campaigns(program, seed: int = 0) -> int:
    """Run every active campaign over ``program`` in the event engine.

    Returns the number of injector fault events observed (so callers can
    assert the campaigns actually did something) and checks the timing
    contract on the way: a never-aborting policy only slows programs down.
    """
    engine = EventDrivenSimulator()
    baseline = engine.run(program).makespan_cycles
    events = 0
    for campaign in ACTIVE_CAMPAIGNS:
        model = build_campaign(campaign, campaign_seed(seed, program.name),
                               baseline, config=engine.config)
        injector = FaultInjector(model,
                                 policy=POLICY_PRESETS["retry-degrade"])
        mix = engine.run(program, injector=injector)
        assert not injector.aborted
        assert mix.makespan_cycles >= baseline - 1e-9
        events += len(injector.events)
    return events


# ------------------------------- CKKS ----------------------------------- #


def _ckks_dot8(stack, ct_a, ct_b):
    """Dot product over 8 adjacent slot groups: mult-rescale, then a
    rotate-and-add reduction with steps 1, 2, 4."""
    acc = stack.evaluator.multiply_rescale(ct_a, ct_b)
    for step in (1, 2, 4):
        acc = stack.evaluator.add(acc, stack.evaluator.rotate(acc, step))
    return stack.decryptor.decrypt(acc)


def test_ckks_dot_product_unchanged_by_faults(ckks512_stack):
    slots = ckks512_stack.params.n // 2
    rng = np.random.default_rng(0xD07)
    a = rng.uniform(-1, 1, slots)
    b = rng.uniform(-1, 1, slots)
    ct_a = ckks512_stack.encryptor.encrypt_values(a)
    ct_b = ckks512_stack.encryptor.encrypt_values(b)

    before = _ckks_dot8(ckks512_stack, ct_a, ct_b)
    fired = sum(_run_campaigns(p) for p in
                (cmult_program(), rotation_program()))
    after = _ckks_dot8(ckks512_stack, ct_a, ct_b)

    assert fired > 0                             # campaigns actually fired
    assert np.array_equal(before, after)         # bit-exact, not approx
    # and the evaluation itself is correct (sanity, approximate scheme)
    want = (a * b).reshape(-1)
    expect = sum(np.roll(want, -s) for s in range(8))
    np.testing.assert_allclose(before.real[::8], expect[::8], atol=1e-2)


# ------------------------------- BFV ------------------------------------ #


BFV_PARAMS = BFVParams(n=64, num_primes=3, dnum=2, hamming_weight=16)


@pytest.fixture(scope="module")
def bfv_stack():
    rng = np.random.default_rng(0xFA17)
    encoder = BFVEncoder(BFV_PARAMS.n, BFV_PARAMS.plain_modulus)
    keygen = BFVKeyGenerator(BFV_PARAMS, rng)
    encryptor = BFVEncryptor(BFV_PARAMS, rng, keygen.public_key(), encoder)
    decryptor = BFVDecryptor(BFV_PARAMS, keygen.secret_key(), encoder)
    evaluator = BFVEvaluator(BFV_PARAMS, relin_key=keygen.relin_key())
    return encryptor, decryptor, evaluator


def _bfv_add_mul(decryptor, evaluator, ct_x, ct_y):
    ct_sum = evaluator.add(ct_x, ct_y)
    ct_prod = evaluator.relinearize(evaluator.multiply(ct_x, ct_y))
    return (decryptor.decrypt_values(ct_sum),
            decryptor.decrypt_values(ct_prod))


def test_bfv_add_mul_unchanged_by_faults(bfv_stack):
    encryptor, decryptor, evaluator = bfv_stack
    t = BFV_PARAMS.plain_modulus
    rng = np.random.default_rng(7)
    x = rng.integers(0, t, BFV_PARAMS.n)
    y = rng.integers(0, t, BFV_PARAMS.n)
    ct_x = encryptor.encrypt_values(x)
    ct_y = encryptor.encrypt_values(y)

    sum_before, prod_before = _bfv_add_mul(decryptor, evaluator, ct_x, ct_y)
    fired = _run_campaigns(bfv_cmult_program(), seed=1)
    sum_after, prod_after = _bfv_add_mul(decryptor, evaluator, ct_x, ct_y)

    assert fired > 0
    assert np.array_equal(sum_before, sum_after)
    assert np.array_equal(prod_before, prod_after)
    # BFV is exact: the decryptions equal the plaintext arithmetic mod t
    assert np.array_equal(sum_before, (x + y) % t)
    assert np.array_equal(prod_before, (x * y) % t)


# ------------------------------- TFHE ----------------------------------- #


def test_tfhe_gates_unchanged_by_faults(tfhe_kit):
    gates = TFHEGates(tfhe_kit)
    cases = [(False, False), (False, True), (True, False), (True, True)]
    cts = [(gates.encrypt_bit(x), gates.encrypt_bit(y)) for x, y in cases]

    def evaluate():
        out = []
        for (cx, cy), (x, y) in zip(cts, cases):
            out.append((
                gates.decrypt_bit(gates.gate_nand(cx, cy)),
                gates.decrypt_bit(gates.gate_and(cx, cy)),
                gates.decrypt_bit(gates.gate_or(cx, cy)),
                gates.decrypt_bit(gates.gate_xor(cx, cy)),
                gates.decrypt_bit(gates.gate_mux(cx, cx, cy)),
            ))
        return out

    before = evaluate()
    fired = _run_campaigns(pbs_batch_program(), seed=2)
    after = evaluate()

    assert fired > 0
    assert before == after
    for row, (x, y) in zip(before, cases):
        assert row == (not (x and y), x and y, x or y, x != y,
                       x if x else y)


# ------------------------- empty model, full stack ----------------------- #


def test_empty_model_differential_noop(ckks512_stack):
    """The degenerate campaign ("none") runs the whole differential path
    and still changes nothing — including producing zero fault events."""
    values = np.linspace(-1, 1, ckks512_stack.params.n // 2)
    ct = ckks512_stack.encryptor.encrypt_values(values)
    before = ckks512_stack.decryptor.decrypt(ct)

    program = cmult_program()
    engine = EventDrivenSimulator()
    baseline = engine.run(program).makespan_cycles
    model = build_campaign("none", 0, baseline, config=engine.config)
    assert model.is_empty()
    injector = FaultInjector(model)
    mix = engine.run(program, injector=injector)
    assert mix.makespan_cycles == baseline
    assert not injector.events

    after = ckks512_stack.decryptor.decrypt(ct)
    assert np.array_equal(before, after)
