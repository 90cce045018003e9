"""Cross-layer integration tests: the functional cryptography and the
performance compiler must describe the *same* computation.

These tests instrument the functional evaluators (counting real Bconv
calls, NTT channel-transforms, evaluation-key bytes) and compare against
the operator counts the compiler emits for the simulator — the property
that makes the performance results trustworthy.
"""

import numpy as np
import pytest

from repro.ckks.encoder import CKKSEncoder
from repro.ckks.encryptor import CKKSEncryptor
from repro.ckks.evaluator import CKKSEvaluator
from repro.ckks.keys import CKKSKeyGenerator
from repro.ckks.params import CKKSParams
from repro.compiler.ckks_programs import CKKSWorkload, keyswitch_program
from repro.compiler.ops import OpKind
from repro.compiler.tfhe_programs import TFHEWorkload, pbs_batch_program

PARAMS = CKKSParams(n=256, num_levels=4, dnum=2, hamming_weight=16)


@pytest.fixture(scope="module")
def ckks_stack():
    rng = np.random.default_rng(0x17)
    encoder = CKKSEncoder(PARAMS.n, PARAMS.scale)
    keygen = CKKSKeyGenerator(PARAMS, rng)
    evaluator = CKKSEvaluator(PARAMS, encoder, relin_key=keygen.relin_key())
    encryptor = CKKSEncryptor(
        PARAMS, encoder, rng, public_key=keygen.public_key())
    return encryptor, evaluator, keygen, rng


def test_functional_bconv_count_matches_compiler(ckks_stack, monkeypatch):
    """A real relinearization converts exactly the polynomials the
    compiled keyswitch program models (dnum Modups + 2 Moddowns); the two
    Moddown polynomials are one call over both parts."""
    from repro.kernels import get_backend

    encryptor, evaluator, _, rng = ckks_stack
    calls = []
    backend = get_backend()
    real_bconv = backend.bconv

    def counting_bconv(x, source, target):
        for _ in range(x.shape[-1] // PARAMS.n):   # polynomials converted
            calls.append((tuple(source), tuple(target)))
        return real_bconv(x, source, target)

    # every conversion — the keyswitch digit raise and the moddown-internal
    # one — funnels through the active kernel backend's bconv
    monkeypatch.setattr(backend, "bconv", counting_bconv)

    z = rng.normal(size=PARAMS.slots)
    ct = encryptor.encrypt_values(z)
    evaluator.multiply(ct, ct)  # includes one keyswitch (relinearize)

    level = PARAMS.num_levels
    wl = CKKSWorkload(n=PARAMS.n, num_levels=level, dnum=PARAMS.dnum)
    program = keyswitch_program(wl, level=level)
    modeled = 0
    for op in program.ops_of_kind(OpKind.BCONV):
        modeled += op.polys
    assert len(calls) == modeled
    # the shapes match too: dnum digit conversions (sources inside the
    # chain) + 2 moddown conversions (source = the special primes)
    special = PARAMS.special_primes
    moddown_calls = [c for c in calls if c[0] == special]
    digit_calls = [c for c in calls if c[0] != special]
    assert len(digit_calls) == wl.digits(level)
    assert len(moddown_calls) == 2
    for source, target in digit_calls:
        assert set(source) <= set(PARAMS.primes_at_level(level))
        assert set(target) & set(special)  # converts into the P basis


def test_switching_key_bytes_match_compiler_model(ckks_stack):
    """The evk bytes the simulator streams equal the real key material."""
    _, _, keygen, _ = ckks_stack
    relin = keygen.relin_key()
    level = PARAMS.num_levels
    pairs = relin.levels[level].pairs
    word_bytes = 4.5
    actual = sum(
        (b.data.shape[0] + a.data.shape[0]) * PARAMS.n * word_bytes
        for b, a in pairs
    )
    wl = CKKSWorkload(n=PARAMS.n, num_levels=level, dnum=PARAMS.dnum)
    assert actual == pytest.approx(wl.evk_bytes(level))


def test_functional_pbs_transform_count_matches_compiler(monkeypatch):
    """A real blind rotation performs the NTT channel-transforms the PBS
    program models: ``rows`` forward + ``k+1`` inverse per iteration."""
    from repro.tfhe.bootstrap import BootstrapKit
    from repro.tfhe.params import TEST_PARAMS
    from repro.tfhe.polymul import TorusNTT
    from repro.tfhe.torus import TORUS_MODULUS

    rng = np.random.default_rng(0x99)
    kit = BootstrapKit(TEST_PARAMS, rng)

    counts = {"forward": 0, "inverse": 0}
    real_fwd = TorusNTT.mul_sum_multi

    def counting_mul_sum_multi(self, u, specs):
        u_arr = np.asarray(u)
        rows = 1 if u_arr.ndim == 1 else u_arr.shape[0]
        counts["forward"] += rows
        counts["inverse"] += len(specs)
        return real_fwd(self, u, specs)

    monkeypatch.setattr(TorusNTT, "mul_sum_multi", counting_mul_sum_multi)

    sample = kit.encrypt(TORUS_MODULUS // 8)
    from repro.tfhe.bootstrap import make_sign_test_polynomial

    tv = make_sign_test_polynomial(kit.params, TORUS_MODULUS // 8)
    kit.blind_rotate(sample, tv)

    wl = TFHEWorkload(
        lwe_dim=TEST_PARAMS.lwe_dim,
        ring_degree=TEST_PARAMS.ring_degree,
        decomp_length=TEST_PARAMS.decomp_length,
        ks_length=TEST_PARAMS.ks_length,
    )
    program = pbs_batch_program(wl, batch=1)
    modeled_fwd = program.ops_of_kind(OpKind.NTT)[0].channels
    modeled_inv = program.ops_of_kind(OpKind.INTT)[0].channels
    assert counts["forward"] == modeled_fwd
    assert counts["inverse"] == modeled_inv


def test_bsk_bytes_match_compiler_model():
    """The streamed bootstrapping-key bytes equal the real key material."""
    from repro.tfhe.bootstrap import BootstrapKit
    from repro.tfhe.params import TEST_PARAMS

    rng = np.random.default_rng(0xAB)
    kit = BootstrapKit(TEST_PARAMS, rng)
    actual = sum(
        (row.a.nbytes + row.b.nbytes)
        for gsw in kit.bootstrap_key.trgsw_samples
        for row in gsw.rows
    )
    wl = TFHEWorkload(
        lwe_dim=TEST_PARAMS.lwe_dim,
        ring_degree=TEST_PARAMS.ring_degree,
        decomp_length=TEST_PARAMS.decomp_length,
    )
    assert actual == wl.bsk_bytes()


def test_end_to_end_program_vs_functional_semantics(ckks_stack):
    """The compiled Cmult program and the functional evaluator agree on
    structural invariants: one relinearization keyswitch, one rescale,
    the level drops by one, evk streamed once."""
    from repro.compiler.ckks_programs import cmult_program

    encryptor, evaluator, _, rng = ckks_stack
    z = rng.normal(size=PARAMS.slots)
    ct = encryptor.encrypt_values(z)
    out = evaluator.multiply_rescale(ct, ct)
    assert out.level == ct.level - 1

    wl = CKKSWorkload(
        n=PARAMS.n, num_levels=PARAMS.num_levels, dnum=PARAMS.dnum)
    program = cmult_program(wl, level=PARAMS.num_levels)
    assert len(program.ops_of_kind(OpKind.HBM_LOAD)) == 1
    assert len(program.ops_of_kind(OpKind.DECOMP_POLY_MULT)) == 1
