"""Transform census of one blind rotation against the PBS program.

The functional blind rotation must transform the channel-rows that
``pbs_batch_program`` charges.  The kernel backend is wrapped with a
counting delegate (``kernel_rows``), so every NTT row the torus products
hand to a kernel is counted where it is computed.
"""

from repro.compiler.ops import OpKind
from repro.compiler.tfhe_programs import TFHEWorkload, pbs_batch_program
from repro.tfhe.bootstrap import make_sign_test_polynomial
from repro.tfhe.params import TEST_PARAMS
from repro.tfhe.torus import TORUS_MODULUS

#: The split key is two 16-bit halves on one prime; each half's row sums
#: are transformed back on their own before the halves are joined.
KEY_HALVES = 2


def test_blind_rotation_transform_census(tfhe_kit, kernel_rows):
    sample = tfhe_kit.encrypt(TORUS_MODULUS // 8)
    tv = make_sign_test_polynomial(TEST_PARAMS, TORUS_MODULUS // 8)
    rows = kernel_rows(lambda: tfhe_kit.blind_rotate(sample, tv))

    wl = TFHEWorkload(
        lwe_dim=TEST_PARAMS.lwe_dim,
        ring_degree=TEST_PARAMS.ring_degree,
        decomp_length=TEST_PARAMS.decomp_length,
        ks_length=TEST_PARAMS.ks_length,
    )
    program = pbs_batch_program(wl, batch=1)
    rot_ntt = program.ops_of_kind(OpKind.NTT)[0]
    rot_intt = program.ops_of_kind(OpKind.INTT)[0]
    # 64 steps x 2l = 6 digit rows, each transformed once mod one prime
    assert rot_ntt.channels == 384
    assert rows["ntt_forward"] == rot_ntt.channels
    # 64 steps x (k + 1) = 2 outputs, one row per key half
    assert rot_intt.channels == 128
    assert rows["ntt_inverse"] == KEY_HALVES * rot_intt.channels
