"""TFHE: the logic FHE scheme (programmable bootstrapping over the torus).

A complete discretized-torus (Torus32) TFHE implementation: LWE and ring-LWE
(TRLWE) encryption, TRGSW external products and CMux, blind rotation, sample
extraction, LWE keyswitching, programmable bootstrapping, and the
homomorphic gate library.  Negacyclic polynomial products use an exact
NTT on one prime with the key held as two 16-bit halves, or on two primes
with a CRT lift where the digits are too wide to split against
(:mod:`repro.tfhe.polymul`); bit-exact, unlike the floating-point FFT of
TFHE-lib.
"""

from repro.tfhe.params import (
    TFHEParams,
    PARAM_SET_I,
    PARAM_SET_II,
    TEST_PARAMS,
)
from repro.tfhe.torus import (
    TORUS_MODULUS,
    double_to_torus,
    torus_to_double,
    encode_message,
    decode_message,
)
from repro.tfhe.lwe import LweKey, LwePublicKey, LweSample, lwe_encrypt, lwe_decrypt_phase
from repro.tfhe.trlwe import TrlweKey, TrlweSample
from repro.tfhe.trgsw import TrgswKey, TrgswSample
from repro.tfhe.bootstrap import BootstrapKit, BootstrappingKey, KeyswitchKey
from repro.tfhe.gates import TFHEGates
from repro.tfhe.lut import cmux_tree_lookup, encrypt_index_bits, public_table_to_trlwe

__all__ = [
    "TFHEParams",
    "PARAM_SET_I",
    "PARAM_SET_II",
    "TEST_PARAMS",
    "TORUS_MODULUS",
    "double_to_torus",
    "torus_to_double",
    "encode_message",
    "decode_message",
    "LweKey",
    "LwePublicKey",
    "LweSample",
    "lwe_encrypt",
    "lwe_decrypt_phase",
    "TrlweKey",
    "TrlweSample",
    "TrgswKey",
    "TrgswSample",
    "BootstrapKit",
    "BootstrappingKey",
    "KeyswitchKey",
    "TFHEGates",
    "cmux_tree_lookup",
    "encrypt_index_bits",
    "public_table_to_trlwe",
]
