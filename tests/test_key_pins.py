"""Pins of the keys every generator makes, from fixed seeds.

Each key is drawn from its own fixed generator (not the suite's master
seed, so the pins hold under ``REPRO_TEST_SEED``), once with and once
without ``expand_seed``, and pinned by the first 16 hex digits of a
SHA-256 over every array (dtype, shape, bytes), prime chain, NTT flag,
seed and parameter field of the key object:

* CKKS secret, public, relinearization and Galois keys, at the
  ``ckks-bootstrap`` parameters and at one ``dnum = 4`` chain;
* BFV secret, public, relinearization and Galois keys;
* a ``TEST_PARAMS`` ``BootstrapKit``: the LWE and ring keys, every
  bootstrapping-key row with both spectra, the keyswitch table, and an
  ``LwePublicKey``.

A change to key generation that keeps every pin draws the random stream
in the same order and computes every key bit for bit as before.  Kernel
backends are bit-identical, so the pins hold on each of them.
"""

import numpy as np
import pytest

from repro.bfv import BFVKeyGenerator, BFVParams
from repro.ckks.keys import CKKSKeyGenerator
from repro.ckks.params import CKKSParams
from repro.tfhe.bootstrap import BootstrapKit
from repro.tfhe.lwe import LwePublicKey
from repro.tfhe.params import TEST_PARAMS
from tests.test_serialization_format import loaded_digest

#: The ``ckks-bootstrap`` workload's parameters.
CKKS_BOOT = CKKSParams(n=128, num_levels=16, dnum=2, hamming_weight=16)
#: A chain whose levels split into up to four digits, the last ones short.
CKKS_DNUM4 = CKKSParams(n=32, num_levels=7, dnum=4, hamming_weight=8)
BFV = BFVParams(n=64, num_primes=4, dnum=3)
EXPAND_SEED = 0x5EED

#: key name -> digest, taken before key generation was batched.
PINS = {
    "bfv.galois": "a9162d7975b489c2",
    "bfv.pk": "db04fe8a1a6ea30d",
    "bfv.relin": "dec365d3bfbc5f93",
    "bfv.sk": "71a30c811a2d7680",
    "bfv_seeded.galois": "8a8c87ab30433f39",
    "bfv_seeded.pk": "082087b2b3b514bf",
    "bfv_seeded.relin": "d07f7745fbe6457a",
    "bfv_seeded.sk": "71a30c811a2d7680",
    "ckks_boot.galois": "e4d45fd421f9d842",
    "ckks_boot.pk": "ed4bb672a52863ba",
    "ckks_boot.relin": "1f1ccc73099bee29",
    "ckks_boot.sk": "ffb80a657c2b0219",
    "ckks_boot_seeded.galois": "b7bfcb2def7b6e89",
    "ckks_boot_seeded.pk": "4a59ab28a80e2d29",
    "ckks_boot_seeded.relin": "3fc0f45bb5dcb4fa",
    "ckks_boot_seeded.sk": "ffb80a657c2b0219",
    "ckks_dnum4.galois": "756fbfbacba5d757",
    "ckks_dnum4.pk": "86ee8de9e24996ba",
    "ckks_dnum4.relin": "1c62274f05765ff6",
    "ckks_dnum4.sk": "881149089387bcd7",
    "ckks_dnum4_seeded.galois": "6a0a58abf35b3640",
    "ckks_dnum4_seeded.pk": "2dac0b25cb1e0daf",
    "ckks_dnum4_seeded.relin": "c94e6545e1d2581c",
    "ckks_dnum4_seeded.sk": "881149089387bcd7",
    "tfhe.bsk": "8f9b21d00e04f343",
    "tfhe.ksk": "79a45bdca605730b",
    "tfhe.lwe_key": "784813a620c2a67e",
    "tfhe.lwe_pk": "c47f6143c66a4ffa",
    "tfhe.ring_key": "70710275c06f67e3",
    "tfhe_seeded.bsk": "7ec548dc1a1d44d7",
    "tfhe_seeded.ksk": "96cde00c6445bc88",
    "tfhe_seeded.lwe_key": "784813a620c2a67e",
    "tfhe_seeded.lwe_pk": "b9678a99383eb022",
    "tfhe_seeded.ring_key": "70710275c06f67e3",
}


def _ckks_keys(params, seed, expand_seed, rotations):
    keygen = CKKSKeyGenerator(params, np.random.default_rng(seed),
                              expand_seed=expand_seed)
    sk, pk, relin = keygen.secret_key(), keygen.public_key(), keygen.relin_key()
    galois = keygen.rotation_key(rotations)
    galois.keys.update(keygen.conjugation_key().keys)
    return {"sk": sk, "pk": pk, "relin": relin, "galois": galois}


def _bfv_keys(seed, expand_seed):
    keygen = BFVKeyGenerator(BFV, np.random.default_rng(seed),
                             expand_seed=expand_seed)
    return {"sk": keygen.secret_key(), "pk": keygen.public_key(),
            "relin": keygen.relin_key(),
            "galois": keygen.galois_keys([3, 5, 2 * BFV.n - 1])}


def _tfhe_keys(seed, expand_seed):
    rng = np.random.default_rng(seed)
    kit = BootstrapKit(TEST_PARAMS, rng, expand_seed=expand_seed)
    return {"lwe_key": kit.lwe_key, "ring_key": kit.ring_key,
            "bsk": kit.bootstrap_key, "ksk": kit.keyswitch_key,
            "lwe_pk": LwePublicKey.generate(kit.lwe_key, rng)}


def _keys():
    """Every pinned key, by name."""
    sets = {}
    for suffix, expand_seed in (("", None), ("_seeded", EXPAND_SEED)):
        sets["ckks_boot" + suffix] = _ckks_keys(
            CKKS_BOOT, 0xB007, expand_seed, [1, 2, 16, 63])
        sets["ckks_dnum4" + suffix] = _ckks_keys(
            CKKS_DNUM4, 0xD4, expand_seed, [1, 3])
        sets["bfv" + suffix] = _bfv_keys(0xBF, expand_seed)
        sets["tfhe" + suffix] = _tfhe_keys(0x7F, expand_seed)
    return {f"{prefix}.{name}": key for prefix, keys in sets.items()
            for name, key in keys.items()}


@pytest.fixture(scope="module")
def keys():
    return _keys()


def test_every_key_is_pinned(keys):
    assert sorted(keys) == sorted(PINS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_key_is_pinned(keys, name):
    assert loaded_digest(keys[name]) == PINS[name]


def test_pins_cover_both_seedings(keys):
    """The seeded keys carry their seed, and differ from the unseeded."""
    for name, key in keys.items():
        if hasattr(key, "expand_seed"):
            seeded = name.split(".")[0].endswith("_seeded")
            assert key.expand_seed == (EXPAND_SEED if seeded else None), name
    assert PINS["tfhe.bsk"] != PINS["tfhe_seeded.bsk"]
    assert PINS["ckks_boot.relin"] != PINS["ckks_boot_seeded.relin"]


def test_digest_sees_every_bootstrapping_key_spectrum(keys):
    """A flipped residue in one row's spectrum changes the digest."""
    bsk = keys["tfhe.bsk"]
    sample = bsk.trgsw_samples[-1]
    assert sample.spectra_a.shape == sample.spectra_b.shape == (
        2, 2 * TEST_PARAMS.decomp_length, TEST_PARAMS.ring_degree)
    before = loaded_digest(bsk)
    sample.spectra_b[1, -1, -1] ^= np.uint64(1)
    try:
        assert loaded_digest(bsk) != before
    finally:
        sample.spectra_b[1, -1, -1] ^= np.uint64(1)
    assert loaded_digest(bsk) == before

