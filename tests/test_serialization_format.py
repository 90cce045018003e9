"""Format pins for :mod:`repro.serialization`: 22 blobs from fixed seeds.

Each blob kind is saved raw and, where it has one, in the compressed
``seeded/v1`` form, from keys and ciphertexts drawn from fixed seeds (not
the suite's master seed, so the pins hold under ``REPRO_TEST_SEED``).
Every blob carries two pinned digests:

* **container** — what ``np.load`` reads back: the sorted member names,
  each member's dtype, shape and bytes, and the parsed meta as sorted-key
  JSON.  The file bytes themselves are not pinned; they depend on the
  zlib build.
* **loaded** — what the loader returns: every array (dtype, shape,
  bytes), prime chain, NTT flag, scale, seed and parameter field of the
  returned object, with the Python and numpy scalar types.

A change to the serialization code that keeps both digests of every blob
writes the same containers and reads them back to the same objects, so
files written before and after the change load in either version.
"""

import dataclasses
import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro import serialization as ser
from repro.ckks.encoder import CKKSEncoder
from repro.ckks.encryptor import Ciphertext, CKKSEncryptor
from repro.ckks.evaluator import CKKSEvaluator
from repro.ckks.keys import CKKSKeyGenerator
from repro.ckks.params import CKKSParams
from repro.rns.keyswitch import SwitchingKey
from repro.rns.rns_poly import RNSPoly
from repro.tfhe.bootstrap import BootstrapKit
from repro.tfhe.lwe import lwe_encrypt
from repro.tfhe.params import TEST_PARAMS

PARAMS = CKKSParams(n=128, num_levels=3, dnum=2, hamming_weight=16)
EXPAND_SEED = 0xF0A7
MU = 1 << 29

#: blob name -> (container digest, loaded digest), taken before the
#: single-schema rewrite of repro.serialization.
PINS = {
    "ct3.raw": ("9f8228399e57ab10", "909dd5e6b4a6dae9"),
    "ct3.z": ("232b1567fc5dc387", "909dd5e6b4a6dae9"),
    "ct_l1.raw": ("8cb3ac6d6df7f90f", "3ee911749bbb0121"),
    "ct_l1.z": ("adc80eb058a8fac9", "3ee911749bbb0121"),
    "ct_pk.raw": ("d0f103f44f2982af", "4ad12a756d549524"),
    "ct_pk.z": ("8cd5afffe5cf5ce0", "4ad12a756d549524"),
    "ct_sym.raw": ("22d41cb26a8b7c7e", "d4d9e36caaf8650f"),
    "ct_sym.z": ("6d8b9a257cac9b16", "fc56f09ad5662648"),
    "galois.raw": ("30ab43f2875913e0", "23d486d4553f2c6a"),
    "galois.z": ("54622e984d103e76", "22bc77cd312cd729"),
    "ksk.raw": ("705b6f393661829b", "002722809bd68a81"),
    "ksk.z": ("6a168bca22fe364e", "0b8c6731c8f18c16"),
    "lwe_key.raw": ("3bf270638e94b545", "402d6722c0a1270c"),
    "lwe_plain.raw": ("a3f8756c27b72561", "7368f2c71ccd9b55"),
    "lwe_seeded.raw": ("d5fcfebc5d972e30", "7284582bff7497ad"),
    "lwe_seeded.z": ("261d70076a1c12a8", "80b19fc904f3a5eb"),
    "pk.raw": ("61d32b4297f51d4e", "f94c7dbbf7b3fa37"),
    "pk.z": ("b37b303454937b6e", "96c2babcc2f0399a"),
    "relin.raw": ("ba45790be560cfeb", "cd533eb4bc4c791d"),
    "relin.z": ("70b1d51748521688", "cbc0093510b44207"),
    "sk.raw": ("eb18a0fb7f3b20b3", "34426308d5c024d0"),
    "sk.z": ("19b1d0bf83286ab1", "34426308d5c024d0"),
}


def _objects():
    """Every object the pins save, drawn in one fixed order."""
    rng = np.random.default_rng(0xF0A7)
    encoder = CKKSEncoder(PARAMS.n, PARAMS.scale)
    keygen = CKKSKeyGenerator(PARAMS, rng, expand_seed=EXPAND_SEED)
    sk, pk = keygen.secret_key(), keygen.public_key()
    relin = keygen.relin_key()
    galois = keygen.rotation_key([1, 2])
    galois.keys.update(keygen.conjugation_key().keys)
    encryptor = CKKSEncryptor(PARAMS, encoder, rng, public_key=pk,
                              secret_key=sk, expand_seed=EXPAND_SEED)
    z = np.linspace(-1, 1, PARAMS.slots)
    ct_pk = encryptor.encrypt_values(z)
    ct_sym = encryptor.encrypt_symmetric(encryptor.encode(z))
    ct_l1 = encryptor.encrypt_values(z, level=1)
    ct3 = CKKSEvaluator(PARAMS, encoder).multiply(ct_pk, ct_sym, relin=False)

    kit = BootstrapKit(TEST_PARAMS, np.random.default_rng(0x7F3E),
                       expand_seed=EXPAND_SEED)
    return SimpleNamespace(
        ct_pk=ct_pk, ct_sym=ct_sym, ct_l1=ct_l1, ct3=ct3, sk=sk, pk=pk,
        relin=relin, galois=galois, ksk=kit.keyswitch_key,
        lwe_seeded=kit.encrypt(MU),
        lwe_plain=lwe_encrypt(MU, kit.lwe_key, np.random.default_rng(0x1E)),
        lwe_key=kit.lwe_key)


def _blobs(objs):
    """blob name -> (save callable taking a path, loader)."""
    blobs = {}
    for name, save, load in (
            ("ct_pk", ser.save_ciphertext, ser.load_ciphertext),
            ("ct_sym", ser.save_ciphertext, ser.load_ciphertext),
            ("ct_l1", ser.save_ciphertext, ser.load_ciphertext),
            ("ct3", ser.save_ciphertext, ser.load_ciphertext),
            ("sk", ser.save_secret_key, ser.load_secret_key),
            ("pk", ser.save_public_key, ser.load_public_key),
            ("relin", ser.save_relin_key, ser.load_relin_key),
            ("galois", ser.save_galois_key, ser.load_galois_key),
            ("ksk", ser.save_tfhe_keyswitch_key,
             ser.load_tfhe_keyswitch_key)):
        obj = getattr(objs, name)
        for compressed in (False, True):
            tag = f"{name}.{'z' if compressed else 'raw'}"
            blobs[tag] = (
                lambda p, s=save, o=obj, c=compressed: s(p, o, compressed=c),
                load)
    for compressed in (False, True):
        blobs[f"lwe_seeded.{'z' if compressed else 'raw'}"] = (
            lambda p, c=compressed: ser.save_lwe_sample(
                p, objs.lwe_seeded, TEST_PARAMS, compressed=c),
            ser.load_lwe_sample)
    blobs["lwe_plain.raw"] = (
        lambda p: ser.save_lwe_sample(p, objs.lwe_plain, TEST_PARAMS),
        ser.load_lwe_sample)
    blobs["lwe_key.raw"] = (lambda p: ser.save_lwe_key(p, objs.lwe_key),
                            ser.load_lwe_key)
    return blobs


def _feed(h, obj) -> None:
    """Hash ``obj`` with its types: arrays by dtype, shape and bytes."""
    if isinstance(obj, (np.ndarray, np.generic)):
        a = np.ascontiguousarray(obj)
        h.update(f"{type(obj).__name__}:{a.dtype}:{a.shape}:".encode())
        h.update(a.tobytes())
    elif isinstance(obj, RNSPoly):
        _feed(h, ("RNSPoly", obj.primes, obj.ntt_form, obj.data))
    elif isinstance(obj, SwitchingKey):
        _feed(h, ("SwitchingKey", obj.primes, obj.data))
    elif isinstance(obj, Ciphertext):
        _feed(h, ("Ciphertext", obj.parts, obj.scale, obj.params,
                  obj.seed_meta))
    elif dataclasses.is_dataclass(obj):
        _feed(h, (type(obj).__name__,) + tuple(
            (f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)))
    elif isinstance(obj, dict):
        _feed(h, ("dict", sorted(obj.items())))
    elif isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__}[{len(obj)}]".encode())
        for item in obj:
            _feed(h, item)
    else:
        h.update(f"{type(obj).__name__}:{obj!r};".encode())


def loaded_digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()[:16]


def container_digest(path) -> str:
    h = hashlib.sha256()
    with np.load(path, allow_pickle=False) as blob:
        for name in sorted(blob.files):
            if name == "meta":
                meta = json.loads(bytes(blob["meta"]).decode())
                h.update(b"meta:" + json.dumps(meta, sort_keys=True).encode())
            else:
                _feed(h, (name, blob[name]))
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """blob name -> (path, loader), every blob written once."""
    root = tmp_path_factory.mktemp("format")
    out = {}
    for name, (save, load) in _blobs(_objects()).items():
        path = root / f"{name}.npz"
        save(path)
        out[name] = (path, load)
    return out


def test_every_blob_is_pinned(saved):
    assert len(saved) == 22
    assert sorted(saved) == sorted(PINS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_container_is_pinned(saved, name):
    path, _ = saved[name]
    assert container_digest(path) == PINS[name][0]


@pytest.mark.parametrize("name", sorted(PINS))
def test_loaded_object_is_pinned(saved, name):
    path, load = saved[name]
    assert loaded_digest(load(path)) == PINS[name][1]
