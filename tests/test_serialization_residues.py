"""Loaders return residues below their channel's prime, or fail.

A raw RNS member (a ciphertext part, the secret key, either half of the
public key, either half of a switching-key digit) is stored as uint64
rows, one per channel of its basis.  A value ``>= q`` in the row of prime
``q`` is no residue mod ``q``: a ciphertext whose ``part0[0, 0]`` is
``2**64 - 1`` decrypts with slot errors above ``1e31``.  Every loader must
refuse such a member with :class:`ValueError`, and must bound each row by
its own prime, not by the widest prime of the basis.  A member stored
small (one int64 row) is reduced over each prime on load, so it is in
range by construction and must come back as the residues that were saved.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import serialization as ser
from repro.ckks.encoder import CKKSEncoder
from repro.ckks.encryptor import Ciphertext, CKKSEncryptor
from repro.ckks.keys import CKKSKeyGenerator
from repro.ckks.params import CKKSParams
from repro.rns.rns_poly import RNSRing

PARAMS = CKKSParams(n=128, num_levels=3, dnum=2, hamming_weight=16)
EXPAND_SEED = 0x5EED
TOP = PARAMS.num_levels


def _extended(level):
    return PARAMS.primes_at_level(level) + PARAMS.special_primes


@pytest.fixture(scope="module")
def keys():
    rng = np.random.default_rng(0x2E5)
    keygen = CKKSKeyGenerator(PARAMS, rng, expand_seed=EXPAND_SEED)
    encryptor = CKKSEncryptor(
        PARAMS, CKKSEncoder(PARAMS.n, PARAMS.scale), rng,
        public_key=keygen.public_key(), secret_key=keygen.secret_key(),
        expand_seed=EXPAND_SEED)
    galois = keygen.rotation_key([1])
    return SimpleNamespace(
        ciphertext=encryptor.encrypt_symmetric(
            encryptor.encode(np.linspace(-1, 1, PARAMS.slots))),
        secret_key=keygen.secret_key(), public_key=keygen.public_key(),
        relin_key=keygen.relin_key(), galois_key=galois,
        g=min(galois.galois_elements()))


#: (blob kind, compressed, member, primes of the member's channels); the
#: Galois member names take the key's element ``g``.
CASES = [
    ("ciphertext", False, "part0", PARAMS.base_primes),
    ("ciphertext", False, "part1", PARAMS.base_primes),
    ("ciphertext", True, "part0", PARAMS.base_primes),
    ("secret_key", False, "s", PARAMS.all_primes),
    ("public_key", False, "b", PARAMS.base_primes),
    ("public_key", False, "a", PARAMS.base_primes),
    ("public_key", True, "b", PARAMS.base_primes),
    ("relin_key", False, "l0_d0_b", _extended(0)),
    ("relin_key", False, f"l{TOP}_d1_a", _extended(TOP)),
    ("relin_key", True, f"l{TOP}_d1_b", _extended(TOP)),
    ("galois_key", False, "g{g}_l1_d0_b", _extended(1)),
    ("galois_key", False, "g{g}_l1_d0_a", _extended(1)),
    ("galois_key", True, f"g{{g}}_l{TOP}_d0_b", _extended(TOP)),
]
IDS = [f"{kind}-{'z' if z else 'raw'}-{member.replace('{g}', '')}"
       for kind, z, member, _ in CASES]


def _saved_with(keys, tmp_path, kind, compressed, member, edit):
    """Save ``kind``, apply ``edit`` to a copy of ``member`` in the file,
    and return the loader and the rewritten path."""
    save = getattr(ser, f"save_{kind}")
    load = getattr(ser, f"load_{kind}")
    path = tmp_path / f"{kind}.npz"
    save(path, getattr(keys, kind), compressed=compressed)
    with np.load(path, allow_pickle=False) as blob:
        arrays = {k: blob[k] for k in blob.files}
    name = member.format(g=keys.g)
    data = arrays[name].copy()
    assert data.dtype == np.uint64 and data.ndim == 2
    edit(data)
    arrays[name] = data
    np.savez_compressed(path, **arrays)
    return load, path


@pytest.mark.parametrize("kind,compressed,member,primes", CASES, ids=IDS)
def test_an_all_ones_residue_is_rejected(keys, tmp_path, kind, compressed,
                                         member, primes):
    def edit(data):
        data[0, 0] = np.uint64(2**64 - 1)
    load, path = _saved_with(keys, tmp_path, kind, compressed, member, edit)
    with pytest.raises(ValueError, match="prime"):
        load(path)


@pytest.mark.parametrize("kind,compressed,member,primes", CASES, ids=IDS)
def test_each_row_is_bounded_by_its_own_prime(keys, tmp_path, kind,
                                              compressed, member, primes):
    q = np.array(primes, dtype=np.uint64)
    assert len(set(primes)) > 1 and q.min() < q.max()

    def largest(data):
        data[:, 0] = q - np.uint64(1)
    load, path = _saved_with(keys, tmp_path, kind, compressed, member,
                             largest)
    load(path)      # q - 1 is a residue in every row

    def at_prime(data):
        row = int(np.argmin(q))
        data[row, 0] = q[row]
    load, path = _saved_with(keys, tmp_path, kind, compressed, member,
                             at_prime)
    with pytest.raises(ValueError, match="prime"):
        load(path)


def test_small_parts_load_as_the_saved_residues(tmp_path):
    """A trivial encryption of a negative constant (the encoded constant,
    and a zero mask in NTT form) keeps one int64 row per part."""
    ring = RNSRing(PARAMS.n, PARAMS.all_primes)
    encoder = CKKSEncoder(PARAMS.n, PARAMS.scale)
    base = PARAMS.base_primes
    ct = Ciphertext(
        [ring.from_ints(encoder.encode_real_constant(-0.25), primes=base),
         ring.from_ints(np.zeros(PARAMS.n, dtype=np.int64),
                        primes=base).to_ntt()],
        PARAMS.scale, PARAMS)
    path = tmp_path / "trivial.npz"
    ser.save_ciphertext(path, ct, compressed=True)
    with np.load(path, allow_pickle=False) as blob:
        assert sorted(blob.files) == ["meta", "part0_small", "part1_small"]
        assert blob["part0_small"].dtype == np.int64
        assert blob["part0_small"].shape == (PARAMS.n,)
    back = ser.load_ciphertext(path)
    for want, got in zip(ct.parts, back.parts):
        assert got.primes == want.primes and got.ntt_form == want.ntt_form
        assert got.data.dtype == np.uint64
        np.testing.assert_array_equal(got.data, want.data)
