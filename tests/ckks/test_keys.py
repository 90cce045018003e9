"""GaloisKey labeling: the conjugation element is its own key.

Regression for the key-inventory work (ALC8xx): conjugation uses Galois
element ``2n - 1``, which is *outside* the subgroup ``<5>`` that slot
rotations live in — the inventory must surface it as ``"conj"``, never
as some ``rot:<step>``, and the labels must match the key names the
static analysis uses.
"""

import numpy as np
import pytest

from repro.ckks.encoder import CKKSEncoder
from repro.ckks.encryptor import CKKSDecryptor, CKKSEncryptor
from repro.ckks.evaluator import CKKSEvaluator
from repro.ckks.keys import CKKSKeyGenerator
from repro.ckks.params import CKKSParams


@pytest.fixture(scope="module")
def keygen(ckks128_keys):
    return ckks128_keys.keygen


def test_conjugation_element_labeled_conj(keygen):
    gk = keygen.conjugation_key()
    n = keygen.params.n
    assert gk.galois_elements() == {2 * n - 1}
    assert gk.inventory() == ["conj"]
    assert gk.element_label(2 * n - 1) == "conj"


def test_conjugation_element_is_no_rotation(keygen):
    """2n - 1 never collides with a rotation element: -1 mod 2n is not a
    power of 5 (the rotation subgroup has index 2 and excludes it)."""
    n = keygen.params.n
    m = 2 * n
    rotation_elements = {pow(5, s, m) for s in range(keygen.params.slots)}
    assert (m - 1) not in rotation_elements


def test_rotation_inventory_is_numeric_and_sorted(keygen):
    gk = keygen.rotation_key([16, 1, 2])
    assert gk.inventory() == ["rot:1", "rot:2", "rot:16"]


def test_merged_inventory_keeps_conj_distinct(keygen):
    gk = keygen.rotation_key([1, 2])
    gk.keys.update(keygen.conjugation_key().keys)
    assert gk.inventory() == ["rot:1", "rot:2", "conj"]
    assert "conj" in repr(gk)
    assert "rot:1" in repr(gk)


def test_unknown_element_labeled_raw(keygen):
    gk = keygen.rotation_key([1])
    m = 2 * keygen.params.n
    # an odd element outside <5> and != 2n-1: its negation times 5
    odd = (m - pow(5, 3, m)) % m
    assert gk.element_label(odd).startswith("g=")


def test_a_negative_element_names_its_key_mod_2n():
    """At ``n = 16``, ``-3 ≡ 29 = 5^3 (mod 32)``: the key made for ``-3``
    is filed, labelled and seeded as 29, so a rotation by 3 finds it, and
    ``apply_galois`` by -3 is ``apply_galois`` by 29 bit for bit."""
    params = CKKSParams(n=16, num_levels=2, dnum=1, hamming_weight=8)
    rng = np.random.default_rng(0x16)
    keygen = CKKSKeyGenerator(params, rng, expand_seed=5)
    galois = keygen.galois_key([-3])
    assert galois.galois_elements() == {29}
    assert galois.inventory() == ["rot:3"]
    again = CKKSKeyGenerator(params, np.random.default_rng(0x16),
                             expand_seed=5).galois_key([29])
    for slot, key in galois.keys.items():
        assert np.array_equal(key.key.data, again.keys[slot].key.data)
    encoder = CKKSEncoder(params.n, params.scale)
    encryptor = CKKSEncryptor(params, encoder, rng,
                              public_key=keygen.public_key())
    decryptor = CKKSDecryptor(params, encoder, keygen.secret_key())
    evaluator = CKKSEvaluator(params, encoder, galois_key=galois)
    z = rng.uniform(-1, 1, params.slots)
    ct = encryptor.encrypt_values(z)
    out = decryptor.decrypt(evaluator.rotate(ct, 3))
    assert np.abs(out - np.roll(z, -3)).max() < 1e-4
    by_negative = evaluator.apply_galois(ct, -3)
    by_residue = evaluator.apply_galois(ct, 29)
    for a, b in zip(by_negative.parts, by_residue.parts):
        assert np.array_equal(a.data, b.data)
