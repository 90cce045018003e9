"""Serialization of parameters, keys and ciphertexts (.npz containers).

Parameters are stored as their defining fields (the prime chains are
regenerated deterministically).  Round-trip fidelity is bit-exact — the
tests decrypt a reloaded ciphertext with a reloaded key.

One writer and one reader serve every blob: a JSON ``meta`` member (the
parameter fields, ``version``, the blob kind and the kind's own keys) plus
the kind's members, each stored one of three exact ways.  Every ``save_*``
function keeps all members raw unless called with ``compressed=True``,
which writes the compact ``format=seeded/v1`` container.

* **raw** — the full array.  An RNS member (ciphertext parts, the secret
  key, both halves of the public key and of every switching-key digit) is
  read back as uint64 rows, one per channel; a value at or above its
  channel's prime fails with :class:`ValueError`, as does an LWE key
  value outside {0, 1}.
* **small** — an RNS member whose centered value is identical in every
  channel (ternary secrets, sparse plaintext parts) keeps one int64 row as
  ``{name}_small`` instead of one uint64 row per channel (the
  drop-high-limb encoding), reduced over each prime on load by
  :func:`~repro.rns.rns_poly.reduce_signed`.
* **seeded** — a uniform member drawn from a
  :class:`~repro.seedexp.SeedExpander` stream (switching-key ``a_t``
  halves, the public key's ``a``, symmetric-ciphertext and LWE masks, TFHE
  keyswitch-table masks) is dropped; the blob keeps the expand seed and
  the loader regenerates the array from its stream.  A SHA-256 digest
  over the dropped arrays, in drop order, is stored as ``a_digest``, and
  the loader checks it before the kept members, so a corrupted seed, a
  tampered stream label or a wrong parameter set fails loudly, as a
  digest mismatch, instead of yielding silently wrong keys.

Relinearization and Galois keys share one switching-key codec: members
``{prefix}_d{d}_b`` and ``{prefix}_d{d}_a`` per digit, streams
:func:`~repro.seedexp.digit_stream`.  All three encodings are lossless:
the differential harness
(``tests/integration/test_compression_differential.py``) proves
decryptions bit-identical with compression on vs off, and
``tests/test_serialization_format.py`` pins every blob kind's container.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from repro import seedexp
from repro.ckks.encryptor import Ciphertext
from repro.ckks.keys import (
    GaloisKey,
    PublicKey,
    RelinKey,
    SecretKey,
    SwitchingKeyLevel,
)
from repro.ckks.params import CKKSParams
from repro.rns.keyswitch import SwitchingKey
from repro.rns.rlwe import require_single
from repro.rns.rns_poly import RNSPoly, RNSRing, reduce_signed
from repro.seedexp import SeedExpander, arrays_digest
from repro.tfhe.bootstrap import KeyswitchKey
from repro.tfhe.lwe import LweKey, LweSample
from repro.tfhe.params import TFHEParams

_FORMAT_VERSION = 1
_SEEDED_FORMAT = "seeded/v1"

#: The kind and the stored fields of each parameter class.
#: ``TFHEParams.mask_count`` is not stored: the class accepts only 1.
_PARAM_FIELDS = {
    CKKSParams: ("ckks_params", ("n", "num_levels", "scale_bits", "dnum",
                                 "first_prime_bits", "error_std",
                                 "hamming_weight")),
    TFHEParams: ("tfhe_params", ("lwe_dim", "ring_degree", "bg_bit",
                                 "decomp_length", "ks_base_bit",
                                 "ks_length", "lwe_noise_std",
                                 "ring_noise_std")),
}


# ------------------------------ params ---------------------------------- #


def _to_dict(params) -> dict:
    kind, fields = _PARAM_FIELDS[type(params)]
    return dict(version=_FORMAT_VERSION, kind=kind,
                **{f: getattr(params, f) for f in fields})


def _from_dict(cls, data: dict):
    kind, fields = _PARAM_FIELDS[cls]
    if data.get("kind") != kind:
        raise ValueError(f"not a {kind[:4].upper()} parameter blob: "
                         f"{data.get('kind')!r}")
    return cls(**{f: data[f] for f in fields})


def params_to_dict(params: CKKSParams) -> dict:
    return _to_dict(params)


def params_from_dict(data: dict) -> CKKSParams:
    return _from_dict(CKKSParams, data)


def tfhe_params_to_dict(params: TFHEParams) -> dict:
    return _to_dict(params)


def tfhe_params_from_dict(data: dict) -> TFHEParams:
    return _from_dict(TFHEParams, data)


# ------------------------ one writer, one reader ------------------------- #


def _write(path, params, blob: str, members, compressed: bool = False,
           seed: Optional[int] = None, **extra) -> None:
    """Save ``(name, array, encoding)`` members under one meta.

    The meta is the parameter fields, the blob kind and ``extra``.  A
    compressed blob adds the ``seeded/v1`` marker; one that dropped
    members (encoding ``"seeded"``) adds ``expand_seed`` and the digest
    of the dropped arrays in drop order.  ``"small"`` members are stored
    as ``{name}_small``."""
    payload, dropped = {}, []
    for name, data, encoding in members:
        if encoding == "seeded":
            dropped.append(data)
        else:
            payload[name if encoding == "raw" else f"{name}_small"] = data
    meta = dict(_to_dict(params), blob=blob, **extra)
    if compressed:
        meta["format"] = _SEEDED_FORMAT
    if dropped:
        if seed is None:
            raise ValueError(
                f"compressed {blob} serialization needs seed-expanded key "
                "material — generate it with expand_seed=... first")
        meta.update(expand_seed=int(seed), a_digest=arrays_digest(dropped))
    np.savez_compressed(path, meta=np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8), **payload)


def _read(path, blob: str):
    """``(meta, members, expander)`` of a saved ``blob``; ``expander`` is
    ``None`` unless the blob dropped seeded members."""
    with np.load(path, allow_pickle=False) as npz:
        members = {name: npz[name] for name in npz.files}
    meta = json.loads(bytes(members.pop("meta")).decode())
    if meta.get("blob") != blob:
        raise ValueError(
            f"expected a {blob!r} file, found {meta.get('blob')!r}")
    if meta.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version {meta.get('version')}")
    expander = (SeedExpander(int(meta["expand_seed"]))
                if "expand_seed" in meta else None)
    return meta, members, expander


def _check_digest(meta: dict, regenerated) -> None:
    actual = arrays_digest(regenerated)
    if actual != meta["a_digest"]:
        raise ValueError(
            f"seed re-expansion mismatch for {meta['blob']}: regenerated "
            f"uniform halves hash to {actual[:16]}…, blob recorded "
            f"{meta['a_digest'][:16]}… (corrupted seed, tampered stream "
            "metadata, or wrong basis)")


def _kept(name: str, poly: RNSPoly):
    """An RNS member kept ``small`` — one int64 row, when the centered
    value is identical in every channel and small enough for the lift to
    be unambiguous — else ``raw``."""
    q0 = int(poly.primes[0])
    v = poly.data[0].astype(np.int64)
    v = np.where(v > q0 // 2, v - q0, v)
    if (np.all(np.abs(v) <= (min(poly.primes) - 1) // 2)
            and np.array_equal(reduce_signed(v, poly.primes), poly.data)):
        return (name, v, "small")
    return (name, poly.data, "raw")


def _residues(members: dict, name: str, primes) -> np.ndarray:
    """The ``(C, n)`` uint64 rows of RNS member ``name`` over ``primes``:
    its small row reduced over each prime, or its raw rows, each below its
    own channel's prime (else :class:`ValueError`)."""
    if f"{name}_small" in members:
        return reduce_signed(members[f"{name}_small"], primes)
    data = members[name].astype(np.uint64)
    if np.any(data >= np.array(primes, dtype=np.uint64)[:, None]):
        raise ValueError(
            f"member {name!r} holds a value at or above its channel's prime")
    return data


def _ckks_ring(meta: dict):
    params = params_from_dict(meta)
    return params, RNSRing(params.n, params.all_primes)


# ------------------------------ CKKS ------------------------------------ #


def save_ciphertext(path, ct: Ciphertext, compressed: bool = False) -> None:
    """Raw parts, or (seeded/v1) the mask of a fresh symmetric encryption
    dropped and every other part kept small where it can be."""
    require_single(ct)
    seeded = (compressed and ct.seed_meta is not None
              and not ct.parts[1].ntt_form)
    members = [
        (f"part{i}", part.data, "seeded") if seeded and i == 1
        else _kept(f"part{i}", part) if compressed
        else (f"part{i}", part.data, "raw")
        for i, part in enumerate(ct.parts)]
    seed, extra = None, {}
    if compressed:
        extra["encodings"] = [encoding for _, _, encoding in members]
    if seeded:
        seed, extra["mask_stream"] = ct.seed_meta
    _write(path, ct.params, "ciphertext", members,
           compressed, seed, scale=ct.scale, size=ct.size,
           ntt_form=[p.ntt_form for p in ct.parts],
           num_channels=len(ct.primes), **extra)


def load_ciphertext(path) -> Ciphertext:
    meta, members, expander = _read(path, "ciphertext")
    params, ring = _ckks_ring(meta)
    chain = tuple(params.all_primes[: meta["num_channels"]])
    mask = seed_meta = None
    if expander is not None:        # part 1, a fresh symmetric mask
        mask = expander.uniform_rns(ring, chain, meta["mask_stream"])
        _check_digest(meta, [mask.data])
        seed_meta = (expander.seed, meta["mask_stream"])
    parts = [
        mask if i == 1 and mask is not None
        else RNSPoly(ring, _residues(members, f"part{i}", chain), chain,
                     bool(meta["ntt_form"][i]))
        for i in range(meta["size"])]
    return Ciphertext(parts, meta["scale"], params, seed_meta=seed_meta)


def save_secret_key(path, key: SecretKey, compressed: bool = False) -> None:
    """The secret raw, or (seeded/v1) as its one small row."""
    if not compressed:
        _write(path, key.params, "secret_key", [("s", key.s.data, "raw")])
        return
    member = _kept("s", key.s)
    if member[2] != "small":
        raise ValueError(
            "secret key has no channel-consistent small lift — "
            "cannot store it in seeded/v1 small form")
    _write(path, key.params, "secret_key", [member], True, encoding="small")


def load_secret_key(path) -> SecretKey:
    meta, members, _ = _read(path, "secret_key")
    params, ring = _ckks_ring(meta)
    return SecretKey(params, RNSPoly(
        ring, _residues(members, "s", params.all_primes), params.all_primes,
        False))


def save_public_key(path, key: PublicKey, compressed: bool = False) -> None:
    """Both halves raw, or (seeded/v1) ``b`` alone: ``a`` is regenerated
    from the expand seed."""
    extra = {"a_stream": seedexp.pk_stream("ckks")} if compressed else {}
    _write(path, key.params, "public_key",
           [("b", key.b.data, "raw"),
            ("a", key.a.data, "seeded" if compressed else "raw")],
           compressed, key.expand_seed, **extra)


def load_public_key(path) -> PublicKey:
    meta, members, expander = _read(path, "public_key")
    params, ring = _ckks_ring(meta)
    base = params.base_primes
    if expander is None:
        a = RNSPoly(ring, _residues(members, "a", base), base, False)
    else:
        a = expander.uniform_rns(ring, base, meta["a_stream"])
        _check_digest(meta, [a.data])
    b = RNSPoly(ring, _residues(members, "b", base), base, False)
    return PublicKey(params, b, a, expand_seed=meta.get("expand_seed"))


def _save_switching(path, key, blob: str, levels, compressed: bool,
                    **extra) -> None:
    """The switching keys ``[(prefix, SwitchingKeyLevel)]`` of a relin or
    Galois key: per digit a raw ``b`` half and an ``a`` half that a
    compressed blob drops."""
    members = [
        (f"{prefix}_d{d}_{half}", poly.data,
         "seeded" if compressed and half == "a" else "raw")
        for prefix, skl in levels
        for d, pair in enumerate(skl.pairs)
        for half, poly in zip("ba", pair)]
    _write(path, key.params, blob, members, compressed,
           key.expand_seed, **extra)


def _load_switching(path, blob: str, entries_of):
    """``(params, keys, expand_seed)`` of a relin or Galois blob.

    ``entries_of(meta)`` lists ``(key id, member prefix, stream prefix,
    level, digits)`` in save order; each key lives in NTT form over the
    extended basis ``chain(level) + P``."""
    meta, members, expander = _read(path, blob)
    params, ring = _ckks_ring(meta)
    entries = [(key_id, prefix, stream, level, digits,
                params.primes_at_level(level) + params.special_primes)
               for key_id, prefix, stream, level, digits in entries_of(meta)]
    seeded = {}     # the dropped a halves, checked before any kept half
    if expander is not None:
        seeded = {
            (prefix, d): expander.uniform_rns(
                ring, extended, seedexp.digit_stream(stream, d)).to_ntt().data
            for _, prefix, stream, _, digits, extended in entries
            for d in range(digits)}
        _check_digest(meta, seeded.values())
    keys = {}
    for key_id, prefix, _, level, digits, extended in entries:
        halves = []
        for d in range(digits):
            a = seeded.get((prefix, d))
            halves += [_residues(members, f"{prefix}_d{d}_b", extended),
                       _residues(members, f"{prefix}_d{d}_a", extended)
                       if a is None else a]
        keys[key_id] = SwitchingKeyLevel(
            level, SwitchingKey.from_halves(ring, halves, extended))
    return params, keys, meta.get("expand_seed")


def save_relin_key(path, key: RelinKey, compressed: bool = False) -> None:
    """One ``(b, a)`` pair per digit per level, NTT form, bit-exact.

    With ``compressed=True`` the uniform ``a_t`` halves are dropped
    (seeded/v1) — exactly half the stored words — and regenerated from
    ``expand_seed`` on load."""
    levels = sorted(key.levels.items())
    _save_switching(
        path, key, "relin_key",
        [(f"l{level}", skl) for level, skl in levels], compressed,
        digits={str(level): len(skl.pairs) for level, skl in levels})


def load_relin_key(path) -> RelinKey:
    params, levels, seed = _load_switching(path, "relin_key", lambda meta: [
        (level, f"l{level}", seedexp.relin_stream("ckks", level), level,
         digits)
        for level, digits in sorted(
            (int(level), digits) for level, digits in meta["digits"].items())])
    return RelinKey(params, levels, expand_seed=seed)


def save_galois_key(path, key: GaloisKey, compressed: bool = False) -> None:
    """Per-``(galois_element, level)`` switching keys; the metadata also
    records the human-readable inventory ("rot:<step>"/"conj") so a blob
    can be audited against a provisioning manifest without loading it.

    ``compressed=True`` drops the ``a_t`` halves (seeded/v1), as
    :func:`save_relin_key` does."""
    keys = sorted(key.keys.items())
    _save_switching(
        path, key, "galois_key",
        [(f"g{g}_l{level}", skl) for (g, level), skl in keys], compressed,
        entries=[[g, level, len(skl.pairs)] for (g, level), skl in keys],
        inventory=key.inventory())


def load_galois_key(path) -> GaloisKey:
    params, keys, seed = _load_switching(path, "galois_key", lambda meta: [
        ((g, level), f"g{g}_l{level}", seedexp.galois_stream("ckks", g, level),
         level, digits)
        for g, level, digits in sorted(
            tuple(int(x) for x in entry) for entry in meta["entries"])])
    return GaloisKey(params, keys, expand_seed=seed)


# ------------------------------ TFHE ------------------------------------ #


def save_lwe_sample(path, sample: LweSample, params: TFHEParams,
                    compressed: bool = False) -> None:
    """``a`` and ``b`` raw, or (seeded/v1) ``b`` alone: a mask drawn from
    a seed-expanded stream (a seeded ``BootstrapKit``, or ``lwe_encrypt``
    with an expander) is regenerated on load."""
    seed, stream = sample.seed_meta or (None, None)
    extra = {"a_stream": stream, "dim": sample.dim} if compressed else {}
    _write(path, params, "lwe",
           [("a", sample.a, "seeded" if compressed else "raw"),
            ("b", np.uint32(sample.b), "raw")],
           compressed, seed, **extra)


def load_lwe_sample(path):
    meta, members, expander = _read(path, "lwe")
    if expander is None:
        a, seed_meta = members["a"].astype(np.uint32), None
    else:
        a = expander.uniform_u32(int(meta["dim"]), meta["a_stream"])
        _check_digest(meta, [a])
        seed_meta = (expander.seed, meta["a_stream"])
    return (LweSample(a, np.uint32(members["b"]), seed_meta=seed_meta),
            tfhe_params_from_dict(meta))


def save_tfhe_keyswitch_key(path, key: KeyswitchKey,
                            compressed: bool = False) -> None:
    """The LWE keyswitch table, raw or seeded/v1.

    Compressed form keeps only the ``b`` column of every table entry —
    ``1/(n+1)`` of the words — plus the expand seed; the ``a`` masks are
    regenerated from the per-entry :func:`~repro.seedexp.ksk_stream`
    streams.
    """
    n = key.out_dim
    members = ([("a", key.table[..., :n], "seeded"),
                ("b", key.table[..., n], "raw")] if compressed
               else [("table", key.table, "raw")])
    _write(path, key.params, "tfhe_ksk", members,
           compressed, key.expand_seed, out_dim=n)


def load_tfhe_keyswitch_key(path) -> KeyswitchKey:
    meta, members, expander = _read(path, "tfhe_ksk")
    params = tfhe_params_from_dict(meta)
    n = int(meta["out_dim"])
    if expander is None:
        return KeyswitchKey(params, members["table"].astype(np.uint32), n)
    table = np.zeros(members["b"].shape + (n + 1,), dtype=np.uint32)
    for i, j, v in np.ndindex(table.shape[:-1]):
        table[i, j, v, :n] = expander.uniform_u32(
            n, seedexp.ksk_stream(i, j, v + 1))
    _check_digest(meta, [table[..., :n]])
    table[..., n] = members["b"]
    return KeyswitchKey(params, table, n, expand_seed=expander.seed)


def save_lwe_key(path, key: LweKey) -> None:
    _write(path, key.params, "lwe_key", [("key", key.key, "raw")])


def load_lwe_key(path) -> LweKey:
    """The binary LWE key of a blob; a value outside {0, 1} fails with
    :class:`ValueError`."""
    meta, members, _ = _read(path, "lwe_key")
    key = members["key"].astype(np.int64)
    if not np.isin(key, (0, 1)).all():
        raise ValueError("member 'key' holds a value outside {0, 1}")
    return LweKey(tfhe_params_from_dict(meta), key)
