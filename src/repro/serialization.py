"""Serialization of parameters, keys and ciphertexts (.npz containers).

Parameters are stored as their defining integers (the prime chains are
regenerated deterministically); polynomial payloads are stored as raw
arrays.  Round-trip fidelity is bit-exact — the tests decrypt a reloaded
ciphertext with a reloaded key.

Every ``save_*`` function also accepts ``compressed=True``, producing the
compact ``format=seeded/v1`` container.  Three exact encodings are used:

* **seeded** — a uniform component that came from a
  :class:`~repro.seedexp.SeedExpander` stream (switching-key ``a_t``
  halves, the public key's ``a``, symmetric-ciphertext masks, TFHE
  keyswitch-table masks) is dropped entirely; the blob keeps the expand
  seed plus the stream label and regenerates the array on load.  A
  SHA-256 digest over the dropped arrays is stored and re-checked, so a
  corrupted seed or tampered stream metadata fails loudly instead of
  yielding silently wrong keys.
* **small** — an RNS component whose centered value is identical in every
  channel (ternary secrets, sparse plaintext parts) keeps one int64 row
  instead of one uint64 row per channel (the drop-high-limb encoding).
* **raw** — anything else stays bit-exact as the full array.

All three are lossless: the differential harness
(``tests/integration/test_compression_differential.py``) proves
decryptions bit-identical with compression on vs off.
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
from repro.rns.rns_poly import RNSPoly, RNSRing
from repro.seedexp import SeedExpander, arrays_digest
from repro.tfhe.bootstrap import KeyswitchKey
from repro.tfhe.lwe import LweKey, LweSample
from repro.tfhe.params import TFHEParams

_FORMAT_VERSION = 1
_SEEDED_FORMAT = "seeded/v1"


# ------------------------------ params ---------------------------------- #


def params_to_dict(params: CKKSParams) -> dict:
    return {
        "version": _FORMAT_VERSION,
        "kind": "ckks_params",
        "n": params.n,
        "num_levels": params.num_levels,
        "scale_bits": params.scale_bits,
        "dnum": params.dnum,
        "first_prime_bits": params.first_prime_bits,
        "error_std": params.error_std,
        "hamming_weight": params.hamming_weight,
    }


def params_from_dict(data: dict) -> CKKSParams:
    if data.get("kind") != "ckks_params":
        raise ValueError(f"not a CKKS parameter blob: {data.get('kind')!r}")
    return CKKSParams(
        n=data["n"],
        num_levels=data["num_levels"],
        scale_bits=data["scale_bits"],
        dnum=data["dnum"],
        first_prime_bits=data["first_prime_bits"],
        error_std=data["error_std"],
        hamming_weight=data["hamming_weight"],
    )


def tfhe_params_to_dict(params: TFHEParams) -> dict:
    return {
        "version": _FORMAT_VERSION,
        "kind": "tfhe_params",
        "lwe_dim": params.lwe_dim,
        "ring_degree": params.ring_degree,
        "bg_bit": params.bg_bit,
        "decomp_length": params.decomp_length,
        "ks_base_bit": params.ks_base_bit,
        "ks_length": params.ks_length,
        "lwe_noise_std": params.lwe_noise_std,
        "ring_noise_std": params.ring_noise_std,
    }


def tfhe_params_from_dict(data: dict) -> TFHEParams:
    if data.get("kind") != "tfhe_params":
        raise ValueError(f"not a TFHE parameter blob: {data.get('kind')!r}")
    fields = dict(data)
    fields.pop("version", None)
    fields.pop("kind", None)
    return TFHEParams(**fields)


# ------------------------- seeded/v1 helpers ----------------------------- #


def _require_expand_seed(seed: Optional[int], what: str) -> int:
    if seed is None:
        raise ValueError(
            f"compressed {what} serialization needs seed-expanded key "
            "material — generate it with expand_seed=... first")
    return int(seed)


def _check_digest(arrays, expected: str, what: str) -> None:
    actual = arrays_digest(arrays)
    if actual != expected:
        raise ValueError(
            f"seed re-expansion mismatch for {what}: regenerated uniform "
            f"halves hash to {actual[:16]}…, blob recorded {expected[:16]}… "
            "(corrupted seed, tampered stream metadata, or wrong basis)")


def _small_encoding(part: RNSPoly) -> Optional[np.ndarray]:
    """One int64 row when the centered value is identical in every RNS
    channel and small enough for the lift to be unambiguous; else None."""
    data = part.data
    primes = part.primes
    q0 = int(primes[0])
    v = data[0].astype(np.int64)
    v = np.where(v > q0 // 2, v - q0, v)
    qmin = min(int(q) for q in primes)
    if np.any(np.abs(v) > (qmin - 1) // 2):
        return None
    for q, row in zip(primes, data):
        if not np.array_equal(v % int(q), row.astype(np.int64)):
            return None
    return v


def _small_decoding(ring: RNSRing, v: np.ndarray, primes,
                    ntt_form: bool) -> RNSPoly:
    v = v.astype(np.int64)
    data = np.stack([(v % int(q)).astype(np.uint64) for q in primes])
    return RNSPoly(ring, data, tuple(primes), ntt_form)


# ------------------------------ CKKS ------------------------------------ #


def save_ciphertext(path, ct: Ciphertext, compressed: bool = False) -> None:
    require_single(ct)
    base_meta = dict(
        params_to_dict(ct.params), blob="ciphertext",
        scale=ct.scale, size=ct.size,
        ntt_form=[p.ntt_form for p in ct.parts],
        num_channels=len(ct.primes),
    )
    if not compressed:
        payload = {"meta": _json_array(base_meta)}
        for i, part in enumerate(ct.parts):
            payload[f"part{i}"] = part.data
        np.savez_compressed(path, **payload)
        return
    # seeded/v1: per-part exact encodings.  The mask of a fresh symmetric
    # encryption (seed_meta set) is dropped and regenerated; any part with
    # a channel-consistent small lift keeps one int64 row; the rest stay raw.
    payload = {}
    encodings = []
    dropped = []
    for i, part in enumerate(ct.parts):
        if i == 1 and ct.seed_meta is not None and not part.ntt_form:
            encodings.append("seeded")
            dropped.append(part.data)
            continue
        small = _small_encoding(part)
        if small is not None:
            encodings.append("small")
            payload[f"part{i}_small"] = small
        else:
            encodings.append("raw")
            payload[f"part{i}"] = part.data
    meta = dict(base_meta, format=_SEEDED_FORMAT, encodings=encodings)
    if dropped:
        meta["expand_seed"] = int(ct.seed_meta[0])
        meta["mask_stream"] = ct.seed_meta[1]
        meta["a_digest"] = arrays_digest(dropped)
    payload["meta"] = _json_array(meta)
    np.savez_compressed(path, **payload)


def load_ciphertext(path) -> Ciphertext:
    with np.load(path, allow_pickle=False) as blob:
        meta = _parse_meta(blob, expected="ciphertext")
        params = params_from_dict(meta)
        ring = RNSRing(params.n, params.all_primes)
        chain = tuple(params.all_primes[: meta["num_channels"]])
        seed_meta = None
        parts = []
        if meta.get("format") == _SEEDED_FORMAT:
            for i in range(meta["size"]):
                enc = meta["encodings"][i]
                ntt_form = bool(meta["ntt_form"][i])
                if enc == "seeded":
                    expander = SeedExpander(int(meta["expand_seed"]))
                    a = expander.uniform_rns(ring, chain,
                                             meta["mask_stream"])
                    _check_digest([a.data], meta["a_digest"],
                                  "ciphertext mask")
                    seed_meta = (int(meta["expand_seed"]),
                                 meta["mask_stream"])
                    parts.append(a)
                elif enc == "small":
                    parts.append(_small_decoding(
                        ring, blob[f"part{i}_small"], chain, ntt_form))
                else:
                    parts.append(RNSPoly(
                        ring, blob[f"part{i}"].astype(np.uint64),
                        chain, ntt_form))
        else:
            for i in range(meta["size"]):
                data = blob[f"part{i}"]
                parts.append(RNSPoly(
                    ring, data.astype(np.uint64), chain,
                    bool(meta["ntt_form"][i]),
                ))
    return Ciphertext(parts, meta["scale"], params, seed_meta=seed_meta)


def save_secret_key(path, key: SecretKey, compressed: bool = False) -> None:
    if compressed:
        small = _small_encoding(key.s)
        if small is None:
            raise ValueError(
                "secret key has no channel-consistent small lift — "
                "cannot store it in seeded/v1 small form")
        np.savez_compressed(
            path,
            meta=_json_array(dict(params_to_dict(key.params),
                                  blob="secret_key", format=_SEEDED_FORMAT,
                                  encoding="small")),
            s_small=small,
        )
        return
    np.savez_compressed(
        path,
        meta=_json_array(dict(params_to_dict(key.params), blob="secret_key")),
        s=key.s.data,
    )


def load_secret_key(path) -> SecretKey:
    with np.load(path, allow_pickle=False) as blob:
        meta = _parse_meta(blob, expected="secret_key")
        params = params_from_dict(meta)
        ring = RNSRing(params.n, params.all_primes)
        if meta.get("format") == _SEEDED_FORMAT:
            poly = _small_decoding(ring, blob["s_small"],
                                   params.all_primes, False)
        else:
            poly = RNSPoly(ring, blob["s"].astype(np.uint64),
                           params.all_primes, False)
    return SecretKey(params, poly)


def save_public_key(path, key: PublicKey, compressed: bool = False) -> None:
    if compressed:
        seed = _require_expand_seed(key.expand_seed, "public-key")
        np.savez_compressed(
            path,
            meta=_json_array(dict(
                params_to_dict(key.params), blob="public_key",
                format=_SEEDED_FORMAT, expand_seed=seed,
                a_stream=seedexp.pk_stream("ckks"),
                a_digest=arrays_digest([key.a.data]),
            )),
            b=key.b.data,
        )
        return
    np.savez_compressed(
        path,
        meta=_json_array(dict(params_to_dict(key.params), blob="public_key")),
        b=key.b.data,
        a=key.a.data,
    )


def load_public_key(path) -> PublicKey:
    with np.load(path, allow_pickle=False) as blob:
        meta = _parse_meta(blob, expected="public_key")
        params = params_from_dict(meta)
        ring = RNSRing(params.n, params.all_primes)
        b = RNSPoly(ring, blob["b"].astype(np.uint64),
                    params.base_primes, False)
        if meta.get("format") == _SEEDED_FORMAT:
            expander = SeedExpander(int(meta["expand_seed"]))
            a = expander.uniform_rns(ring, params.base_primes,
                                     meta["a_stream"])
            _check_digest([a.data], meta["a_digest"], "public_key")
            return PublicKey(params, b, a,
                             expand_seed=int(meta["expand_seed"]))
        a = RNSPoly(ring, blob["a"].astype(np.uint64),
                    params.base_primes, False)
    return PublicKey(params, b, a)


def _switching_level_arrays(prefix: str, skl: SwitchingKeyLevel) -> dict:
    arrays = {}
    for d, (b, a) in enumerate(skl.pairs):
        arrays[f"{prefix}_d{d}_b"] = b.data
        arrays[f"{prefix}_d{d}_a"] = a.data
    return arrays


def _load_switching_level(
    blob, prefix: str, params: CKKSParams, ring: RNSRing,
    level: int, digits: int,
) -> SwitchingKeyLevel:
    # pairs live in NTT form over the extended basis chain(level) + P
    extended = params.primes_at_level(level) + params.special_primes
    halves = [blob[f"{prefix}_d{d}_{half}"]
              for d in range(digits) for half in "ba"]
    return SwitchingKeyLevel(
        level, SwitchingKey.from_halves(ring, halves, extended))


def _seeded_switching_level_arrays(prefix: str, skl: SwitchingKeyLevel,
                                   dropped: list) -> dict:
    """The ``b`` halves only; the dropped ``a`` halves go into the digest
    accumulator in (level-sorted, digit-ordered) save order."""
    arrays = {}
    for d, (b, a) in enumerate(skl.pairs):
        arrays[f"{prefix}_d{d}_b"] = b.data
        dropped.append(a.data)
    return arrays


def _load_seeded_switching_level(
    blob, prefix: str, stream_prefix: str, params: CKKSParams,
    ring: RNSRing, expander: SeedExpander, level: int, digits: int,
    regenerated: list,
) -> SwitchingKeyLevel:
    extended = params.primes_at_level(level) + params.special_primes
    halves = []
    for d in range(digits):
        a = expander.uniform_rns(
            ring, extended, seedexp.digit_stream(stream_prefix, d)).to_ntt()
        regenerated.append(a.data)
        halves += [blob[f"{prefix}_d{d}_b"], a.data]
    return SwitchingKeyLevel(
        level, SwitchingKey.from_halves(ring, halves, extended))


def save_relin_key(path, key: RelinKey, compressed: bool = False) -> None:
    """One ``(b, a)`` pair per digit per level, NTT form, bit-exact.

    With ``compressed=True`` the uniform ``a_t`` halves are dropped
    (seeded/v1) — exactly half the stored words — and regenerated from
    ``expand_seed`` on load."""
    digits = {str(level): len(skl.pairs)
              for level, skl in sorted(key.levels.items())}
    if compressed:
        seed = _require_expand_seed(key.expand_seed, "relin-key")
        payload = {}
        dropped: list = []
        for level, skl in sorted(key.levels.items()):
            payload.update(
                _seeded_switching_level_arrays(f"l{level}", skl, dropped))
        payload["meta"] = _json_array(dict(
            params_to_dict(key.params), blob="relin_key", digits=digits,
            format=_SEEDED_FORMAT, expand_seed=seed,
            a_digest=arrays_digest(dropped)))
        np.savez_compressed(path, **payload)
        return
    payload = {
        "meta": _json_array(dict(params_to_dict(key.params),
                                 blob="relin_key", digits=digits)),
    }
    for level, skl in key.levels.items():
        payload.update(_switching_level_arrays(f"l{level}", skl))
    np.savez_compressed(path, **payload)


def load_relin_key(path) -> RelinKey:
    with np.load(path, allow_pickle=False) as blob:
        meta = _parse_meta(blob, expected="relin_key")
        params = params_from_dict(meta)
        ring = RNSRing(params.n, params.all_primes)
        if meta.get("format") == _SEEDED_FORMAT:
            expander = SeedExpander(int(meta["expand_seed"]))
            key = RelinKey(params, expand_seed=int(meta["expand_seed"]))
            regenerated: list = []
            for level_str, digits in sorted(meta["digits"].items(),
                                            key=lambda kv: int(kv[0])):
                level = int(level_str)
                key.levels[level] = _load_seeded_switching_level(
                    blob, f"l{level}", seedexp.relin_stream("ckks", level),
                    params, ring, expander, level, digits, regenerated)
            _check_digest(regenerated, meta["a_digest"], "relin_key")
            return key
        key = RelinKey(params)
        for level_str, digits in meta["digits"].items():
            level = int(level_str)
            key.levels[level] = _load_switching_level(
                blob, f"l{level}", params, ring, level, digits)
    return key


def save_galois_key(path, key: GaloisKey, compressed: bool = False) -> None:
    """Per-``(galois_element, level)`` switching keys; the metadata also
    records the human-readable inventory ("rot:<step>"/"conj") so a blob
    can be audited against a provisioning manifest without loading it.

    ``compressed=True`` drops the ``a_t`` halves (seeded/v1), as
    :func:`save_relin_key` does."""
    entries = [[g, level, len(skl.pairs)]
               for (g, level), skl in sorted(key.keys.items())]
    if compressed:
        seed = _require_expand_seed(key.expand_seed, "galois-key")
        payload = {}
        dropped: list = []
        for (g, level), skl in sorted(key.keys.items()):
            payload.update(_seeded_switching_level_arrays(
                f"g{g}_l{level}", skl, dropped))
        payload["meta"] = _json_array(dict(
            params_to_dict(key.params), blob="galois_key", entries=entries,
            inventory=key.inventory(), format=_SEEDED_FORMAT,
            expand_seed=seed, a_digest=arrays_digest(dropped)))
        np.savez_compressed(path, **payload)
        return
    payload = {
        "meta": _json_array(dict(params_to_dict(key.params),
                                 blob="galois_key", entries=entries,
                                 inventory=key.inventory())),
    }
    for (g, level), skl in key.keys.items():
        payload.update(_switching_level_arrays(f"g{g}_l{level}", skl))
    np.savez_compressed(path, **payload)


def load_galois_key(path) -> GaloisKey:
    with np.load(path, allow_pickle=False) as blob:
        meta = _parse_meta(blob, expected="galois_key")
        params = params_from_dict(meta)
        ring = RNSRing(params.n, params.all_primes)
        if meta.get("format") == _SEEDED_FORMAT:
            expander = SeedExpander(int(meta["expand_seed"]))
            key = GaloisKey(params, expand_seed=int(meta["expand_seed"]))
            regenerated: list = []
            for g, level, digits in sorted(
                    [tuple(e) for e in meta["entries"]]):
                g, level = int(g), int(level)
                key.keys[(g, level)] = _load_seeded_switching_level(
                    blob, f"g{g}_l{level}",
                    seedexp.galois_stream("ckks", g, level),
                    params, ring, expander, level, int(digits), regenerated)
            _check_digest(regenerated, meta["a_digest"], "galois_key")
            return key
        key = GaloisKey(params)
        for g, level, digits in meta["entries"]:
            key.keys[(int(g), int(level))] = _load_switching_level(
                blob, f"g{g}_l{level}", params, ring, int(level), digits)
    return key


# ------------------------------ TFHE ------------------------------------ #


def save_lwe_sample(path, sample: LweSample, params: TFHEParams,
                    compressed: bool = False) -> None:
    if compressed:
        if sample.seed_meta is None:
            raise ValueError(
                "compressed LWE serialization needs a seed-expanded mask "
                "(encrypt through a seeded BootstrapKit / lwe_encrypt with "
                "an expander)")
        seed, stream = sample.seed_meta
        np.savez_compressed(
            path,
            meta=_json_array(dict(
                tfhe_params_to_dict(params), blob="lwe",
                format=_SEEDED_FORMAT, expand_seed=int(seed),
                a_stream=stream, dim=sample.dim,
                a_digest=arrays_digest([sample.a]),
            )),
            b=np.uint32(sample.b),
        )
        return
    np.savez_compressed(
        path,
        meta=_json_array(dict(tfhe_params_to_dict(params), blob="lwe")),
        a=sample.a,
        b=np.uint32(sample.b),
    )


def load_lwe_sample(path):
    with np.load(path, allow_pickle=False) as blob:
        meta = _parse_meta(blob, expected="lwe")
        params = tfhe_params_from_dict(
            {k: meta[k] for k in meta
             if k not in ("blob", "version", "format", "expand_seed",
                          "a_stream", "dim", "a_digest")})
        if meta.get("format") == _SEEDED_FORMAT:
            expander = SeedExpander(int(meta["expand_seed"]))
            a = expander.uniform_u32(int(meta["dim"]), meta["a_stream"])
            _check_digest([a], meta["a_digest"], "lwe sample mask")
            sample = LweSample(a, np.uint32(blob["b"]),
                               seed_meta=(int(meta["expand_seed"]),
                                          meta["a_stream"]))
        else:
            sample = LweSample(blob["a"].astype(np.uint32),
                               np.uint32(blob["b"]))
    return sample, params


def save_tfhe_keyswitch_key(path, key: KeyswitchKey,
                            compressed: bool = False) -> None:
    """The LWE keyswitch table, raw or seeded/v1.

    Compressed form keeps only the ``b`` column of every table entry —
    ``1/(n+1)`` of the words — plus the expand seed; the ``a`` masks are
    regenerated from the per-entry ``tfhe/ksk/i{i}/j{j}/v{v}`` streams.
    """
    if compressed:
        seed = _require_expand_seed(key.expand_seed, "TFHE keyswitch-key")
        n = key.out_dim
        np.savez_compressed(
            path,
            meta=_json_array(dict(
                tfhe_params_to_dict(key.params), blob="tfhe_ksk",
                format=_SEEDED_FORMAT, expand_seed=seed, out_dim=n,
                a_digest=arrays_digest([key.table[..., :n]]),
            )),
            b=key.table[..., n],
        )
        return
    np.savez_compressed(
        path,
        meta=_json_array(dict(tfhe_params_to_dict(key.params),
                              blob="tfhe_ksk", out_dim=key.out_dim)),
        table=key.table,
    )


def load_tfhe_keyswitch_key(path) -> KeyswitchKey:
    with np.load(path, allow_pickle=False) as blob:
        meta = _parse_meta(blob, expected="tfhe_ksk")
        params = tfhe_params_from_dict(
            {k: meta[k] for k in meta
             if k not in ("blob", "version", "format", "expand_seed",
                          "out_dim", "a_digest")})
        n = int(meta["out_dim"])
        if meta.get("format") == _SEEDED_FORMAT:
            expander = SeedExpander(int(meta["expand_seed"]))
            b_col = blob["b"].astype(np.uint32)
            big_n, t, vmax = b_col.shape
            table = np.zeros((big_n, t, vmax, n + 1), dtype=np.uint32)
            for i in range(big_n):
                for j in range(t):
                    for v in range(1, vmax + 1):
                        table[i, j, v - 1, :n] = expander.uniform_u32(
                            n, seedexp.lwe_stream("ksk", f"i{i}/j{j}/v{v}"))
            _check_digest([table[..., :n]], meta["a_digest"],
                          "tfhe keyswitch key")
            table[..., n] = b_col
            return KeyswitchKey(params, table, n,
                                expand_seed=int(meta["expand_seed"]))
        return KeyswitchKey(params, blob["table"].astype(np.uint32), n)


def save_lwe_key(path, key: LweKey) -> None:
    np.savez_compressed(
        path,
        meta=_json_array(dict(tfhe_params_to_dict(key.params), blob="lwe_key")),
        key=key.key,
    )


def load_lwe_key(path) -> LweKey:
    with np.load(path, allow_pickle=False) as blob:
        meta = _parse_meta(blob, expected="lwe_key")
        params = tfhe_params_from_dict(
            {k: meta[k] for k in meta if k not in ("blob", "version")})
        key = LweKey(params, blob["key"].astype(np.int64))
    return key


# ------------------------------ helpers --------------------------------- #


def _json_array(data: dict) -> np.ndarray:
    return np.frombuffer(json.dumps(data).encode(), dtype=np.uint8)


def _parse_meta(blob, expected: str) -> dict:
    meta = json.loads(bytes(blob["meta"]).decode())
    if meta.get("blob") != expected:
        raise ValueError(
            f"expected a {expected!r} file, found {meta.get('blob')!r}")
    if meta.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version {meta.get('version')}")
    return meta
