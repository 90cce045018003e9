"""Counter-mode seed expansion for the uniform halves of key material.

Every RLWE-style key pair this repository generates is ``(b, a)`` with
``a`` sampled *uniformly* — the standard seed-expansion trick (REED's
inter-chiplet key transfer, and the transparent half of every published
RLWE key format) stores a PRNG seed instead of ``a`` and regenerates it
deterministically on demand.  That halves switching-key bytes exactly:
each digit pair keeps only its non-uniform ``b`` half.

:class:`SeedExpander` is the one source of that determinism.  A stream
is named by a stable label (``"ckks/relin/l3/d1"``); the generator for a
stream is a Philox counter-mode generator keyed by
``SHA-256(seed || stream)``, so

* the same ``(seed, stream)`` always regenerates the same bytes — on
  any host, in any order, concurrently;
* distinct streams are computationally independent (key separation via
  the hash), so regenerating one digit never needs the others.

Both the key generators (:mod:`repro.ckks.keys`, :mod:`repro.bfv.scheme`,
:mod:`repro.tfhe`) and the seeded serialization format
(:mod:`repro.serialization`, ``format=seeded/v1``) derive stream names
through the helpers below — one formula source, so a saved seed always
re-expands to the arrays the generator produced.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from repro.rns.rns_poly import RNSPoly, RNSRing


# ------------------------------ stream names ---------------------------- #
#
# Stream labels are a contract: serialization stores them next to the
# seed, and the key generators must use the identical spelling.  Keep
# them pure functions of the key structure (scheme, key kind, level,
# digit) — never of generation order.


def pk_stream(scheme: str) -> str:
    """The public key's single uniform component."""
    return f"{scheme}/pk"


def relin_stream(scheme: str, level: int) -> str:
    """Per-level relinearization switching key (digit suffixes appended
    by :func:`digit_stream`)."""
    return f"{scheme}/relin/l{level}"


def galois_stream(scheme: str, g: int, level: int) -> str:
    """Per-(element, level) Galois switching key."""
    return f"{scheme}/galois/g{g}/l{level}"


def digit_stream(prefix: str, digit: int) -> str:
    """One digit of a switching key under a relin/galois prefix."""
    return f"{prefix}/d{digit}"


def ksk_stream(i: int, j: int, v: int) -> str:
    """One TFHE keyswitch-table entry: input coefficient ``i``, digit
    level ``j``, digit value ``v`` (from 1)."""
    return lwe_stream("ksk", f"i{i}/j{j}/v{v}")


def ciphertext_stream(scheme: str, nonce: int) -> str:
    """The uniform mask of one symmetric encryption (nonce = counter)."""
    return f"{scheme}/ct/{nonce}"


def lwe_stream(kind: str, index: str) -> str:
    """One TFHE LWE/TRLWE mask (``kind`` in {"ct", "ksk", "bsk"})."""
    return f"tfhe/{kind}/{index}"


# ------------------------------ expander -------------------------------- #


class SeedExpander:
    """Deterministic per-stream uniform sampling from one master seed."""

    def __init__(self, seed: int):
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.seed = int(seed)

    def __repr__(self) -> str:
        return f"SeedExpander(seed={self.seed})"

    def generator(self, stream: str) -> np.random.Generator:
        """A fresh counter-mode generator keyed by ``(seed, stream)``."""
        if not stream:
            raise ValueError("stream label must be non-empty")
        digest = hashlib.sha256(
            f"seedexp/v1:{self.seed}:{stream}".encode()).digest()
        key = int.from_bytes(digest[:16], "little")
        return np.random.Generator(np.random.Philox(key=key))

    # ------------------------------ samplers ---------------------------- #

    def uniform_rns(self, ring: "RNSRing", primes: Iterable[int],
                    stream: str) -> "RNSPoly":
        """A uniform RNS ring element (coefficient form) for ``stream``."""
        return ring.sample_uniform(self.generator(stream),
                                   primes=tuple(primes))

    def uniform_u32(self, size: int, stream: str) -> np.ndarray:
        """``size`` uniform Torus32 words for ``stream`` (the TFHE mask
        shape; matches :func:`repro.tfhe.lwe.lwe_encrypt`'s draw)."""
        rng = self.generator(stream)
        return rng.integers(0, 1 << 32, size=size,
                            dtype=np.int64).astype(np.uint32)


# ------------------------------ digests --------------------------------- #


def arrays_digest(arrays: Iterable[np.ndarray]) -> str:
    """Order-sensitive SHA-256 over raw array bytes (hex).

    The seeded serialization format stores this digest over the uniform
    halves it *drops*; on load, the digest of the *regenerated* halves
    must match, so a corrupted seed, a tampered stream label, or a
    wrong-basis re-expansion fails loudly instead of yielding silently
    wrong keys.
    """
    h = hashlib.sha256()
    for arr in arrays:
        a = np.ascontiguousarray(arr)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()
