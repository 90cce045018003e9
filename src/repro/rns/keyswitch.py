"""Scheme-agnostic hybrid (dnum-digit) keyswitching over RNS polynomials.

Both RLWE-based schemes in this repository (CKKS and BFV) relinearize and
rotate through the same construction — the one Alchemist's Modup /
DecompPolyMult / Moddown operators accelerate:

* a switching key from secret ``s'`` to secret ``s`` holds, per digit ``t``
  of the chain, a pair over the extended basis ``Q * P``::

      ksk_t = ( -a_t * s + e_t + P * g_t * s',   a_t )
      g_t   = (Q / Q_t) * [(Q / Q_t)^{-1}]_{Q_t}   mod Q

* switching a polynomial ``d`` decomposes it into digit residues, Modups
  each digit to ``Q * P``, accumulates ``sum_t ModUp(d_t) * ksk_t`` in the
  NTT domain (DecompPolyMult), and Moddowns by ``P``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels import get_backend
from repro.rns.rns_poly import RNSPoly, RNSRing
from repro.seedexp import SeedExpander, digit_stream


def make_switching_key(
    ring: RNSRing,
    s_to_full: RNSPoly,
    s_from_full: RNSPoly,
    chain: Sequence[int],
    special: Sequence[int],
    digits: Sequence[Sequence[int]],
    rng: np.random.Generator,
    error_std: float,
    expander: Optional[SeedExpander] = None,
    stream_prefix: str = "",
) -> List[Tuple[RNSPoly, RNSPoly]]:
    """Build the per-digit key pairs for switching ``s_from -> s_to``.

    ``s_to_full`` / ``s_from_full`` are held over (a superset of)
    ``chain + special`` in coefficient form; the returned pairs are in NTT
    form over ``chain + special``.

    With an ``expander``, each digit's uniform ``a_t`` comes from the
    deterministic stream ``{stream_prefix}/d{t}`` instead of ``rng`` —
    the seed-expanded key construction: serialization can then drop the
    ``a`` halves and regenerate them from the seed
    (:mod:`repro.serialization`, ``format=seeded/v1``).  The error terms
    still come from ``rng`` (they are the secret, non-regenerable half).
    """
    chain = tuple(int(q) for q in chain)
    special = tuple(int(p) for p in special)
    extended = chain + special
    q_product = 1
    for q in chain:
        q_product *= q
    p_product = 1
    for p in special:
        p_product *= p

    s_to = s_to_full.restrict(extended).to_ntt()
    s_from = s_from_full.restrict(extended)

    pairs = []
    for t, digit in enumerate(digits):
        digit_product = 1
        for q in digit:
            digit_product *= q
        q_hat = q_product // digit_product
        g = (q_hat * pow(q_hat, -1, digit_product)) % q_product
        pg = (p_product * g) % (q_product * p_product)
        if expander is not None:
            a = expander.uniform_rns(
                ring, extended, digit_stream(stream_prefix, t)).to_ntt()
        else:
            a = ring.sample_uniform(rng, primes=extended).to_ntt()
        e = ring.sample_error(rng, primes=extended, sigma=error_std).to_ntt()
        keyed = s_from.mul_channel_scalars(
            [pg % q for q in extended]
        ).to_ntt()
        b = -(a * s_to) + e + keyed
        pairs.append((b, a))
    return pairs


def modup_digits(
    d: RNSPoly, digits: Sequence[Sequence[int]], special: Sequence[int]
) -> np.ndarray:
    """Modup every digit of ``d`` (coefficient form, over the chain).

    Returns one ``(C_ext, dnum, n)`` coefficient-form batch over
    ``d.primes + special``: column ``t`` holds digit ``t``'s own rows and
    their Bconv into every other channel.
    """
    backend = get_backend()
    extended = d.primes + tuple(int(p) for p in special)
    index = {q: i for i, q in enumerate(extended)}
    out = np.empty((len(extended), len(digits), d.ctx.n), dtype=np.uint64)
    for t, digit in enumerate(digits):
        digit = tuple(int(q) for q in digit)
        others = tuple(q for q in extended if q not in digit)
        rows = [index[q] for q in digit]    # chain primes lead ``extended``
        out[rows, t] = d.data[rows]
        out[[index[q] for q in others], t] = backend.bconv(
            d.data[rows], digit, others)
    return out


def keyswitch_raised(
    ring: RNSRing,
    raised: np.ndarray,
    extended: Tuple[int, ...],
    special_count: int,
    pairs: Sequence[Tuple[RNSPoly, RNSPoly]],
) -> Tuple[RNSPoly, RNSPoly]:
    """DecompPolyMult and Moddown of a :func:`modup_digits` batch.

    Every digit enters the NTT domain in one call, both accumulators
    ``sum_t raised_t * key_t`` are one ``mac`` call and leave the NTT
    domain in one, and each is Moddowned by the trailing ``special_count``
    primes of ``extended``.
    """
    backend = get_backend()
    if any(p.primes != extended for pair in pairs for p in pair):
        raise ValueError("switching key is not over chain + special")
    keys = np.stack([p.data for pair in pairs for p in pair], axis=1)
    raised = backend.ntt_forward(raised, extended)
    acc = backend.mac(keys.reshape(len(extended), len(pairs), 2, -1),
                      raised[:, :, None], extended)
    acc = backend.ntt_inverse(acc, extended)
    k0 = RNSPoly(ring, acc[:, 0], extended, False).moddown(special_count)
    k1 = RNSPoly(ring, acc[:, 1], extended, False).moddown(special_count)
    return k0, k1


def hybrid_keyswitch(
    ring: RNSRing,
    d: RNSPoly,
    digits: Sequence[Sequence[int]],
    special: Sequence[int],
    pairs: Sequence[Tuple[RNSPoly, RNSPoly]],
) -> Tuple[RNSPoly, RNSPoly]:
    """Apply a switching key to ``d`` (over the chain, any form).

    Returns ``(k0, k1)`` over the chain in coefficient form, satisfying
    ``k0 + k1*s ≈ d*s'`` (plus the small Moddown noise).
    """
    if len(digits) != len(pairs):
        raise ValueError(
            f"switching key has {len(pairs)} digits, chain needs {len(digits)}"
        )
    d = d.to_coeff()
    special = tuple(int(p) for p in special)
    return keyswitch_raised(ring, modup_digits(d, digits, special),
                            d.primes + special, len(special), pairs)
