"""The RLWE steps CKKS and BFV share, each written once.

Both schemes compute over ``Z[X]/(X^n+1)`` in RNS form and differ only in
how a message is placed and in what follows a tensor product.  Each step
here stacks its polynomials into one ``(C, k, n)`` batch, so they enter
the NTT domain in one kernel call and leave it in one.  Keys are held in
NTT form over their own basis and cut to a ciphertext's basis by rows,
which is exact because each channel's transform is independent.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels import get_backend
from repro.rns.keyswitch import SwitchingKey, make_switching_key
from repro.rns.rns_poly import RNSPoly, RNSRing, channel_rows
from repro.seedexp import SeedExpander


def coeff_batch(polys: Sequence[RNSPoly]) -> np.ndarray:
    """Polynomials over one basis as one ``(C, k, n)`` coefficient batch."""
    return np.stack([p.to_coeff().data for p in polys], axis=1)


def ntt_batch(polys: Sequence[RNSPoly]) -> np.ndarray:
    """Polynomials over one basis as one ``(C, k, n)`` NTT batch: their
    data stacked as it is when every one is in NTT form, else
    :func:`coeff_batch` by one forward call."""
    if all(p.ntt_form for p in polys):
        return np.stack([p.data for p in polys], axis=1)
    return get_backend().ntt_forward(coeff_batch(polys), polys[0].primes)


def unstack(ring: RNSRing, batch: np.ndarray, primes: Tuple[int, ...],
            ntt_form: bool = False) -> List[RNSPoly]:
    """The ``k`` columns of a ``(C, k, n)`` batch, in coefficient form
    unless ``ntt_form``."""
    return [RNSPoly(ring, batch[:, k], primes, ntt_form)
            for k in range(batch.shape[1])]


def require_params(params: Any, *cts: Any) -> None:
    """Raise :class:`ValueError` for a ciphertext made under other params."""
    for ct in cts:
        if ct.params != params:
            raise ValueError(
                "ciphertext parameters differ from the evaluator's")


def require_single(*cts: Any) -> None:
    """Raise :class:`ValueError` for a stack of ciphertexts: an op with no
    stack path must not broadcast one."""
    for ct in cts:
        if ct.parts[0].data.ndim != 2:
            raise ValueError("this op takes one ciphertext, not a stack")


def rlwe_b(a: RNSPoly, s: RNSPoly, e: RNSPoly) -> RNSPoly:
    """``-a·s + e``: the ``b`` half of an RLWE sample with mask ``a``."""
    return -(a.to_ntt() * s.to_ntt()).to_coeff() + e


class RLWEKeyGenerator:
    """The key material both RLWE schemes draw the same way.

    ``rng`` draws the ternary secret at construction, over
    ``params.all_primes``, then every error term in call order.  With
    ``expand_seed`` set, every *uniform* half (a public key's ``a``, each
    switching-key digit's ``a_t``) comes from a deterministic
    :class:`~repro.seedexp.SeedExpander` stream instead of ``rng``, and
    the key objects carry the seed, so the seeded serialization format
    can drop those halves.  Secrets and errors always come from ``rng``.

    The secret is forward-transformed once, over all its primes, and every
    key is formed from that transform: cut by rows to the key's basis, its
    square a pointwise product, a Galois image one ``automorphism_ntt``
    gather.  Each is exactly the transform of the coefficient-form value.

    A scheme's generator names its prime sets and its stream names.
    """

    def __init__(self, params: Any, rng: np.random.Generator,
                 expand_seed: Optional[int] = None):
        self.params = params
        self.rng = rng
        self.expand_seed = expand_seed
        self._expander = (SeedExpander(expand_seed)
                          if expand_seed is not None else None)
        self.ring = RNSRing(params.n, params.all_primes)
        self._secret = self.ring.sample_ternary(
            rng, primes=params.all_primes,
            hamming_weight=params.hamming_weight)
        self._secret_ntt = self._secret.to_ntt()

    def _public_pair(self, primes: Tuple[int, ...],
                     stream: str) -> Tuple[RNSPoly, RNSPoly]:
        """``(-a·s + e, a)`` over ``primes``."""
        s = self._secret_ntt.restrict(primes)
        if self._expander is not None:
            a = self._expander.uniform_rns(self.ring, primes, stream)
        else:
            a = self.ring.sample_uniform(self.rng, primes=primes)
        e = self.ring.sample_error(
            self.rng, primes=primes, sigma=self.params.error_std)
        return rlwe_b(a, s, e), a

    def _squared_secret(self) -> RNSPoly:
        """``s²`` in NTT form, the relinearization key's source secret."""
        return self._secret_ntt * self._secret_ntt

    def _galois_secret(self, g: int) -> RNSPoly:
        """``s(X^g)`` in NTT form, a Galois key's source secret."""
        s = self._secret_ntt
        return RNSPoly(self.ring, get_backend().automorphism_ntt(
            s.data, g, s.primes), s.primes, ntt_form=True)

    def _switching_key(
        self, s_from: RNSPoly, chain: Sequence[int],
        digits: Sequence[Sequence[int]], stream_prefix: str,
    ) -> SwitchingKey:
        """Digit pairs switching ``s_from`` (NTT form) ``-> s`` over
        ``chain + special``, drawn now and formed on first use."""
        return make_switching_key(
            self.ring, self._secret_ntt, s_from, chain,
            self.params.special_primes, digits, self.rng,
            self.params.error_std, expander=self._expander,
            stream_prefix=stream_prefix)


class NTTPublicKey:
    """A public key ``(b, a)`` as one ``(C, 2, n)`` NTT batch."""

    def __init__(self, b: RNSPoly, a: RNSPoly):
        if b.primes != a.primes:
            raise ValueError("public key halves live over different bases")
        self.primes = b.primes
        self.batch = ntt_batch([b, a])

    def encrypt(self, m: RNSPoly, rng: np.random.Generator,
                error_std: float) -> List[RNSPoly]:
        """``[b·u + e0 + m, a·u + e1]`` over ``m``'s basis, drawing ``u``,
        ``e0``, ``e1`` in that order; a key that does not cover ``m``'s
        primes raises :class:`ValueError`."""
        primes, ring = m.primes, m.ctx
        key = self.batch[channel_rows(self.primes, primes)]
        u = ring.sample_ternary(rng, primes=primes)
        e0 = ring.sample_error(rng, primes=primes, sigma=error_std)
        e1 = ring.sample_error(rng, primes=primes, sigma=error_std)
        backend = get_backend()
        u_ntt = backend.ntt_forward(u.data, primes)
        c0, c1 = unstack(ring, backend.ntt_inverse(
            backend.pointwise_mul(key, u_ntt[:, None], primes), primes), primes)
        return [c0 + e0 + m, c1 + e1]


def phase(parts: Sequence[RNSPoly], s_ntt: RNSPoly) -> RNSPoly:
    """``Σ_k c_k·s^k`` in coefficient form; ``s_ntt`` is the secret in NTT
    form over a basis covering the parts' (else :class:`ValueError`)."""
    primes = parts[0].primes
    s = s_ntt.restrict(primes)
    x = ntt_batch(parts)
    acc = RNSPoly(s.ctx, x[:, 0], primes, True)
    s_power = None
    for k in range(1, len(parts)):
        s_power = s if s_power is None else s_power * s
        acc = acc + RNSPoly(s.ctx, x[:, k], primes, True) * s_power
    return acc.to_coeff()


def tensor(x: np.ndarray, primes: Sequence[int]) -> np.ndarray:
    """``(a0·b0, a0·b1 + a1·b0, a1·b1)`` of the ``(C, 4, ..., n)``
    coefficient batch ``(a0, a1, b0, b1)``, as a ``(C, 3, ..., n)`` batch
    in NTT form: one forward call, and the caller inverse-transforms what
    it needs in coefficient form.

    A ``(C, 2, ..., n)`` batch ``(a0, a1)`` is squared: two polynomials
    transformed, three products ``a0²``, ``a0·a1``, ``a1²``, and
    ``d1 = a0·a1 + a0·a1``.  Each residue product is exact, so this is
    the product's ``a0·a1 + a1·a0`` bit for bit."""
    backend = get_backend()
    x = backend.ntt_forward(x, primes)
    if x.shape[1] == 2:
        prods = backend.pointwise_mul(x[:, [0, 0, 1]], x[:, [0, 1, 1]],
                                      primes)
        prods[:, 1] = backend.pointwise_add(prods[:, 1], prods[:, 1],
                                            primes)
        return prods
    prods = backend.pointwise_mul(x[:, [0, 0, 1, 1]], x[:, [2, 3, 2, 3]],
                                  primes)
    d1 = backend.pointwise_add(prods[:, 1], prods[:, 2], primes)
    return np.stack([prods[:, 0], d1, prods[:, 3]], axis=1)


def add_parts(a: Sequence[RNSPoly], b: Sequence[RNSPoly]) -> List[RNSPoly]:
    """Partwise sum; the longer operand's extra parts are copied."""
    longer = a if len(a) >= len(b) else b
    return ([x + y for x, y in zip(a, b)]
            + [p.copy() for p in longer[min(len(a), len(b)):]])


def plain_mul(parts: Sequence[RNSPoly], plain: RNSPoly) -> List[RNSPoly]:
    """Every part times ``plain`` (cut to the parts' basis); the parts of
    a stack take a ``(C, 1, n)`` plain."""
    primes = parts[0].primes
    if plain.data.ndim != parts[0].data.ndim:
        raise ValueError("a stack of polynomials meets one polynomial")
    backend = get_backend()
    pt = plain.restrict(primes).to_ntt()
    prods = backend.pointwise_mul(ntt_batch(parts), pt.data[:, None], primes)
    return unstack(pt.ctx, backend.ntt_inverse(prods, primes), primes)
