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

Those three steps are separate building blocks — :func:`raise_digits`,
:func:`switch_raised` and :func:`mod_down` — so that hoisted rotations
can raise one input once, permute its raised digits in the NTT domain
for each rotation, and sum several switched products over ``Q * P``
before one Moddown (:mod:`repro.ckks.linear`).  ``ModDown(P*x + y) =
x + ModDown(y)`` exactly, which is what lets a sum share one Moddown:
:func:`lift` puts a term over ``Q`` into such a sum as ``P*x``.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels import get_backend
from repro.rns.rns_poly import RNSPoly, RNSRing, channel_rows
from repro.seedexp import SeedExpander, digit_stream


class SwitchingKey:
    """A switching key's digit pairs as one ``(C_ext, dnum, 2, n)`` array.

    ``data[:, t]`` holds digit ``t``'s pair ``(b_t, a_t)`` in NTT form over
    ``primes`` (``chain + special``), so DecompPolyMult is one ``mac`` over
    the stored array with no per-call copy; :attr:`pairs` are views of it.

    A key from :func:`make_switching_key` is formed on first access of
    :attr:`data` (as :attr:`pairs`, :attr:`dnum`, a keyswitch and a save
    all do), once; a key built from an array (:meth:`from_halves`, the
    loaders of :mod:`repro.serialization`) holds it from the start.
    Until it is formed, a key holds references to its generator's
    NTT-form secret and to its source secret (``s²`` or ``σ_g(s)``); it
    drops them once formed.  Serialization writes only the formed key,
    never a secret.
    """

    __slots__ = ("ring", "primes", "_data", "_form")

    def __init__(self, ring: RNSRing, data: np.ndarray,
                 primes: Tuple[int, ...]):
        if data.ndim != 4 or data.shape[2] != 2 or (
                data.shape[0] != len(primes)):
            raise ValueError(
                f"switching key data {data.shape} is not "
                f"({len(primes)}, dnum, 2, n)")
        self.ring = ring
        self.primes = tuple(primes)
        self._data: Optional[np.ndarray] = data
        self._form: Optional[Callable[[], np.ndarray]] = None

    @classmethod
    def from_halves(cls, ring: RNSRing, halves: Sequence[np.ndarray],
                    primes: Tuple[int, ...]) -> "SwitchingKey":
        """Stack ``(C_ext, n)`` NTT-form halves ``b_0, a_0, b_1, a_1, ...``
        into one key (the only copy kept)."""
        data = np.stack([np.asarray(h, dtype=np.uint64) for h in halves],
                        axis=1)
        return cls(ring, data.reshape(data.shape[0], -1, 2, data.shape[-1]),
                   primes)

    @classmethod
    def deferred(cls, ring: RNSRing, primes: Tuple[int, ...],
                 form: Callable[[], np.ndarray]) -> "SwitchingKey":
        """A key whose array ``form()`` makes on first access of
        :attr:`data`."""
        key = cls.__new__(cls)
        key.ring = ring
        key.primes = tuple(primes)
        key._data = None
        key._form = form
        return key

    @property
    def data(self) -> np.ndarray:
        """The ``(C_ext, dnum, 2, n)`` key array, formed on first access."""
        if self._data is None:
            self._data = self._form()
            self._form = None
        return self._data

    @property
    def dnum(self) -> int:
        return self.data.shape[1]

    @property
    def pairs(self) -> List[Tuple[RNSPoly, RNSPoly]]:
        """``[(b_t, a_t)]`` per digit, as NTT-form views of :attr:`data`."""
        return [tuple(RNSPoly(self.ring, self.data[:, t, k], self.primes, True)
                      for k in (0, 1))
                for t in range(self.dnum)]


def _key_draws(
    ring: RNSRing,
    extended: Tuple[int, ...],
    dnum: int,
    rng: np.random.Generator,
    error_std: float,
    expander: Optional[SeedExpander],
    stream_prefix: str,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Each digit's coefficient-form ``(e_t, a_t)`` over ``extended``, in
    the key's draw order: digit by digit, ``a_t`` from ``rng`` (or from
    ``expander``'s stream ``{stream_prefix}/d{t}``), then ``e_t`` from
    ``rng``."""
    for t in range(dnum):
        if expander is not None:
            a = expander.uniform_rns(ring, extended,
                                     digit_stream(stream_prefix, t))
        else:
            a = ring.sample_uniform(rng, primes=extended)
        e = ring.sample_error(rng, primes=extended, sigma=error_std)
        yield e.data, a.data


def make_switching_key(
    ring: RNSRing,
    s_to: RNSPoly,
    s_from: RNSPoly,
    chain: Sequence[int],
    special: Sequence[int],
    digits: Sequence[Sequence[int]],
    rng: np.random.Generator,
    error_std: float,
    expander: Optional[SeedExpander] = None,
    stream_prefix: str = "",
) -> SwitchingKey:
    """The per-digit key pairs for switching ``s_from -> s_to``, formed
    on first use.

    ``s_to`` and ``s_from`` are secrets in NTT form over (a superset of)
    ``chain + special``, cut to that basis by rows; the key is in NTT
    form over ``chain + special``.

    Digit by digit, the uniform ``a_t`` is drawn and then the error
    ``e_t``, both from ``rng``: the order of one draw per digit.  With an
    ``expander``, each ``a_t`` comes from the deterministic stream
    ``{stream_prefix}/d{t}`` instead — the seed-expanded key construction:
    serialization can then drop the ``a`` halves and regenerate them from
    the seed (:mod:`repro.serialization`, ``format=seeded/v1``).  The
    errors still come from ``rng`` (the secret, non-regenerable half).

    The call makes the draws, so ``rng`` advances exactly as if the key
    were formed here, records the generator's state before them and drops
    them.  The key's first :attr:`~SwitchingKey.data` read draws them again
    from a generator set to that state (:func:`_form_key`), so the key is
    the same whenever, and in whatever order, keys are formed.
    """
    if not (s_to.ntt_form and s_from.ntt_form):
        raise ValueError("switching-key secrets must be in NTT form")
    chain = tuple(int(q) for q in chain)
    special = tuple(int(p) for p in special)
    extended = chain + special
    digits = tuple(tuple(int(q) for q in digit) for digit in digits)
    state = rng.bit_generator.state
    for _ in _key_draws(ring, extended, len(digits), rng, error_std,
                        expander, stream_prefix):
        pass
    return SwitchingKey.deferred(ring, extended, partial(
        _form_key, ring, s_to, s_from, chain, special, digits,
        type(rng.bit_generator), state, error_std, expander, stream_prefix))


def _form_key(
    ring: RNSRing,
    s_to: RNSPoly,
    s_from: RNSPoly,
    chain: Tuple[int, ...],
    special: Tuple[int, ...],
    digits: Tuple[Tuple[int, ...], ...],
    bit_generator: type,
    state: dict,
    error_std: float,
    expander: Optional[SeedExpander],
    stream_prefix: str,
) -> np.ndarray:
    """The ``(C_ext, dnum, 2, n)`` array of a :func:`make_switching_key`
    key: its draws replayed from a fresh ``bit_generator`` set to
    ``state``, entering the NTT domain in one forward call, and each
    ``b_t = -a_t·s_to + e_t + P·g_t·s_from`` formed there.

    ``P·g_t`` is ``P`` mod each prime of digit ``t`` (``g_t ≡ 1`` there)
    and 0 mod every other prime (``g_t ≡ 0`` mod the other chain primes,
    ``P ≡ 0`` mod the special ones), so the keyed term is :func:`lift` of
    ``s_from`` on digit ``t``'s rows and zero elsewhere.  Every step is
    exact per channel: the NTT is linear, so it commutes with the channel
    scalars, and each residue sum and product is canonical, so the key is
    the one the coefficient-form steps give.
    """
    extended = chain + special
    replay = bit_generator()
    replay.state = state
    # Column t holds digit t's (e_t, a_t), and then its key pair (b_t,
    # a_t): the key is written back into the draw buffer, which is made
    # before any temporary.  A key array made amid the transform's
    # temporaries fragments the heap and raises the peak RSS.
    key = np.empty((len(extended), len(digits), 2, ring.n), dtype=np.uint64)
    for t, (e, a) in enumerate(_key_draws(
            ring, extended, len(digits), np.random.Generator(replay),
            error_std, expander, stream_prefix)):
        key[:, t, 0] = e
        key[:, t, 1] = a
    backend = get_backend()
    drawn = backend.ntt_forward(key, extended)
    keyed = np.zeros(key[:, :, 0].shape, dtype=np.uint64)
    lifted = lift(s_from.restrict(chain).data, chain, special)
    for t, digit in enumerate(digits):
        rows = channel_rows(extended, digit)
        keyed[rows, t] = lifted[rows]
    a_s = backend.pointwise_mul(drawn[:, :, 1],
                                s_to.restrict(extended).data[:, None],
                                extended)
    key[:, :, 1] = drawn[:, :, 1]
    key[:, :, 0] = backend.pointwise_add(
        backend.pointwise_sub(drawn[:, :, 0], a_s, extended), keyed, extended)
    return key


def modup_digits(
    d: RNSPoly, digits: Sequence[Sequence[int]], special: Sequence[int]
) -> np.ndarray:
    """Modup every digit of ``d`` (coefficient form, over the chain).

    Returns one ``(C_ext, dnum, n)`` coefficient-form batch over
    ``d.primes + special``: column ``t`` holds digit ``t``'s own rows and
    their Bconv into every other channel.  A ``(C, B, n)`` stack gives
    ``(C_ext, dnum, B, n)``; Bconv works coefficient by coefficient, so
    each digit is one call on the ``(C, B * n)`` view.
    """
    backend = get_backend()
    extended = d.primes + tuple(int(p) for p in special)
    index = {q: i for i, q in enumerate(extended)}
    out = np.empty((len(extended), len(digits)) + d.data.shape[1:],
                   dtype=np.uint64)
    for t, digit in enumerate(digits):
        digit = tuple(int(q) for q in digit)
        others = tuple(q for q in extended if q not in digit)
        rows = [index[q] for q in digit]    # chain primes lead ``extended``
        x = d.data[rows]
        out[rows, t] = x
        out[[index[q] for q in others], t] = backend.bconv(
            x.reshape(len(rows), -1), digit, others).reshape(
                (-1,) + x.shape[1:])
    return out


def raise_digits(
    d: RNSPoly, digits: Sequence[Sequence[int]], special: Sequence[int]
) -> np.ndarray:
    """*Raise*: :func:`modup_digits` of ``d`` (coefficient form), then one
    forward NTT — the ``(C_ext, dnum, n)`` digits over
    ``d.primes + special`` in NTT form, ready for :func:`switch_raised`."""
    extended = d.primes + tuple(int(p) for p in special)
    return get_backend().ntt_forward(modup_digits(d, digits, special),
                                     extended)


def switch_raised(raised: np.ndarray, key: SwitchingKey) -> np.ndarray:
    """*Switch*: ``sum_t raised_t * key_t`` as one ``mac`` call.

    ``raised`` is a :func:`raise_digits` batch, or a permutation of one
    (``automorphism_ntt``), over the key's basis.  The result is the
    ``(C_ext, 2, n)`` NTT-form pair over ``Q * P``, not yet Moddowned, so
    several of them can be summed before one :func:`mod_down`.  The key
    broadcasts over a stack: ``(C_ext, dnum, B, n)`` gives
    ``(C_ext, 2, B, n)``.
    """
    data = key.data
    if raised.ndim == 4:
        data = data[:, :, :, None]
    return get_backend().mac(data, raised[:, :, None], key.primes)


def lift(x: np.ndarray, chain: Tuple[int, ...],
         special: Sequence[int]) -> np.ndarray:
    """``P * x`` over ``Q * P``: the ``(C, ..., n)`` batch ``x`` over
    ``chain`` times ``P = prod(special)`` on the chain rows (one
    ``mul_channel_scalars`` call), and zero on the special rows, where
    ``P * x`` vanishes.  The map is linear, so it commutes with the NTT,
    and :func:`mod_down` of ``lift(x) + y`` is ``x + mod_down(y)`` bit for
    bit: a term over ``Q`` joins a sum over ``Q * P`` at no rounding.
    """
    special = tuple(int(p) for p in special)
    p_product = math.prod(special)
    out = np.zeros((len(chain) + len(special),) + x.shape[1:],
                   dtype=np.uint64)
    out[:len(chain)] = get_backend().mul_channel_scalars(
        x, [p_product % q for q in chain], chain)
    return out


def mod_down(acc: np.ndarray, extended: Tuple[int, ...],
             special_count: int) -> np.ndarray:
    """*Down*: one inverse NTT and one Moddown call for every part of an
    NTT-form ``(C_ext, parts, ..., n)`` batch over ``extended``, as the
    coefficient-form ``(C, parts, ..., n)`` batch over its leading ``C``
    chain primes.

    Moddown works coefficient by coefficient, so one call on the
    ``(C_ext, -1)`` view equals one call per part (and per stacked
    polynomial) bit for bit.
    """
    backend = get_backend()
    acc = backend.ntt_inverse(acc, extended)
    chain = extended[:len(extended) - special_count]
    down = backend.moddown(acc.reshape(len(extended), -1), chain,
                           extended[len(chain):])
    return down.reshape((len(chain),) + acc.shape[1:])


def hybrid_keyswitch(
    ring: RNSRing,
    d: RNSPoly,
    digits: Sequence[Sequence[int]],
    special: Sequence[int],
    key: SwitchingKey,
) -> Tuple[RNSPoly, RNSPoly]:
    """Apply a switching key to ``d`` (over the chain, any form):
    :func:`raise_digits`, :func:`switch_raised`, :func:`mod_down`.

    Returns ``(k0, k1)`` over the chain in coefficient form, satisfying
    ``k0 + k1*s ≈ d*s'`` (plus the small Moddown noise).  A ``(C, B, n)``
    stack ``d`` takes the same calls and gives stacks ``k0``, ``k1``.
    """
    if len(digits) != key.dnum:
        raise ValueError(
            f"switching key has {key.dnum} digits, chain needs {len(digits)}"
        )
    special = tuple(int(p) for p in special)
    extended = d.primes + special
    if key.primes != extended:
        raise ValueError("switching key is not over chain + special")
    acc = switch_raised(raise_digits(d.to_coeff(), digits, special), key)
    down = mod_down(acc, extended, len(special))
    return (RNSPoly(ring, down[:, 0], d.primes, False),
            RNSPoly(ring, down[:, 1], d.primes, False))
