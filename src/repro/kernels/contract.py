"""The kernel-backend contract for the functional FHE hot paths.

A :class:`KernelBackend` implements every polynomial/RNS primitive the
functional layer is hot on — forward/inverse negacyclic NTT, pointwise
modular arithmetic, the multiply-accumulate ``mac``, Galois automorphisms
(in coefficient and in NTT form), fast base conversion (Bconv),
Modup/Moddown and CKKS rescale — over *limb-batched residue matrices*.

Data contract (shared by every backend; see DESIGN.md "Kernel backends"):

* **dtype** — residues are ``numpy.uint64``, already reduced into
  ``[0, q_i)`` per channel.  Every prime fits the ≤42-bit fast path of
  :mod:`repro.ntmath.modular`.  ``ntt_forward`` also takes signed
  integers, which every backend reduces mod each prime, so its result is
  ``NTT(x mod q_i)`` either way; every other op raises :class:`TypeError`
  for an operand that is not uint64.
* **layout** — a polynomial over a basis of ``C`` primes is a contiguous
  ``(C, n)`` matrix: axis 0 is the RNS limb (channel) axis in basis order,
  axis 1 the coefficient/slot axis.  The NTT and pointwise entry points also
  accept extra *batch* axes between them, i.e. ``(C, ..., n)``; ``mac``
  sums over axis 1 of ``(C, J, ..., n)``.
* **form invariants** — NTT entry points transform along the last axis only
  (negacyclic, merged-twiddle; forward output bit-reversed, inverse input
  bit-reversed); ``automorphism_ntt`` takes that NTT form;
  ``automorphism``/``bconv``/``modup``/``moddown``/``rescale`` are
  coefficient-domain only, exactly as in the paper's equations (1)-(3).
  Callers (``RNSPoly``) are responsible for form tracking.
* **bit-exactness** — all backends compute *exact* modular results, so any
  two backends are bit-identical on every op.  ``reference`` (limb-at-a-time)
  exists to prove precisely that against the batched paths; the differential
  suite in ``tests/kernels`` enforces it.

Backends must be stateless between calls apart from caches keyed on the
basis (twiddle tables, CRT constants), so one process-wide instance can be
shared by every ring object.
"""

from __future__ import annotations

from typing import Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

#: An RNS basis as the backends consume it: an ordered prime tuple.
Primes = Tuple[int, ...]


def as_primes(primes: Sequence[int]) -> Primes:
    """Normalize a prime sequence to the hashable tuple form plans cache on.

    A tuple of Python ints is returned as it is; any other sequence (a
    list, an array, a tuple of numpy ints) is rebuilt."""
    if type(primes) is tuple and set(map(type, primes)) <= {int}:
        return primes
    return tuple(int(q) for q in primes)


def as_residues(x: np.ndarray, signed: bool = False) -> np.ndarray:
    """``x`` as an array; :class:`TypeError` unless it is uint64, or, with
    ``signed``, a signed integer dtype.  Nothing is converted: a cast would
    wrap negative values and truncate floats without a word."""
    x = np.asarray(x)
    if x.dtype != np.uint64 and not (signed and x.dtype.kind == "i"):
        kinds = "uint64 or signed integers" if signed else "uint64 residues"
        raise TypeError(f"expected {kinds}, got dtype {x.dtype}")
    return x


def check_residue_matrix(x: np.ndarray, primes: Primes) -> np.ndarray:
    """Validate the ``(C, n)`` layout and the uint64 dtype; return ``x``."""
    x = as_residues(x)
    if x.ndim != 2 or x.shape[0] != len(primes):
        raise ValueError(
            f"expected ({len(primes)}, n) residue matrix, got {x.shape}"
        )
    return x


def check_channel_batch(
    x: np.ndarray, primes: Primes, signed: bool = False
) -> np.ndarray:
    """Validate the ``(C, ..., n)`` layout and the dtype (uint64, or with
    ``signed`` also a signed integer dtype); return ``x``."""
    x = as_residues(x, signed)
    if x.ndim < 2 or x.shape[0] != len(primes):
        raise ValueError(
            f"expected ({len(primes)}, ..., n) channel batch, got {x.shape}"
        )
    return x


def signed_residues(x: np.ndarray, primes: Primes) -> np.ndarray:
    """Signed integers ``x`` shaped ``(C, ..., n)`` as uint64 ``x mod q_i``.

    One floor-mod by a ``(C, 1, ..., 1)`` prime column, exact for negative
    values down to ``-2**63``."""
    q_col = np.array(primes, dtype=np.int64).reshape(
        (len(primes),) + (1,) * (x.ndim - 1))
    return np.mod(x, q_col).astype(np.uint64)


#: Most terms one :meth:`KernelBackend.mac` call sums (its exactness bound).
MAC_MAX_TERMS = 1 << 21


def check_mac_operands(
    a: np.ndarray, b: np.ndarray, primes: Primes
) -> Tuple[np.ndarray, np.ndarray, Tuple[int, ...]]:
    """Validate ``mac``'s operands; return them as uint64 together with
    their broadcast shape ``(C, J, ..., n)``."""
    a = check_channel_batch(a, primes)
    b = check_channel_batch(b, primes)
    if a.ndim != b.ndim or a.ndim < 3:
        raise ValueError(
            f"mac takes two (C, J, ..., n) operands of one rank, "
            f"got {a.shape} and {b.shape}"
        )
    shape = np.broadcast_shapes(a.shape, b.shape)
    if not 1 <= shape[1] <= MAC_MAX_TERMS:
        raise ValueError(
            f"mac sums 1 to {MAC_MAX_TERMS} terms exactly, got {shape[1]}"
        )
    return a, b, shape


@runtime_checkable
class KernelBackend(Protocol):
    """Everything the poly/RNS layers need from a kernel implementation.

    All methods are pure functions of their inputs (plus cached per-basis
    precompute) and return fresh arrays.
    """

    #: Registry name ("numpy", "reference", ...).
    name: str

    # ------------------------------ NTT -------------------------------- #

    def ntt_forward(self, data: np.ndarray, primes: Sequence[int]) -> np.ndarray:
        """Forward negacyclic NTT of ``(C, ..., n)`` data, per channel.

        ``data`` is either uint64 residues in ``[0, q_i)`` or signed
        integers of any magnitude, taken mod each channel's prime: the
        result is ``NTT(data mod q_i)`` in both cases.  The numpy backend
        transforms small signed rows at small ring degrees as one exact
        float64 matrix product (:func:`repro.poly.ntt.dense_forward_fits`
        states when); every other input goes through the butterflies."""

    def ntt_inverse(self, data: np.ndarray, primes: Sequence[int]) -> np.ndarray:
        """Inverse negacyclic NTT of ``(C, ..., n)`` residues, per channel."""

    # ------------------------------ pointwise -------------------------- #

    def pointwise_mul(
        self, a: np.ndarray, b: np.ndarray, primes: Sequence[int]
    ) -> np.ndarray:
        """Elementwise ``a * b mod q_i`` per channel; shapes ``(C, ..., n)``."""

    def pointwise_add(
        self, a: np.ndarray, b: np.ndarray, primes: Sequence[int]
    ) -> np.ndarray:
        """Elementwise ``a + b mod q_i`` per channel."""

    def pointwise_sub(
        self, a: np.ndarray, b: np.ndarray, primes: Sequence[int]
    ) -> np.ndarray:
        """Elementwise ``a - b mod q_i`` per channel."""

    def negate(self, a: np.ndarray, primes: Sequence[int]) -> np.ndarray:
        """Elementwise ``-a mod q_i`` per channel."""

    def mac(
        self, a: np.ndarray, b: np.ndarray, primes: Sequence[int]
    ) -> np.ndarray:
        """Multiply-accumulate ``sum_t a[:, t] * b[:, t] mod q_i``.

        The paper's Meta-OP ``(M_j A_j)_n R_j``: ``J`` products summed,
        then one reduction.  ``a`` and ``b`` are ``(C, J, ..., n)``
        residues of one rank that broadcast against each other by numpy's
        rules; axis 1 holds the ``J`` terms.  The result is the broadcast
        shape without axis 1, ``(C, ..., n)``, as the unique residue.

        Bound: ``1 <= J <= MAC_MAX_TERMS = 2**21``, else
        :class:`ValueError`.  The numpy backend sums lazy products
        (``mulmod_lazy``), each in ``[0, 2q)``, in uint64 and reduces the
        sum once with ``%``.  With ``q < 2**42`` each product is at most
        ``2**43 - 1``, so ``J`` terms sum to at most
        ``2**21 * (2**43 - 1) < 2**64``: the sum never wraps, and its
        remainder is the exact residue.
        """

    def mul_channel_scalars(
        self, a: np.ndarray, scalars: Sequence[int], primes: Sequence[int]
    ) -> np.ndarray:
        """Multiply channel ``i`` by the scalar ``scalars[i] mod q_i``."""

    def automorphism(
        self, a: np.ndarray, k: int, primes: Sequence[int]
    ) -> np.ndarray:
        """Galois map ``X -> X**k`` (odd ``k``) per channel, coefficient form."""

    def automorphism_ntt(
        self, a: np.ndarray, k: int, primes: Sequence[int]
    ) -> np.ndarray:
        """Galois map ``X -> X**k`` (odd ``k``) of NTT-form ``(C, ..., n)``
        residues: ``ntt_forward(automorphism(x, k))`` computed from
        ``ntt_forward(x)`` as one gather along the last axis, with no sign
        flips (:func:`repro.kernels.plans.ntt_automorphism_plan`).  An even
        ``k`` raises :class:`ValueError`."""

    # ------------------------------ basis changes ---------------------- #

    def bconv(
        self,
        x: np.ndarray,
        source_primes: Sequence[int],
        target_primes: Sequence[int],
    ) -> np.ndarray:
        """Fast base conversion (paper eq. (1)): ``(Cs, n) -> (Ct, n)``.

        The *approximate* conversion standard in RNS-CKKS: for ``x`` held
        over the source basis ``Q = prod q_i``::

            Bconv([x]_Q, p_j) = sum_i [x * qhat_i^{-1}]_{q_i} * qhat_i  mod p_j
                              = (x + alpha * Q) mod p_j,   0 <= alpha < L

        with ``qhat_i = Q / q_i`` and ``L`` source channels.  The
        ``alpha * Q`` overshoot is the Bconv error; every backend returns
        the same ``alpha``.
        """

    def modup(
        self,
        x: np.ndarray,
        source_primes: Sequence[int],
        special_primes: Sequence[int],
    ) -> np.ndarray:
        """Modup (eq. (2)): extend ``[x]_Q`` to ``Q*P``; source rows pass through."""

    def moddown(
        self,
        x: np.ndarray,
        source_primes: Sequence[int],
        special_primes: Sequence[int],
    ) -> np.ndarray:
        """Moddown (eq. (3)): ``[x]_{Q*P} -> [x/P]_Q``, up to a small error.

        The result is ``(x - Bconv([x]_P, Q)) / P = floor(x / P) - alpha``
        over ``source_primes``, with ``0 <= alpha < len(special_primes)``:
        the division by ``P`` turns Bconv's ``alpha * P`` overshoot into a
        small additive error, as in every RNS-CKKS library and in the
        accelerators of the paper.
        """

    def rescale(self, x: np.ndarray, primes: Sequence[int]) -> np.ndarray:
        """CKKS rescale: divide by the last prime and drop its channel."""
