"""TRGSW samples, gadget decomposition, external product, CMux."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.seedexp import SeedExpander
from repro.tfhe.params import TFHEParams
from repro.tfhe.polymul import get_torus_ntt
from repro.tfhe.torus import to_centered_int64
from repro.tfhe.trlwe import BLOCK_ROWS, TrlweKey, TrlweSample, trlwe_encrypt


def gadget_decompose(
    poly: np.ndarray, bg_bit: int, length: int
) -> np.ndarray:
    """Signed gadget decomposition of Torus32 polynomials.

    Returns ``(length, ..., N)`` int64 digits ``d_i`` in ``[-Bg/2, Bg/2)``
    with ``sum_i d_i * 2**(32 - (i+1)*bg_bit) ≈ poly`` (error below
    ``2**(32 - length*bg_bit - 1)``), following TFHE-lib's offset trick.
    The digit level leads; ``poly``'s own axes (a batch of ``k``
    polynomials is ``(k, N)``) follow unchanged.
    """
    poly = np.asarray(poly, dtype=np.uint32)
    bg = 1 << bg_bit
    half = bg >> 1
    offset = 0
    for i in range(1, length + 1):
        offset += half << (32 - i * bg_bit)
    t = (poly.astype(np.uint64) + np.uint64(offset % (1 << 32))) & np.uint64(
        0xFFFFFFFF
    )
    shifts = np.array(
        [32 - i * bg_bit for i in range(1, length + 1)], dtype=np.uint64
    ).reshape((length,) + (1,) * poly.ndim)
    return ((t >> shifts) & np.uint64(bg - 1)).astype(np.int64) - half


@dataclass
class TrgswKey:
    """TRGSW uses the TRLWE key; this wrapper exists for API clarity."""

    trlwe_key: TrlweKey

    @property
    def params(self) -> TFHEParams:
        return self.trlwe_key.params


@dataclass
class TrgswSample:
    """A TRGSW encryption of a small integer polynomial ``m``.

    ``rows`` holds ``2*l`` TRLWE samples: rows ``0..l-1`` carry ``m * g_i``
    on the mask, rows ``l..2l-1`` carry it on the body.  ``spectra_a`` /
    ``spectra_b`` cache the NTT spectra of all row polynomials for the
    external-product inner loop.
    """

    params: TFHEParams
    rows: List[TrlweSample]
    spectra_a: np.ndarray = None  # (2, 2l, N)
    spectra_b: np.ndarray = None  # (2, 2l, N)

    def precompute_spectra(self) -> None:
        self.spectra_a, self.spectra_b = _spectra(
            self.params, np.stack([r.a for r in self.rows]),
            np.stack([r.b for r in self.rows]))

    # ------------------------------------------------------------------ #

    def external_product(self, sample: TrlweSample) -> TrlweSample:
        """``self ⊡ sample``: TRLWE encrypting ``m * message(sample)``.

        ``sample`` may be a batch of ``k`` TRLWE samples (``(k, N)``
        polynomials): its ``(2l, k, N)`` digit rows go through one forward
        transform and meet this key's spectra once for the whole batch.
        """
        params = self.params
        if self.spectra_a is None:
            self.precompute_spectra()
        digits_a = gadget_decompose(
            sample.a, params.bg_bit, params.decomp_length
        )
        digits_b = gadget_decompose(
            sample.b, params.bg_bit, params.decomp_length
        )
        u = np.concatenate([digits_a, digits_b], axis=0)  # (2l, ..., N)
        ntt = get_torus_ntt(params.ring_degree, params.digit_row_bound)
        out_a, out_b = ntt.mul_sum_multi(u, [self.spectra_a, self.spectra_b])
        return TrlweSample(out_a, out_b)

    def cmux(self, d0: TrlweSample, d1: TrlweSample) -> TrlweSample:
        """Homomorphic selector: returns ``d1`` if ``m = 1`` else ``d0``."""
        diff = d1 - d0
        return d0 + self.external_product(diff)


def _spectra(params: TFHEParams, a: np.ndarray, b: np.ndarray):
    """The external-product spectra of TRGSW rows: ``a`` and ``b`` are
    ``(..., 2l, N)`` Torus32 masks and bodies, each transformed in one
    spectrum call into a ``(2, ..., 2l, N)`` spectrum.  Two calls, not one
    on both: a block's transform temporaries then stay within those of its
    TRLWE products, which set the peak memory of key generation."""
    ntt = get_torus_ntt(params.ring_degree, params.digit_row_bound)
    return (ntt.spectrum(to_centered_int64(a)),
            ntt.spectrum(to_centered_int64(b)))


def trgsw_encrypt(
    message,
    key: TrgswKey,
    rng: np.random.Generator,
    noise_std: float = None,
    expander: Optional[SeedExpander] = None,
    stream_prefix=None,
):
    """Encrypt a small integer constant (typically a key bit 0/1), or a
    batch of them.

    ``message`` is one integer, which gives one :class:`TrgswSample`, or a
    sequence of ``k``, which gives a list of ``k``, bit for bit the
    samples of ``k`` calls in order.  The samples whose ``2l`` rows fill
    one :data:`~repro.tfhe.trlwe.BLOCK_ROWS` block (at least one) are
    made at a time: one :func:`~repro.tfhe.trlwe.trlwe_encrypt` call
    encrypts zero in all their rows, the gadget is added, and one
    spectrum call transforms every row's mask, one every row's body.

    With an ``expander``, each row's uniform mask comes from the stream
    ``{stream_prefix}/r{row}`` (one prefix per message for a batch).  The
    gadget is added to the mask of the first ``l`` rows, so those masks
    are only uniform pre-gadget: this is a generation-time determinism
    hook (bootstrapping-key reproducibility), not a
    serialization-compression one.
    """
    params = key.params
    n, length = params.ring_degree, params.decomp_length
    single = np.ndim(message) == 0
    messages = [int(m) for m in np.ravel(message)]
    if expander is not None and stream_prefix is None:
        raise ValueError("seed-expanded masks need a stream prefix")
    per_block = max(1, BLOCK_ROWS // (2 * length))
    samples = []
    for lo in range(0, len(messages), per_block):
        block = messages[lo:lo + per_block]
        streams = None
        if expander is not None:
            prefixes = ([stream_prefix] if single
                        else stream_prefix[lo:lo + per_block])
            streams = [f"{prefix}/r{row}" for prefix in prefixes
                       for row in range(2 * length)]
        rows = trlwe_encrypt(
            np.zeros((len(block) * 2 * length, n), dtype=np.uint32),
            key.trlwe_key, rng, noise_std, expander=expander, stream=streams)
        a = rows.a.reshape(len(block), 2 * length, n)
        b = rows.b.reshape(len(block), 2 * length, n)
        # m * g_i on the constant coefficient of row i's mask and of row
        # (l + i)'s body; uint32 addition wraps mod 2**32
        gadget = np.array(
            [[(m << (32 - (i + 1) * params.bg_bit)) % (1 << 32)
              for i in range(length)] for m in block], dtype=np.uint32)
        a[:, :length, 0] += gadget
        b[:, length:, 0] += gadget
        spectra_a, spectra_b = _spectra(params, a, b)
        samples += [
            TrgswSample(params, [TrlweSample(a[j, r], b[j, r])
                                 for r in range(2 * length)],
                        spectra_a[:, j], spectra_b[:, j])
            for j in range(len(block))]
    return samples[0] if single else samples
