"""TRGSW samples, gadget decomposition, external product, CMux."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.seedexp import SeedExpander
from repro.tfhe.params import TFHEParams
from repro.tfhe.polymul import get_torus_ntt
from repro.tfhe.trlwe import TrlweKey, TrlweSample, trlwe_encrypt


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
        from repro.tfhe.torus import to_centered_int64

        ntt = get_torus_ntt(self.params.ring_degree,
                            self.params.digit_row_bound)
        a_stack = np.stack([to_centered_int64(r.a) for r in self.rows])
        b_stack = np.stack([to_centered_int64(r.b) for r in self.rows])
        self.spectra_a = ntt.spectrum(a_stack)
        self.spectra_b = ntt.spectrum(b_stack)

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


def trgsw_encrypt(
    message: int,
    key: TrgswKey,
    rng: np.random.Generator,
    noise_std: float = None,
    expander: Optional[SeedExpander] = None,
    stream_prefix: Optional[str] = None,
) -> TrgswSample:
    """Encrypt a small integer constant (typically a key bit 0/1).

    With an ``expander``, each row's uniform mask comes from the stream
    ``{stream_prefix}/r{row}``.  The gadget is added to the mask of the
    first ``l`` rows, so those masks are only uniform pre-gadget: this is
    a generation-time determinism hook (bootstrapping-key reproducibility),
    not a serialization-compression one.
    """
    params = key.params
    n = params.ring_degree
    length = params.decomp_length
    zero = np.zeros(n, dtype=np.uint32)
    rows = []
    for row in range(2 * length):
        stream = (f"{stream_prefix}/r{row}"
                  if expander is not None else None)
        rows.append(trlwe_encrypt(zero, key.trlwe_key, rng, noise_std,
                                  expander=expander, stream=stream))
    m = int(message)
    for i in range(length):
        g = (m << (32 - (i + 1) * params.bg_bit)) % (1 << 32)
        rows[i].a[0] = np.uint32((int(rows[i].a[0]) + g) % (1 << 32))
        rows[length + i].b[0] = np.uint32(
            (int(rows[length + i].b[0]) + g) % (1 << 32))
    sample = TrgswSample(params, rows)
    sample.precompute_spectra()
    return sample
