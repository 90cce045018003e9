"""CKKS noise estimation and measurement.

An analytical error model (standard average-case heuristics) alongside an
exact noise *measurement* harness: the estimator predicts how much error an
operation pipeline adds, and the tests validate the predictions against
measured noise from real encrypt/evaluate/decrypt runs.  Useful for
choosing scales and levels before running a deep circuit.

Conventions: errors are tracked as standard deviations of the *coefficient*
error polynomial; slot errors relate by ``slot_std ≈ coeff_std * sqrt(n)``
(the embedding spreads coefficient noise across slots) and values decode
divided by the scale.

The per-operation formulas live as module-level functions so the static
noise-budget verifier (:mod:`repro.compiler.verify.noise`) can evaluate
them from builder annotations alone, without constructing a
:class:`~repro.ckks.params.CKKSParams` (whose ``__post_init__`` generates
the full prime chain).  :class:`CKKSNoiseEstimator` delegates to the same
functions, so the abstract interpreter and the measured-noise tests share
one model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.ckks.params import CKKSParams


# --------------------------------------------------------------------- #
# Formula layer: pure functions of scalar parameters.                    #
# --------------------------------------------------------------------- #

def fresh_encryption_std(sigma: float, n: int) -> float:
    """Public-key encryption: ``e0 + u*e_pk + e1*s ~ sigma*sqrt(2n/3+1)``."""
    return sigma * math.sqrt(1.0 + 2.0 * n / 3.0)


def encoding_std() -> float:
    """Rounding the scaled embedding: uniform on ``[-1/2, 1/2]``."""
    return math.sqrt(1.0 / 12.0)


def multiply_cross_std(
    a_std: float,
    b_std: float,
    a_scale: float,
    b_scale: float,
    a_value_bound: float = 1.0,
    b_value_bound: float = 1.0,
) -> float:
    """Cmult cross terms ``m_a*e_b + m_b*e_a`` (the ``e_a*e_b`` term is
    negligible against either cross term at practical scales)."""
    return math.hypot(
        b_std * a_scale * a_value_bound,
        a_std * b_scale * b_value_bound,
    )


def keyswitch_std(sigma: float, n: int, digits: int, alpha: int) -> float:
    """Additive hybrid-keyswitch noise after the P-division:
    ``~ sigma * sqrt(dnum * n * alpha / 12)`` scaled by ``Q_digit/P ~ 1``."""
    return sigma * math.sqrt(digits * n * alpha / 12.0)


def rescale_std(std: float, dropped_prime: float, key_norm: float) -> float:
    """Divide error by the dropped prime; add rounding (key-dependent):
    ``~ sqrt((1 + key_norm^2) / 12)`` per coefficient."""
    rounding = math.sqrt((1.0 + key_norm ** 2) / 12.0)
    return math.hypot(std / dropped_prime, rounding)


def key_norm_from_hamming(hamming_weight: int, n: int) -> float:
    """``sqrt(h)`` for a sparse ternary key (falls back to dense ``n``)."""
    return math.sqrt(hamming_weight or n)


@dataclass
class NoiseEstimate:
    """A coefficient-domain error standard deviation plus bookkeeping."""

    coeff_std: float
    scale: float
    n: int

    @property
    def slot_std(self) -> float:
        return self.coeff_std * math.sqrt(self.n)

    @property
    def value_std(self) -> float:
        """Expected error of decoded slot values."""
        return self.slot_std / self.scale

    def bits(self) -> float:
        return math.log2(max(self.coeff_std, 1e-300))


class CKKSNoiseEstimator:
    """Average-case noise model for the evaluator's operations."""

    def __init__(self, params: "CKKSParams"):
        self.params = params
        self.sigma = params.error_std
        self.key_norm = key_norm_from_hamming(
            params.hamming_weight, params.n)

    # ------------------------------ sources ---------------------------- #

    def fresh_encryption(self) -> NoiseEstimate:
        """Public-key encryption: e0 + u*e_pk + e1*s ≈ sigma*sqrt(2n/3+1)."""
        n = self.params.n
        return NoiseEstimate(
            fresh_encryption_std(self.sigma, n), self.params.scale, n)

    # ------------------------------ combinators ------------------------ #

    def add(self, a: NoiseEstimate, b: NoiseEstimate) -> NoiseEstimate:
        if abs(a.scale - b.scale) > 1e-6 * a.scale:
            raise ValueError("adding estimates at different scales")
        return NoiseEstimate(math.hypot(a.coeff_std, b.coeff_std),
                             a.scale, a.n)

    def mul_plain(
        self, a: NoiseEstimate, value_bound: float = 1.0,
        pt_scale: Optional[float] = None,
    ) -> NoiseEstimate:
        """Pmult: error scales by the plaintext magnitude (x pt_scale)."""
        pt_scale = self.params.scale if pt_scale is None else pt_scale
        std = a.coeff_std * pt_scale * value_bound
        return NoiseEstimate(std, a.scale * pt_scale, a.n)

    def multiply(
        self,
        a: NoiseEstimate,
        b: NoiseEstimate,
        a_value_bound: float = 1.0,
        b_value_bound: float = 1.0,
    ) -> NoiseEstimate:
        """Cmult: cross terms m_a*e_b + m_b*e_a dominate (e_a*e_b is tiny);
        the keyswitch noise is added separately via :meth:`keyswitch`."""
        cross = multiply_cross_std(
            a.coeff_std, b.coeff_std, a.scale, b.scale,
            a_value_bound, b_value_bound)
        return NoiseEstimate(cross, a.scale * b.scale, a.n)

    def keyswitch(self, level: int) -> NoiseEstimate:
        """Additive hybrid-keyswitch noise after the P-division:
        ~ sigma * sqrt(dnum * n * alpha / 12) scaled by Q_digit/P ~ 1."""
        params = self.params
        digits = params.digits_at_level(level)
        std = keyswitch_std(self.sigma, params.n, len(digits), params.alpha)
        return NoiseEstimate(std, params.scale, params.n)

    def rescale(self, a: NoiseEstimate, dropped_prime: int) -> NoiseEstimate:
        """Divide error by the dropped prime; add rounding (key-dependent):
        ~ sqrt((1 + key_norm^2) * n / 12)."""
        std = rescale_std(a.coeff_std, float(dropped_prime), self.key_norm)
        return NoiseEstimate(std, a.scale / dropped_prime, a.n)

    # ------------------------------ pipelines -------------------------- #

    def after_multiply_rescale(self, level: int) -> NoiseEstimate:
        """Fresh x fresh -> multiply -> relinearize -> rescale."""
        fresh = self.fresh_encryption()
        product = self.multiply(fresh, fresh)
        with_ks = self.add_unaligned(product, self.keyswitch(level))
        return self.rescale(with_ks, self.params.base_primes[level])

    def add_unaligned(
        self, a: NoiseEstimate, b: NoiseEstimate
    ) -> NoiseEstimate:
        """RSS-combine estimates ignoring scale labels (internal terms)."""
        return NoiseEstimate(
            math.hypot(a.coeff_std, b.coeff_std), a.scale, a.n)


def measure_noise_std(
    decryptor: Any, encoder: Any, ct: Any, true_values: Any
) -> float:
    """Measured slot-value error std of a ciphertext (exact decrypt)."""
    got = decryptor.decrypt(ct)
    true_values = np.asarray(true_values, dtype=np.complex128)
    return float(np.std(got[: true_values.size] - true_values))
