"""TFHE parameter sets.

The paper evaluates TFHE programmable bootstrapping with "two different sets
of parameters as the same as [18]" (Strix).  We provide two production-grade
sets with the classic TFHE-lib structure (set I matches TFHE-lib's updated
128-bit gate-bootstrapping parameters; set II is a larger-ring variant in
the Strix style) plus a deliberately small set for fast unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TFHEParams:
    """Static TFHE parameters.

    Attributes
    ----------
    lwe_dim:
        LWE dimension ``n`` (the small key the gates operate under).
    ring_degree:
        TRLWE ring degree ``N`` (power of two).
    mask_count:
        TRLWE mask count ``k`` (this implementation supports ``k = 1``).
    bg_bit:
        log2 of the gadget decomposition base ``Bg``.
    decomp_length:
        Gadget decomposition length ``l`` (paper symbol ``l_b``).
    ks_base_bit:
        LWE keyswitch decomposition base (log2).
    ks_length:
        LWE keyswitch decomposition length ``t``.
    lwe_noise_std:
        Fresh LWE noise standard deviation, as a fraction of the torus.
    ring_noise_std:
        TRLWE/TRGSW noise standard deviation, as a fraction of the torus.
    """

    lwe_dim: int
    ring_degree: int
    mask_count: int = 1
    bg_bit: int = 10
    decomp_length: int = 2
    ks_base_bit: int = 2
    ks_length: int = 8
    lwe_noise_std: float = 2.44e-5
    ring_noise_std: float = 7.18e-9

    def __post_init__(self) -> None:
        if self.ring_degree < 8 or self.ring_degree & (self.ring_degree - 1):
            raise ValueError("ring degree must be a power of two >= 8")
        if self.mask_count != 1:
            raise ValueError("only k = 1 TRLWE is supported")
        if self.bg_bit * self.decomp_length > 32:
            raise ValueError("gadget decomposition exceeds 32 torus bits")
        if self.ks_base_bit * self.ks_length > 32:
            raise ValueError("keyswitch decomposition exceeds 32 torus bits")
        if self.lwe_dim < 2:
            raise ValueError("LWE dimension too small")

    @property
    def bg(self) -> int:
        return 1 << self.bg_bit

    @property
    def ks_base(self) -> int:
        return 1 << self.ks_base_bit

    @property
    def digit_row_bound(self) -> int:
        """Bound on ``rows * max|digit|`` of one external product: ``2l``
        rows of gadget digits in ``[-Bg/2, Bg/2)``.  It picks the layout of
        the torus NTT (:mod:`repro.tfhe.polymul`)."""
        return 2 * self.decomp_length * (self.bg >> 1)

    @property
    def extracted_lwe_dim(self) -> int:
        """Dimension of LWE samples extracted from TRLWE: ``k * N``."""
        return self.mask_count * self.ring_degree

    # ------------------------- analytical noise ------------------------ #
    # Standard average-case TFHE variance formulas (torus fractions, so
    # variances are dimensionless).  These feed both the static
    # noise-budget verifier (repro.compiler.verify.noise) and the
    # differential tests, keeping one model for the whole stack.

    def pbs_output_variance(self, ring_variance: float = -1.0) -> float:
        """Torus error variance of a blind-rotate + sample-extract output.

        The external products accumulate ``n * l * (k+1) * N * (Bg/2)^2``
        copies of the bootstrapping-key variance, plus the gadget
        decomposition's rounding term ``n * (1 + k*N) / (2 * Bg^l)^2 / 12``
        (the part of the ciphertext below the decomposition precision).
        """
        if ring_variance < 0.0:
            ring_variance = self.ring_noise_std ** 2
        n = self.lwe_dim
        k = self.mask_count
        big_n = self.ring_degree
        half_bg_sq = float(1 << max(0, 2 * (self.bg_bit - 1)))
        external = (n * self.decomp_length * (k + 1) * big_n
                    * half_bg_sq * ring_variance)
        eps_sq = 1.0 / float(1 << (2 * self.bg_bit * self.decomp_length))
        rounding = n * (1.0 + k * big_n) * eps_sq / 4.0
        return external + rounding

    def modswitch_variance(self) -> float:
        """Torus variance of the blind rotation's modulus switch.

        Before the blind rotation, ``b`` and every mask entry ``a_i`` are
        rounded to a multiple of ``1/2N``, each with a uniform error of
        variance ``(1/2N)^2 / 12``.  The phase collects the ``b`` rounding
        and the ``a_i`` roundings of the set key bits: at most ``n + 1``
        roundings.  A phase closer to a decision boundary than a few of
        these standard deviations bootstraps to the wrong side by chance.
        """
        return (self.lwe_dim + 1) / (12.0 * (2 * self.ring_degree) ** 2)

    def keyswitch_variance(self, lwe_variance: float = -1.0) -> float:
        """Torus error variance added by the ``kN -> n`` LWE keyswitch:
        ``kN * t`` keyswitch-key samples plus the base-``2^basebit``
        rounding floor on each of the ``kN`` coefficients."""
        if lwe_variance < 0.0:
            lwe_variance = self.lwe_noise_std ** 2
        big_n = self.mask_count * self.ring_degree
        decomp = big_n * self.ks_length * lwe_variance
        eps_sq = 1.0 / float(
            1 << (2 * self.ks_base_bit * self.ks_length))
        rounding = big_n * eps_sq / 12.0
        return decomp + rounding

    def bootstrapped_variance(self) -> float:
        """Torus error variance of a full gate-bootstrap output (blind
        rotate, extract, keyswitch back to the ``n``-dim key)."""
        return self.pbs_output_variance() + self.keyswitch_variance()


#: TFHE-lib style 128-bit gate bootstrapping parameters (paper set I,
#: "N = 2^10" workload of Figure 1 / Figure 6(b)).
PARAM_SET_I = TFHEParams(
    lwe_dim=630,
    ring_degree=1024,
    bg_bit=7,
    decomp_length=3,
    ks_base_bit=2,
    ks_length=8,
    lwe_noise_std=3.05e-5,
    ring_noise_std=3.73e-9,
)

#: Larger-ring variant in the Strix style (paper set II, "N = 2^11").
PARAM_SET_II = TFHEParams(
    lwe_dim=744,
    ring_degree=2048,
    bg_bit=23,
    decomp_length=1,
    ks_base_bit=3,
    ks_length=5,
    lwe_noise_std=2.0e-5,
    ring_noise_std=3.0e-15,
)

#: Tiny parameters for unit tests: low security, generous noise margins,
#: but the identical code path as the production sets.
TEST_PARAMS = TFHEParams(
    lwe_dim=64,
    ring_degree=256,
    bg_bit=8,
    decomp_length=3,
    ks_base_bit=4,
    ks_length=6,
    lwe_noise_std=1.0e-6,
    ring_noise_std=1.0e-9,
)
