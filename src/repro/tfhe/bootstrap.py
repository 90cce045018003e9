"""TFHE programmable bootstrapping: blind rotate, extract, keyswitch.

This is the workload of the paper's Figure 6(b): a single programmable
bootstrapping (PBS) refreshes an LWE ciphertext while applying an arbitrary
lookup table.  The pipeline:

1. **Mod-switch** the LWE phase from Torus32 to ``Z_{2N}``.
2. **Blind rotate** an accumulator TRLWE holding the (negacyclic) test
   polynomial by the encrypted phase, via ``n`` CMux gates against the
   bootstrapping key (TRGSW encryptions of the LWE key bits).
3. **Sample extract** coefficient 0 into an LWE sample under the ring key.
4. **Keyswitch** back to the small LWE key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro import seedexp
from repro.seedexp import SeedExpander
from repro.tfhe.lwe import LweKey, LweSample, lwe_encrypt
from repro.tfhe.params import TFHEParams
from repro.tfhe.torus import TORUS_MODULUS
from repro.tfhe.trgsw import TrgswKey, TrgswSample, trgsw_encrypt
from repro.tfhe.trlwe import TrlweKey, TrlweSample


@dataclass
class BootstrappingKey:
    """TRGSW encryptions of each small-LWE key bit under the ring key."""

    params: TFHEParams
    trgsw_samples: List[TrgswSample]
    expand_seed: Optional[int] = None

    @classmethod
    def generate(
        cls,
        lwe_key: LweKey,
        ring_key: TrlweKey,
        rng: np.random.Generator,
        expand_seed: Optional[int] = None,
    ) -> "BootstrappingKey":
        params = lwe_key.params
        gsw_key = TrgswKey(ring_key)
        expander = (SeedExpander(expand_seed)
                    if expand_seed is not None else None)
        prefixes = None
        if expander is not None:
            prefixes = [seedexp.lwe_stream("bsk", i)
                        for i in range(lwe_key.dim)]
        samples = trgsw_encrypt(lwe_key.key, gsw_key, rng, expander=expander,
                                stream_prefix=prefixes)
        return cls(params, samples, expand_seed=expand_seed)


@dataclass
class KeyswitchKey:
    """LWE keyswitch from the extracted (ring) key to the small key.

    ``table[i][j][v]`` encrypts ``v * k_i * 2**(32 - (j+1)*base_bit)`` under
    the small key (v in ``[1, base)``; v = 0 is the trivial zero sample).
    """

    params: TFHEParams
    table: np.ndarray       # (N, t, base-1, n+1) uint32: a||b packed
    out_dim: int
    expand_seed: Optional[int] = None

    @classmethod
    def generate(
        cls,
        from_key_bits: np.ndarray,
        to_key: LweKey,
        rng: np.random.Generator,
        expand_seed: Optional[int] = None,
    ) -> "KeyswitchKey":
        """With ``expand_seed``, every entry's uniform mask comes from the
        stream :func:`~repro.seedexp.ksk_stream` — the seeded serialization
        format then stores only the ``b`` column plus the seed
        (:func:`repro.serialization.save_tfhe_keyswitch_key`).

        Each input coefficient's ``t * (base-1)`` entries are one batched
        :func:`~repro.tfhe.lwe.lwe_encrypt` call, in table order."""
        params = to_key.params
        t = params.ks_length
        base = params.ks_base
        big_n = int(from_key_bits.shape[0])
        n = to_key.dim
        expander = (SeedExpander(expand_seed)
                    if expand_seed is not None else None)
        steps = np.array([1 << (32 - (j + 1) * params.ks_base_bit)
                          for j in range(t)], dtype=np.int64)
        # v * step for every (j, v): below 2**32, since v < 2**base_bit
        unit = (steps[:, None] * np.arange(1, base)).reshape(-1)
        table = np.zeros((big_n, t, base - 1, n + 1), dtype=np.uint32)
        for i in range(big_n):
            streams = None
            if expander is not None:
                streams = [seedexp.ksk_stream(i, j, v)
                           for j in range(t) for v in range(1, base)]
            entries = lwe_encrypt(unit * int(from_key_bits[i]), to_key, rng,
                                  params.lwe_noise_std, expander=expander,
                                  stream=streams)
            table[i, ..., :n] = entries.a.reshape(t, base - 1, n)
            table[i, ..., n] = entries.b.reshape(t, base - 1)
        return cls(params, table, n, expand_seed=expand_seed)

    def keyswitch(self, sample: LweSample) -> LweSample:
        """Switch extracted-key LWE samples down to the small key.

        ``sample`` is one sample or a batch along leading axes.  Each
        ``a_i`` is rounded to ``t`` base-``2**base_bit`` digits, and digit
        ``v > 0`` at level ``j`` subtracts key row ``table[i, j, v-1]``.
        The batch is switched one digit level at a time: gather the
        level's ``(k, N, n+1)`` key rows, zero those of digit 0, and sum
        them in uint64 (``N * t`` rows below ``2**32`` cannot overflow).
        One level's gather bounds the memory a large batch needs.
        """
        params = self.params
        t = params.ks_length
        base_bit = params.ks_base_bit
        base = params.ks_base
        n = self.out_dim
        big_n = self.table.shape[0]
        if sample.dim != big_n:
            raise ValueError(
                f"sample dimension {sample.dim} does not match keyswitch "
                f"key ({big_n})"
            )
        batch = sample.a.shape[:-1]
        # round each a_i to t digits of base_bit bits (with rounding offset)
        offset = np.uint32(1 << (31 - t * base_bit)) if t * base_bit < 32 else np.uint32(0)
        a_round = (sample.a.reshape(-1, big_n) + offset).astype(np.uint64)
        coeffs = np.arange(big_n)
        total = np.zeros((a_round.shape[0], n + 1), dtype=np.uint64)
        for j in range(t):
            shift = np.uint64(32 - (j + 1) * base_bit)
            digits = ((a_round >> shift) & np.uint64(base - 1)).astype(np.intp)
            rows = self.table[coeffs, j, np.maximum(digits - 1, 0)]
            rows[digits == 0] = 0
            total += rows.sum(axis=1, dtype=np.uint64)
        # subtracting mod 2**64 and keeping the low 32 bits is mod 2**32
        a = (np.uint64(0) - total[:, :n]).astype(np.uint32)
        b = (np.asarray(sample.b, dtype=np.uint64).reshape(-1)
             - total[:, n]).astype(np.uint32)
        return LweSample(a.reshape(batch + (n,)), b.reshape(batch)[()])


def make_sign_test_polynomial(params: TFHEParams, mu: int) -> np.ndarray:
    """Constant test polynomial: PBS outputs ``+mu`` for phases in the upper
    half-torus and ``-mu`` otherwise (the gate-bootstrapping LUT)."""
    return np.full(params.ring_degree, np.uint32(mu % TORUS_MODULUS))


def make_lut_test_polynomial(
    params: TFHEParams, func: Callable[[float], float]
) -> np.ndarray:
    """Test polynomial for a programmable LUT over phases in ``[0, 1/2)``.

    ``func`` maps a phase in ``[0, 0.5)`` to an output torus value in
    ``[-0.5, 0.5)``.  Phases in ``[0.5, 1)`` produce the negated output of
    the mirrored phase (the unavoidable negacyclic constraint).
    """
    n = params.ring_degree
    tv = np.empty(n, dtype=np.uint32)
    for j in range(n):
        phase = j / (2 * n)
        val = func(phase)
        tv[j] = np.uint32(int(round(val * TORUS_MODULUS)) % TORUS_MODULUS)
    return tv


class BootstrapKit:
    """All key material plus the PBS pipeline, bundled for convenience."""

    def __init__(self, params: TFHEParams, rng: np.random.Generator,
                 expand_seed: Optional[int] = None):
        self.params = params
        self.rng = rng
        self.expand_seed = expand_seed
        self._expander = (SeedExpander(expand_seed)
                          if expand_seed is not None else None)
        self._mask_nonce = 0
        self.lwe_key = LweKey.generate(params, rng)
        self.ring_key = TrlweKey.generate(params, rng)
        self.bootstrap_key = BootstrappingKey.generate(
            self.lwe_key, self.ring_key, rng, expand_seed=expand_seed
        )
        extracted = self.ring_key.extracted_lwe_key()
        self.keyswitch_key = KeyswitchKey.generate(
            extracted.key, self.lwe_key, rng, expand_seed=expand_seed
        )
        self.extracted_key = extracted
        #: When set to a list, every evaluation-key touch is appended as
        #: its canonical name — ground truth for the static key analysis
        #: (tests/integration/test_keys_differential.py).  A blind-rotation
        #: pass appends one "bsk" however many samples it refreshes (the
        #: key is fetched once per batch, as ``pbs_batch_program``
        #: charges); every keyswitched output appends one "ksk".
        self.key_trace = None

    def _trace_key(self, name: str, count: int = 1) -> None:
        if self.key_trace is not None:
            self.key_trace.extend([name] * count)

    # ------------------------------------------------------------------ #

    def encrypt(self, mu: int) -> LweSample:
        if self._expander is not None:
            stream = seedexp.lwe_stream("ct", str(self._mask_nonce))
            self._mask_nonce += 1
            return lwe_encrypt(mu, self.lwe_key, self.rng,
                               expander=self._expander, stream=stream)
        return lwe_encrypt(mu, self.lwe_key, self.rng)

    def decrypt_phase(self, sample: LweSample) -> int:
        from repro.tfhe.lwe import lwe_decrypt_phase

        key = self.lwe_key if sample.dim == self.lwe_key.dim else self.extracted_key
        return lwe_decrypt_phase(sample, key)

    # ------------------------------------------------------------------ #

    def blind_rotate(
        self, sample: LweSample, test_poly: np.ndarray
    ) -> TrlweSample:
        """Rotate ``test_poly`` by the (encrypted) negated phase of ``sample``.

        ``sample`` is one LWE sample or a batch of ``k`` (``a`` of shape
        ``(k, n)``, see :meth:`LweSample.stack`); the accumulator has one
        row per sample.  One pass over the ``n`` bootstrapping-key entries
        refreshes the whole batch: step ``i`` is one batched CMux on
        ``bsk[i]`` between every row and that row rotated by its own
        ``a_bar[i]``.  A row whose rotation is 0 has a zero difference,
        whose external product is exactly zero, so no row needs a branch.
        """
        params = self.params
        if sample.dim != params.lwe_dim:
            raise ValueError(
                f"PBS input has LWE dimension {sample.dim}; the "
                f"bootstrapping key expects lwe_dim {params.lwe_dim}"
            )
        self._trace_key("bsk")
        n2 = 2 * params.ring_degree

        def mod_switch(x) -> np.ndarray:
            """Torus32 -> Z_{2N}, rounding to nearest."""
            scaled = (np.asarray(x).astype(np.uint64) * np.uint64(n2)
                      + np.uint64(TORUS_MODULUS // 2)) >> np.uint64(32)
            return scaled.astype(np.int64) % n2

        a_bar = mod_switch(sample.a)
        acc = TrlweSample.trivial(test_poly).monomial_mul(-mod_switch(sample.b))
        for i, bk_i in enumerate(self.bootstrap_key.trgsw_samples):
            acc = bk_i.cmux(acc, acc.monomial_mul(a_bar[..., i]))
        return acc

    def bootstrap_to_extracted(
        self, sample: LweSample, test_poly: np.ndarray
    ) -> LweSample:
        """PBS without the final keyswitch (result under the extracted key)."""
        return self.blind_rotate(sample, test_poly).extract_lwe(0)

    def programmable_bootstrap(
        self, sample: LweSample, test_poly: np.ndarray
    ) -> LweSample:
        """Full PBS: blind rotate + extract + keyswitch to the small key.

        ``sample`` may be a batch; the result is then a batch too."""
        return self.multi_value_bootstrap(sample, test_poly, (0,))[0]

    def multi_value_bootstrap(
        self, sample: LweSample, test_poly: np.ndarray, shifts
    ) -> List[LweSample]:
        """Several related LUTs from *one* blind rotation.

        Extracting coefficient ``j`` of the rotated accumulator evaluates
        the test polynomial shifted by ``j`` positions — e.g. a staircase
        of thresholds from a single (expensive) blind rotate, at one cheap
        keyswitch per output.  All shifts must be in ``[0, N)``.  Returns
        one output per shift, each shaped like ``sample`` (one sample or a
        batch); every extraction is keyswitched in one call.
        """
        acc = self.blind_rotate(sample, test_poly)
        extracted = LweSample.stack([acc.extract_lwe(int(s)) for s in shifts])
        self._trace_key("ksk", extracted.b.size)
        return self.keyswitch_key.keyswitch(extracted).unstack()

    def gate_bootstrap(self, sample: LweSample, mu: int) -> LweSample:
        """Sign bootstrap: returns an encryption of ``±mu`` by phase sign."""
        tv = make_sign_test_polynomial(self.params, mu)
        return self.programmable_bootstrap(sample, tv)
