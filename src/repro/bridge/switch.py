"""The CKKS → TFHE ciphertext switching chain.

Pipeline (all ciphertext-level; the secret keys only meet inside the
switching key, exactly as in Pegasus [6]):

1. **Slot-to-coefficient**: a homomorphic linear transform with matrix
   ``gain * E[:, :slots]`` moves slot ``j``'s value into polynomial
   coefficient ``j`` (scaled by ``gain * Delta``); see
   :mod:`repro.ckks.bootstrap` for the orthogonality identity.
2. **LWE extraction**: coefficient ``j`` of a level-0 CKKS ciphertext is
   an LWE sample under the CKKS secret, modulo ``q0``.
3. **Modulus switch**: rescale ``q0 → 2**32`` onto the discretized torus.
   The slot value ``v ∈ [-1, 1]`` lands at torus position
   ``gain * Delta * v / q0`` — the ``gain`` is chosen so that ``v = ±1``
   maps to ``±1/8``, the TFHE gate-encoding point.
4. **LWE keyswitch**: from the (ternary, ring-degree-dimensional) CKKS key
   to the small binary TFHE key, using the standard decomposition table
   (which handles ternary source keys unchanged).
5. **PBS**: any lookup table — the tests use the sign bootstrap.
"""

from __future__ import annotations

import numpy as np

from repro.ckks.encryptor import Ciphertext
from repro.ckks.evaluator import CKKSEvaluator
from repro.ckks.keys import SecretKey
from repro.ckks.linear import SlotLinearTransform
from repro.ckks.params import CKKSParams
from repro.rns.rlwe import require_single
from repro.tfhe.bootstrap import BootstrapKit, KeyswitchKey
from repro.tfhe.lwe import LweSample
from repro.tfhe.torus import TORUS_MODULUS


class CKKSToTFHEBridge:
    """Switches CKKS slot values into TFHE LWE ciphertexts."""

    def __init__(
        self,
        ckks_params: CKKSParams,
        ckks_secret: SecretKey,
        kit: BootstrapKit,
        rng: np.random.Generator,
        gain: float = None,
    ):
        self.ckks_params = ckks_params
        self.kit = kit
        self.q0 = ckks_params.base_primes[0]
        # gain * Delta / q0 = 1/8  =>  v = ±1 maps to the ±MU gate points
        if gain is None:
            gain = self.q0 / (8.0 * ckks_params.scale)
        self.gain = float(gain)
        n = ckks_params.n
        slots = ckks_params.slots
        rot = np.array([pow(5, k, 2 * n) for k in range(slots)])
        j = np.arange(slots)
        e_head = np.exp(1j * np.pi * rot[:, None] * j[None, :] / n)
        self.stc_matrix = self.gain * e_head
        self._stc = SlotLinearTransform(self.stc_matrix)
        # switching key: CKKS ternary key (centered) -> TFHE binary key
        q0 = self.q0
        half = q0 // 2
        key_mod_q0 = ckks_secret.s.data[0].astype(np.int64)
        ternary = np.where(key_mod_q0 > half, key_mod_q0 - q0, key_mod_q0)
        if np.abs(ternary).max() > 1:
            raise ValueError("expected a ternary CKKS secret key")
        self.keyswitch_key = KeyswitchKey.generate(
            ternary, kit.lwe_key, rng)

    # ------------------------------------------------------------------ #

    def slots_to_coefficients(
        self, evaluator: CKKSEvaluator, ct: Ciphertext
    ) -> Ciphertext:
        """Move slot values into coefficients: coeff j = gain*Delta*s_j."""
        out = self._stc.apply(evaluator, ct)
        return evaluator.mod_switch_to(out, 0)

    def extract_lwe_mod_q0(self, ct: Ciphertext, index: int) -> LweSample:
        """Coefficient ``index`` of a level-0 ciphertext as an LWE sample
        (entries still modulo ``q0``, packed into int64)."""
        require_single(ct)
        if ct.level != 0:
            raise ValueError("extraction requires a level-0 ciphertext")
        n = self.ckks_params.n
        if not 0 <= index < n:
            raise ValueError(f"coefficient index {index} out of range")
        c0 = ct.parts[0].to_coeff().data[0].astype(np.int64)
        c1 = ct.parts[1].to_coeff().data[0].astype(np.int64)
        q0 = self.q0
        # phase_j = c0[j] + (c1*s)[j] = b - <a, s> with a = -coeffs(c1)
        a = np.empty(n, dtype=np.int64)
        a[: index + 1] = -c1[index::-1] % q0
        if index + 1 < n:
            a[index + 1 :] = c1[n - 1 : index : -1] % q0
        return LweSample(a.astype(np.int64), np.int64(c0[index]))

    def mod_switch_to_torus(self, sample: LweSample) -> LweSample:
        """Rescale an LWE sample from modulus ``q0`` to Torus32."""
        q0 = self.q0
        a = np.asarray(sample.a, dtype=object)
        a32 = np.array(
            [int((int(x) * TORUS_MODULUS + q0 // 2) // q0) % TORUS_MODULUS
             for x in a],
            dtype=np.int64,
        ).astype(np.uint32)
        b32 = np.uint32(
            (int(sample.b) * TORUS_MODULUS + q0 // 2) // q0 % TORUS_MODULUS)
        return LweSample(a32, b32)

    # ------------------------------------------------------------------ #

    def switch_slot(
        self, evaluator: CKKSEvaluator, ct: Ciphertext, slot: int,
        stc_ct: Ciphertext = None,
    ) -> LweSample:
        """Full chain: one CKKS slot → a TFHE-key LWE ciphertext.

        Pass ``stc_ct`` (the output of :meth:`slots_to_coefficients`) when
        switching several slots of the same ciphertext — the transform is
        shared, only extraction/keyswitch repeat.
        """
        if stc_ct is None:
            stc_ct = self.slots_to_coefficients(evaluator, ct)
        extracted = self.extract_lwe_mod_q0(stc_ct, slot)
        torus_sample = self.mod_switch_to_torus(extracted)
        return self.keyswitch_key.keyswitch(torus_sample)

    def encrypted_sign(
        self, evaluator: CKKSEvaluator, ct: Ciphertext, slot: int,
        stc_ct: Ciphertext = None,
    ) -> LweSample:
        """Sign of one CKKS slot as a TFHE gate-encoded bit (±1/8)."""
        lwe = self.switch_slot(evaluator, ct, slot, stc_ct)
        return self.kit.gate_bootstrap(lwe, TORUS_MODULUS // 8)
