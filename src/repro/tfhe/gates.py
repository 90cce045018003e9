"""Homomorphic boolean gates via gate bootstrapping.

Bits are encoded as torus values ``±1/8`` (TFHE-lib convention: true = +1/8,
false = -1/8).  Every binary gate is one linear combination followed by one
gate bootstrapping, so gate latency ≈ PBS latency — which is exactly why the
paper treats TFHE PBS throughput as *the* logic-FHE benchmark.  All binary
gates bootstrap with the same sign test polynomial, so
:meth:`TFHEGates.bootstrap` refreshes the linear combinations of any mix
of gates in one blind-rotation pass.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.tfhe.bootstrap import BootstrapKit
from repro.tfhe.lwe import LweSample, lwe_decrypt_phase
from repro.tfhe.params import TFHEParams
from repro.tfhe.torus import TORUS_MODULUS

#: The gate encoding constant: 1/8 of the torus.
MU = TORUS_MODULUS // 8

#: Each binary gate's bootstrap input, a linear combination of its inputs.
_LINEAR = {
    "nand": lambda x, y: LweSample.trivial(MU, x.dim) - x - y,
    "and": lambda x, y: LweSample.trivial(TORUS_MODULUS - MU, x.dim) + x + y,
    "or": lambda x, y: LweSample.trivial(MU, x.dim) + x + y,
    "nor": lambda x, y: LweSample.trivial(TORUS_MODULUS - MU, x.dim) - x - y,
    "xor": lambda x, y: (x + y).scaled(2).add_constant(2 * MU),
    "xnor": lambda x, y: (x - y).scaled(2).add_constant(2 * MU),
}


class TFHEGates:
    """Boolean gate evaluator over gate-bootstrapped LWE ciphertexts."""

    def __init__(self, kit: BootstrapKit):
        self.kit = kit
        self.params: TFHEParams = kit.params

    # ------------------------------ encode/decode ---------------------- #

    def encrypt_bit(self, bit: bool) -> LweSample:
        return self.kit.encrypt(MU if bit else (TORUS_MODULUS - MU))

    def decrypt_bit(self, sample: LweSample) -> bool:
        key = (
            self.kit.lwe_key
            if sample.dim == self.kit.lwe_key.dim
            else self.kit.extracted_key
        )
        phase = lwe_decrypt_phase(sample, key)
        # true iff phase is in the upper half-plane around +1/8
        return phase < TORUS_MODULUS // 2

    # ------------------------------ gates ------------------------------ #

    def linear(self, gate: str, x: LweSample, y: LweSample) -> LweSample:
        """The bootstrap input of binary ``gate`` (``"and"``, ``"xor"``,
        ...) on ``x`` and ``y``."""
        if gate not in _LINEAR:
            raise ValueError(
                f"unknown gate {gate!r}; expected one of {sorted(_LINEAR)}")
        return _LINEAR[gate](x, y)

    def bootstrap(self, lins: Sequence[LweSample]) -> List[LweSample]:
        """Sign-bootstrap gate linear combinations in one blind-rotation
        pass: the bootstrapping key is read once for the whole list."""
        return self.kit.gate_bootstrap(LweSample.stack(lins), MU).unstack()

    def _gate(self, gate: str, x: LweSample, y: LweSample) -> LweSample:
        return self.bootstrap([self.linear(gate, x, y)])[0]

    def gate_nand(self, x: LweSample, y: LweSample) -> LweSample:
        return self._gate("nand", x, y)

    def gate_and(self, x: LweSample, y: LweSample) -> LweSample:
        return self._gate("and", x, y)

    def gate_or(self, x: LweSample, y: LweSample) -> LweSample:
        return self._gate("or", x, y)

    def gate_nor(self, x: LweSample, y: LweSample) -> LweSample:
        return self._gate("nor", x, y)

    def gate_xor(self, x: LweSample, y: LweSample) -> LweSample:
        return self._gate("xor", x, y)

    def gate_xnor(self, x: LweSample, y: LweSample) -> LweSample:
        return self._gate("xnor", x, y)

    def gate_not(self, x: LweSample) -> LweSample:
        """NOT is free: negate the sample (no bootstrap needed)."""
        return -x

    def gate_mux(
        self, sel: LweSample, x: LweSample, y: LweSample
    ) -> LweSample:
        """``sel ? x : y`` — one pass of two ANDs, then one OR."""
        picked_x, picked_y = self.bootstrap([
            self.linear("and", sel, x),
            self.linear("and", self.gate_not(sel), y),
        ])
        return self.gate_or(picked_x, picked_y)
