"""Encrypted integers over TFHE gates (the logic-FHE application layer).

Wraps bit-vector LWE ciphertexts into an :class:`EncryptedInt` with
ripple-carry arithmetic, comparisons and selection — every bit operation is
a real gate bootstrapping, so an 8-bit add costs ~40 PBS: exactly the
workload profile that makes PBS throughput (Figure 6(b)) *the* logic-FHE
metric.  Gates that do not depend on each other form one circuit level,
and each level is one blind-rotation pass (:meth:`TFHEGates.bootstrap`),
so the bootstrapping key is read once per level rather than once per gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.tfhe.gates import TFHEGates
from repro.tfhe.lwe import LweSample


@dataclass
class EncryptedInt:
    """An unsigned integer as little-endian encrypted bits."""

    bits: List[LweSample]

    @property
    def width(self) -> int:
        return len(self.bits)


class EncryptedIntEvaluator:
    """Gate-level arithmetic over :class:`EncryptedInt` values."""

    def __init__(self, gates: TFHEGates):
        self.gates = gates

    # ------------------------------ io --------------------------------- #

    def encrypt(self, value: int, width: int) -> EncryptedInt:
        if not 0 <= value < (1 << width):
            raise ValueError(f"{value} does not fit {width} bits")
        return EncryptedInt([
            self.gates.encrypt_bit(bool((value >> k) & 1))
            for k in range(width)
        ])

    def decrypt(self, x: EncryptedInt) -> int:
        return sum(
            int(self.gates.decrypt_bit(b)) << k for k, b in enumerate(x.bits)
        )

    def _check_widths(self, a: EncryptedInt, b: EncryptedInt) -> None:
        if a.width != b.width:
            raise ValueError(f"width mismatch: {a.width} vs {b.width}")
        if a.width == 0:
            raise ValueError("encrypted integers need at least one bit")

    def _level(
        self, gates: Sequence[Tuple[str, LweSample, LweSample]]
    ) -> List[LweSample]:
        """One circuit level of independent ``(gate, x, y)`` in one pass."""
        g = self.gates
        return g.bootstrap([g.linear(gate, x, y) for gate, x, y in gates])

    def _ripple(
        self, xs: List[LweSample], ys: List[LweSample], first: Tuple[str, str]
    ) -> EncryptedInt:
        """Ripple-carry ``xs + ys``.  Bit 0's sum and carry come from the
        ``first`` gate pair; one pass computes them with every other
        bit's ``x XOR y`` and ``x AND y``.  Each later carry stage takes
        two passes: ``s XOR c`` with ``s AND c``, then the carry's OR."""
        rest = list(zip(xs[1:], ys[1:]))
        level = self._level(
            [(first[0], xs[0], ys[0]), (first[1], xs[0], ys[0])]
            + [("xor", x, y) for x, y in rest]
            + [("and", x, y) for x, y in rest])
        out, carry = [level[0]], level[1]
        for axy, xy in zip(level[2:2 + len(rest)], level[2 + len(rest):]):
            total, through = self._level(
                [("xor", axy, carry), ("and", axy, carry)])
            out.append(total)
            (carry,) = self._level([("or", xy, through)])
        out.append(carry)
        return EncryptedInt(out)

    # ------------------------------ arithmetic ------------------------- #

    def add(self, a: EncryptedInt, b: EncryptedInt) -> EncryptedInt:
        """Ripple-carry addition (result keeps the carry-out bit)."""
        self._check_widths(a, b)
        return self._ripple(a.bits, b.bits, ("xor", "and"))

    def sub(self, a: EncryptedInt, b: EncryptedInt) -> EncryptedInt:
        """``a - b`` via two's complement; the top bit is the *no-borrow*
        flag (1 iff ``a >= b``); the low ``width`` bits are the difference
        mod ``2^width``."""
        self._check_widths(a, b)
        # a + ~b + 1: the carry-in of 1 turns bit 0 into XNOR / OR
        not_b = [self.gates.gate_not(y) for y in b.bits]
        return self._ripple(a.bits, not_b, ("xnor", "or"))

    # ------------------------------ comparison ------------------------- #

    def greater_equal(self, a: EncryptedInt, b: EncryptedInt) -> LweSample:
        """Encrypted bit of ``a >= b`` (the no-borrow flag of ``a - b``)."""
        return self.sub(a, b).bits[-1]

    def equal(self, a: EncryptedInt, b: EncryptedInt) -> LweSample:
        """One XNOR pass, then a pairwise AND tree: every AND joins two
        fresh bootstrap outputs, in ``1 + ceil(log2(width))`` passes."""
        self._check_widths(a, b)
        level = self._level([("xnor", x, y) for x, y in zip(a.bits, b.bits)])
        while len(level) > 1:
            pairs = len(level) // 2
            joined = self._level([("and", level[2 * i], level[2 * i + 1])
                                  for i in range(pairs)])
            level = joined + level[2 * pairs:]
        return level[0]

    # ------------------------------ selection -------------------------- #

    def select(
        self, cond: LweSample, a: EncryptedInt, b: EncryptedInt
    ) -> EncryptedInt:
        """``cond ? a : b``, bit-wise MUX in two passes: every
        ``cond AND x`` and ``NOT cond AND y``, then every OR."""
        self._check_widths(a, b)
        not_cond = self.gates.gate_not(cond)
        picked = self._level([("and", cond, x) for x in a.bits]
                             + [("and", not_cond, y) for y in b.bits])
        return EncryptedInt(self._level(
            [("or", px, py) for px, py in zip(picked[:a.width],
                                              picked[a.width:])]))

    def maximum(self, a: EncryptedInt, b: EncryptedInt) -> EncryptedInt:
        """Encrypted max — comparison + selection, all under encryption."""
        return self.select(self.greater_equal(a, b), a, b)
