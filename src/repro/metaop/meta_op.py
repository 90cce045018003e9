"""The Meta-OP ``(M_j A_j)_n R_j``: representation and executable semantics.

The executable model mirrors the spatiotemporal dataflow of Figure 5(d):

* cycles ``1..n`` — the mult array produces ``j`` products; the addition
  array optionally recombines them (the NTT case); the accumulation array
  adds them into the ``j`` lane accumulators;
* cycles ``n+1, n+2`` — the reduction, implemented by *reusing* the mult
  array with Barrett constants (no dedicated reduction unit exists).

``MetaOpExecutor.execute`` is arithmetic-exact and tallies raw multiplier /
adder invocations, which is what ties the hardware model back to the paper's
Table 2/3 complexity claims.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class AccessPattern(enum.Enum):
    """The three data access patterns of Table 4 (+ pure elementwise)."""

    SLOTS = "slots"              # NTT: adjacent slots within one channel
    CHANNEL = "channel"          # Modup/down: same slot across channels
    DNUM_GROUP = "dnum_group"    # DecompPolyMult: same slot across dnum groups
    ELEMENTWISE = "elementwise"  # plain modmul/modadd streams


@dataclass(frozen=True)
class MetaOp:
    """A single ``(M_j A_j)_n R_j`` issue.

    ``j`` is the static lane width (8 in Alchemist); ``n`` is the dynamic
    MAC depth chosen by the operation being lowered.
    """

    j: int
    n: int
    pattern: AccessPattern

    def __post_init__(self) -> None:
        if self.j < 1:
            raise ValueError("lane count j must be >= 1")
        if self.n < 1:
            raise ValueError("MAC depth n must be >= 1")

    @property
    def core_cycles(self) -> int:
        """Occupancy of one unified core: n MAC cycles + 2 reduction cycles."""
        return self.n + 2

    @property
    def raw_mults(self) -> int:
        """Multiplier invocations: j per MAC cycle + 2j for lazy reduction."""
        return self.j * self.n + 2 * self.j

    @property
    def raw_adds(self) -> int:
        """Adder invocations: j per MAC cycle + j during reduction."""
        return self.j * self.n + self.j

    def __repr__(self) -> str:
        return f"(M{self.j}A{self.j})_{self.n}R{self.j}[{self.pattern.value}]"


@dataclass
class MetaOpTally:
    """Accumulated hardware activity across executed Meta-OPs."""

    meta_ops: int = 0
    core_cycles: int = 0
    raw_mults: int = 0
    raw_adds: int = 0

    def record(self, op: MetaOp, count: int = 1) -> None:
        self.meta_ops += count
        self.core_cycles += count * op.core_cycles
        self.raw_mults += count * op.raw_mults
        self.raw_adds += count * op.raw_adds


class MetaOpExecutor:
    """Arithmetic-exact execution of Meta-OPs (the unified-core semantics),
    tallied in a :class:`MetaOpTally`."""

    def __init__(self, j: int = 8):
        self.j = j
        self.tally = MetaOpTally()

    def execute(
        self,
        op: MetaOp,
        a_inputs: np.ndarray,
        b_inputs: np.ndarray,
        q: int,
        combine: np.ndarray = None,
    ) -> np.ndarray:
        """Run one Meta-OP and return the ``j`` reduced lane results.

        ``a_inputs``/``b_inputs``: ``(n, j)`` integer operands (the per-cycle
        multiplier inputs).  ``combine``: optional ``(n, j, j)`` signed
        integer matrices applied by the addition array each cycle (used by
        the NTT radix-8 recombination; identity when omitted).  Lane ``k``'s
        result is ``Reduce_q( sum_c sum_p combine[c,k,p] * a[c,p]*b[c,p] )``.
        """
        if op.j != self.j:
            raise ValueError(f"executor is configured for j={self.j}")
        a = np.asarray(a_inputs, dtype=object)
        b = np.asarray(b_inputs, dtype=object)
        if a.shape != (op.n, op.j) or b.shape != (op.n, op.j):
            raise ValueError(
                f"operands must be ({op.n}, {op.j}); got {a.shape}, {b.shape}"
            )
        if combine is not None:
            combine = np.asarray(combine, dtype=np.int64)
            if combine.shape != (op.n, op.j, op.j):
                raise ValueError(
                    f"combine must be ({op.n}, {op.j}, {op.j})"
                )
        acc = [0] * op.j
        for c in range(op.n):
            products = [int(a[c, p]) * int(b[c, p]) for p in range(op.j)]  # M_j
            if combine is None:
                for k in range(op.j):                                      # A_j
                    acc[k] += products[k]
            else:
                for k in range(op.j):                                      # A_j
                    acc[k] += sum(
                        int(combine[c, k, p]) * products[p]
                        for p in range(op.j)
                    )
        self.tally.record(op)
        return np.array([v % q for v in acc], dtype=np.uint64)             # R_j

    def execute_mac_stream(
        self, pairs: np.ndarray, q: int, pattern: AccessPattern
    ) -> np.ndarray:
        """Convenience: lower a ``(n, j, 2)`` MAC stream and execute it."""
        pairs = np.asarray(pairs, dtype=object)
        n = pairs.shape[0]
        op = MetaOp(self.j, n, pattern)
        return self.execute(op, pairs[:, :, 0], pairs[:, :, 1], q)
