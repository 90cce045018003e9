"""Lowering of the three polynomial operators onto Meta-OP issue streams.

Each ``lower_*`` function returns a list of :class:`MetaOpIssue` — a Meta-OP
shape plus how many instances of it the operator needs.  The cost model
(:func:`repro.compiler.cost.model.cost_op`, through
:meth:`~repro.compiler.ops.HighLevelOp.meta_op_issues`) charges core
occupancy from these; the arithmetic tests execute a few of them through
:class:`~repro.metaop.meta_op.MetaOpExecutor` to verify the lowering is
value-correct, not just count-correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.metaop.meta_op import AccessPattern, MetaOp
from repro.poly.radix import radix8_stage_count


@dataclass(frozen=True)
class MetaOpIssue:
    """``count`` identical Meta-OP instances."""

    op: MetaOp
    count: int

    @property
    def core_cycles(self) -> int:
        return self.count * self.op.core_cycles

    @property
    def raw_mults(self) -> int:
        return self.count * self.op.raw_mults


def lower_ntt(n: int, channels: int = 1, j: int = 8) -> List[MetaOpIssue]:
    """An ``n``-point NTT per channel as radix-8 Meta-OPs plus radix-2 tail.

    Radix-8 butterflies are ``(M_j A_j)_3 R_j``; the ``log2(n) mod 3``
    radix-2 tail stages run as eagerly-reduced butterfly streams
    (``(M_j A_j)_1 R_j`` over one product per butterfly — same mult count
    as the classical butterfly, Section 4.2).
    """
    stages8, stages2 = radix8_stage_count(n)
    issues = []
    if stages8:
        issues.append(
            MetaOpIssue(
                MetaOp(j, 3, AccessPattern.SLOTS),
                stages8 * (n // 8) * channels,
            )
        )
    if stages2:
        issues.append(
            MetaOpIssue(
                MetaOp(j, 1, AccessPattern.SLOTS),
                stages2 * _ceil_div(n, 2 * j) * channels,
            )
        )
    return issues


def lower_bconv(
    big_l: int, k: int, n: int, j: int = 8
) -> List[MetaOpIssue]:
    """Bconv from ``L`` source channels into ``K`` target channels.

    Step 1 (per-channel scaling by ``qhat^{-1}``) is ``L*N`` elementwise
    modmuls = ``(M_j A_j)_1 R_j`` over ``L*N/j`` cores; step 2 is the
    aggregation ``(M_j A_j)_L R_j`` over ``K*N/j`` cores (channel pattern).
    """
    issues = [
        MetaOpIssue(
            MetaOp(j, 1, AccessPattern.ELEMENTWISE),
            _ceil_div(big_l * n, j),
        ),
        MetaOpIssue(
            MetaOp(j, big_l, AccessPattern.CHANNEL),
            k * _ceil_div(n, j),
        ),
    ]
    return issues


def lower_decomp_polymult(
    dnum: int, n: int, channels: int, j: int = 8, output_polys: int = 2
) -> List[MetaOpIssue]:
    """DecompPolyMult: accumulate dnum digit*evk products per output poly.

    One ``(M_j A_j)_dnum R_j`` covers ``j`` coefficients of one channel of
    one output polynomial (dnum-group access pattern).
    """
    return [
        MetaOpIssue(
            MetaOp(j, dnum, AccessPattern.DNUM_GROUP),
            output_polys * channels * _ceil_div(n, j),
        )
    ]


def lower_elementwise(
    num_elements: int, depth: int = 1, j: int = 8
) -> List[MetaOpIssue]:
    """Plain elementwise modmul/MAC streams (Pmult, Hadd's scalar work)."""
    return [
        MetaOpIssue(
            MetaOp(j, depth, AccessPattern.ELEMENTWISE),
            _ceil_div(num_elements, j),
        )
    ]


def total_core_cycles(issues: List[MetaOpIssue]) -> int:
    return sum(issue.core_cycles for issue in issues)


def total_raw_mults(issues: List[MetaOpIssue]) -> int:
    return sum(issue.raw_mults for issue in issues)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)
