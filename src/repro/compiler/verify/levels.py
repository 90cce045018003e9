"""CKKS level/scale checker: abstract interpretation over dependency edges.

Every value id is given an abstract ciphertext state ``(chain, scale)``:

* ``chain`` — remaining modulus-chain length (level + 1), taken from the
  producing op's declared ``channels`` for polynomial-shaped ops;
* ``scale`` — the message scale in units of ``log Delta`` (a fresh
  ciphertext sits at 1; a ct x ct product at 2; each rescale subtracts 1).

Transfer functions key on the op's semantic ``role`` annotation (set by
the workload builders): ``tensor`` (ct x ct multiply, scales add),
``pmult`` (ct x pt multiply, +1), ``rescale`` (scale -1, consumes a
level), ``modraise`` (bootstrap chain reset).  Ops without a role
propagate state unchanged, so scheme-agnostic programs (TFHE, BFV) flow
through without CKKS checks firing.

Checks (codes ALC100-ALC105): level underflow at a rescale, scale or
chain mismatch between add operands, scale overflow past the remaining
modulus budget (a rescale was omitted), and multiplication at an
exhausted chain (a bootstrap was omitted).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.compiler.ops import HighLevelOp, OpKind, Program
from repro.compiler.verify.base import Analysis, AnalysisContext, forward
from repro.compiler.verify.diagnostics import Diagnostic

#: Op kinds whose ``channels`` field declares the RNS chain they carry.
_POLY_SHAPED = (
    OpKind.NTT, OpKind.INTT, OpKind.BCONV, OpKind.DECOMP_POLY_MULT,
    OpKind.EW_MULT, OpKind.EW_ADD, OpKind.AUTOMORPHISM, OpKind.TRANSPOSE,
)

#: Roles that perform a ciphertext multiplication (need level headroom).
_MULTIPLICATIVE_ROLES = ("tensor", "pmult")


@dataclass(frozen=True)
class AbstractCt:
    """Abstract CKKS ciphertext state attached to one value id.

    ``fresh`` marks states whose scale is the *seeded lower bound* of an
    external input rather than a derived fact; exactness-dependent checks
    (redundant rescale) are suppressed on fresh values.
    """

    chain: int                       # remaining modulus-chain length
    scale: int                       # scale in units of log Delta
    fresh: bool = False              # scale is a seeded lower bound


def _seed(op: HighLevelOp) -> AbstractCt:
    """An external input: a fresh ciphertext on its first reader's chain."""
    declared = op.channels if op.kind in _POLY_SHAPED else 0
    return AbstractCt(chain=max(1, declared), scale=1, fresh=True)


class LevelScaleAnalysis(Analysis):
    """Abstract interpretation of CKKS level/scale bookkeeping."""

    name = "level-scale"

    def run(self, program: Program,
            ctx: AnalysisContext) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for i, op, ins, res in forward(ctx.graph_of(program), _seed,
                                       self._transfer):
            out.extend(self._check_op(op, i, ins))
            # scale must fit the remaining modulus budget (~1 prime per
            # log-Delta unit); exceeding it means a rescale was omitted
            if res.scale > max(2, res.chain):
                out.append(Diagnostic(
                    "ALC102",
                    f"{op.label or f'op{i}'}: scale {res.scale} exceeds the "
                    f"remaining modulus budget (chain {res.chain}) — "
                    f"rescale omitted upstream?",
                    op_index=i, op_label=op.label, values=op.defs))
        return out

    # ------------------------------------------------------------------ #

    @staticmethod
    def _transfer(op: HighLevelOp, in_states: List[AbstractCt]) -> AbstractCt:
        """Abstract state of the values ``op`` defines."""
        # a polynomial-shaped op's channels ARE its chain (0 included — a
        # rescale block built at level 0 declares 0 remaining channels);
        # shapeless ops pass the incoming chain through
        if op.kind in _POLY_SHAPED:
            chain = max(0, op.channels)
        else:
            chain = max((s.chain for s in in_states), default=1)
        in_scale = max((s.scale for s in in_states), default=1)
        fresh = any(s.fresh for s in in_states) if in_states else True
        if op.role == "tensor":
            if len(in_states) >= 2:
                scale = sum(s.scale for s in in_states[:2])
            else:
                scale = 2 * in_scale           # squaring
        elif op.role == "pmult":
            scale = in_scale + 1
        elif op.role == "rescale":
            # rescaling pins the result to a known scale: the output is no
            # longer a seeded lower bound even if the input was
            scale = max(0, in_scale - 1)
            fresh = False
        else:
            scale = in_scale
        return AbstractCt(chain=chain, scale=scale, fresh=fresh)

    @staticmethod
    def _check_op(op: HighLevelOp, i: int,
                  in_states: List[AbstractCt]) -> List[Diagnostic]:
        tag = op.label or f"op{i}"
        in_chain = max((s.chain for s in in_states), default=None)
        out: List[Diagnostic] = []
        if op.role == "rescale":
            if in_chain is not None and in_chain < 1:
                out.append(Diagnostic(
                    "ALC100",
                    f"{tag}: rescale with no modulus level left "
                    f"(chain {in_chain})",
                    op_index=i, op_label=op.label, values=op.uses))
            elif (in_states and max(s.scale for s in in_states) <= 1
                  and not any(s.fresh for s in in_states)):
                out.append(Diagnostic(
                    "ALC105",
                    f"{tag}: rescale of a value already at base scale",
                    op_index=i, op_label=op.label, values=op.uses))
        if (op.role in _MULTIPLICATIVE_ROLES and in_chain is not None
                and in_chain <= 1):
            out.append(Diagnostic(
                "ALC103",
                f"{tag}: ciphertext multiply at an exhausted modulus chain "
                f"(chain {in_chain}) — bootstrap required first",
                op_index=i, op_label=op.label, values=op.uses))
        if op.kind == OpKind.EW_ADD and len(in_states) >= 2:
            scales = {s.scale for s in in_states}
            if len(scales) > 1:
                out.append(Diagnostic(
                    "ALC101",
                    f"{tag}: add operands at different scales "
                    f"{sorted(scales)}",
                    op_index=i, op_label=op.label, values=op.uses))
            chains = {s.chain for s in in_states}
            if len(chains) > 1:
                out.append(Diagnostic(
                    "ALC104",
                    f"{tag}: add operands on different modulus chains "
                    f"{sorted(chains)}",
                    op_index=i, op_label=op.label, values=op.uses))
        return out
