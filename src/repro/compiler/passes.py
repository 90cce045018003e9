"""The two program rewrites: spill insertion and elementwise fusion.

Both take a :class:`~repro.compiler.ops.Program` and never mutate it:
each returns the input itself when there is nothing to rewrite, and
otherwise a new program with the same name, a copy of the metadata and
the same declared inputs.

* :func:`insert_spills` — time-sharing (Section 5.4) keeps one polynomial
  or decomposition digit of each op resident at a time, so a program fits
  on-chip exactly when its largest per-op footprint
  (:func:`peak_footprint_bytes`) fits the capacity.  Each op whose
  footprint exceeds it gets an ``HBM_STORE`` (evict) immediately before it
  and an ``HBM_LOAD`` (restore) immediately after it, wired into the
  dataflow graph so the event-driven engine also sees the overflow where
  it occurs.  The fault layer (:mod:`repro.sim.faults`) re-runs it against
  the capacity left after a scratchpad loss.
* :func:`fuse_elementwise` — adjacent elementwise ops in a
  producer/consumer chain (the tensor multiply feeding its accumulation
  add, a rescale subtract feeding the scale multiply) execute as one
  fused sweep: the intermediate value is never written to and re-read
  from the scratchpads, saving two on-chip words per element.  The
  multiplier and addition arrays run concurrently inside a core, so the
  fused op's compute profile is the dominant (multiply) one.  Fusion
  changes op timing, so the calibration path (Table 7 / Figure 6 golden
  numbers) runs without it; ``repro simulate --fuse`` opts in.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

from repro.compiler.ops import HighLevelOp, OpKind, Program, ProgramGraph
from repro.compiler.verify.liveness import bind_uses


class CompileError(ValueError):
    """A rewrite broke the program it was given.

    ``diagnostics`` carries the typed
    :class:`~repro.compiler.verify.diagnostics.Diagnostic` records behind
    the failure.
    """

    def __init__(self, message: str, diagnostics: Tuple = ()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


def _rewritten(program: Program, ops: List[HighLevelOp]) -> Program:
    return Program(
        name=program.name,
        ops=ops,
        poly_degree=program.poly_degree,
        description=program.description,
        metadata=dict(program.metadata),
        inputs=program.inputs,
    )


# ------------------------------ spill insertion --------------------------- #

def peak_footprint_bytes(program: Program, word_bytes: float) -> int:
    """The largest per-op working footprint in ``program`` (streamed HBM
    ops hold none): :func:`insert_spills` spills iff it exceeds the
    capacity."""
    return max((op.footprint_bytes(word_bytes) for op in program.ops),
               default=0)


def insert_spills(program: Program, capacity_bytes: int,
                  word_bytes: float) -> Program:
    """``program`` with a spill/fill HBM pair around each op whose
    footprint exceeds ``capacity_bytes``."""
    out: List[HighLevelOp] = []
    for i, op in enumerate(program.ops):
        if op.kind in (OpKind.HBM_LOAD, OpKind.HBM_STORE):
            out.append(op)          # streamed, never resident
            continue
        overflow = op.footprint_bytes(word_bytes) - capacity_bytes
        if overflow <= 0:
            out.append(op)
            continue
        tag = op.label or f"op{i}"
        spill_id = f"{tag}.spill"
        fill_id = f"{tag}.fill"
        # evict enough resident data to make room, then run the op
        # (which therefore depends on the eviction), then restore
        out.append(HighLevelOp(
            OpKind.HBM_STORE, spill_id, bytes_moved=overflow,
            defs=(spill_id,), uses=op.uses))
        out.append(replace(op, uses=op.uses + (spill_id,)))
        anchor = op.defs[0] if op.defs else spill_id
        out.append(HighLevelOp(
            OpKind.HBM_LOAD, fill_id, bytes_moved=overflow,
            defs=(fill_id,), uses=(anchor,)))
    if len(out) == len(program.ops):
        return program
    return _rewritten(program, out)


# ------------------------------ elementwise fusion ------------------------ #

_ELEMENTWISE = (OpKind.EW_MULT, OpKind.EW_ADD)


def _fusable(a: HighLevelOp, b: HighLevelOp, fanout: Dict[str, int]) -> bool:
    """Can ``b`` fold into its producer ``a``?"""
    if a.kind not in _ELEMENTWISE or b.kind not in _ELEMENTWISE:
        return False
    if len(a.defs) != 1 or a.defs[0] not in b.uses:
        return False
    if fanout.get(a.defs[0], 0) != 1:
        return False            # the intermediate has other consumers
    if a.role and b.role and a.role != b.role:
        return False            # distinct scheme semantics must stay split
    return a.num_elements() == b.num_elements()


def _fuse(a: HighLevelOp, b: HighLevelOp) -> HighLevelOp:
    kind = OpKind.EW_MULT if OpKind.EW_MULT in (a.kind, b.kind) else OpKind.EW_ADD
    # the intermediate write + re-read disappears (2 words per element)
    words = (a.traffic_words_per_element + b.traffic_words_per_element) - 2.0
    uses = a.uses + tuple(v for v in b.uses if v != a.defs[0])
    return replace(
        a,
        kind=kind,
        label=f"{a.label or a.kind.value}+{b.label or b.kind.value}",
        traffic_words_per_element=words,
        defs=b.defs,
        uses=uses,
        role=a.role or b.role,
    )


def fuse_elementwise(program: Program) -> Program:
    """``program`` with every single-consumer elementwise chain fused into
    one sweep; each fused pair removes one op."""
    ops = program.linearize()
    while True:
        fanout: Dict[str, int] = {}
        for op in ops:
            for v in op.uses:
                fanout[v] = fanout.get(v, 0) + 1
        producer = {op.defs[0]: i for i, op in enumerate(ops)
                    if len(op.defs) == 1}
        out: List[HighLevelOp] = []
        for i, op in enumerate(ops):
            # find this op's unique elementwise producer, if any
            merged = op
            for v in op.uses:
                j = producer.get(v)
                if j is None or j >= i or not _fusable(ops[j], op, fanout):
                    continue
                # fold it in only when it is the immediately preceding
                # emission (a producer fused this round waits a round)
                if out and out[-1] is ops[j]:
                    merged = _fuse(out.pop(), op)
                break
            out.append(merged)
        if len(out) == len(ops):
            break
        ops = out
    if len(ops) == len(program.ops):
        return program
    fused = _rewritten(program, ops)
    _check_ssa(fused)
    return fused


def _check_ssa(fused: Program) -> None:
    """Fusion must not orphan any value: every use in the fused program
    still resolves to a def or a declared input, with no forward
    references introduced by the re-emission order."""
    broken, _ = bind_uses(ProgramGraph(fused))
    if broken:
        raise CompileError(
            f"fuse-elementwise broke def/use integrity of {fused.name!r}: "
            + "; ".join(d.message for d in broken[:5]),
            diagnostics=tuple(broken),
        )
