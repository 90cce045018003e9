"""High-level operator IR with compute and traffic profiles.

Every FHE workload lowers to a dataflow graph of these operators; each
operator knows (a) its Meta-OP issue stream (compute), (b) its on-chip
traffic, and (c) its off-chip (HBM) traffic.  The simulator turns those
into cycles.

Operators carry explicit ``defs``/``uses`` value ids (SSA-style producer
edges).  :meth:`Program.dependency_edges` resolves them into a DAG, and
:class:`ProgramGraph` builds everything else from those edges once per
use — successors, the deterministic topological order, use bindings and
the live-value set — for the rewrites (:mod:`repro.compiler.passes`),
the verifier, the cost analyzer and the scheduling kernel
(:mod:`repro.sim.schedule`).  Ops without def/use annotations remain valid
(they simply have no graph edges), so legacy ``Program`` construction
keeps working unchanged.
"""

from __future__ import annotations

import enum
import heapq
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from repro.metaop.lowering import (
    MetaOpIssue,
    lower_bconv,
    lower_decomp_polymult,
    lower_elementwise,
    lower_ntt,
)


class OpKind(enum.Enum):
    NTT = "ntt"
    INTT = "intt"
    BCONV = "bconv"                     # Modup / Moddown conversions
    DECOMP_POLY_MULT = "decomp_poly_mult"
    EW_MULT = "ew_mult"                 # elementwise modular multiply
    EW_ADD = "ew_add"                   # elementwise modular add/sub
    AUTOMORPHISM = "automorphism"       # Galois permutation (data movement)
    TRANSPOSE = "transpose"             # 4-step NTT global transpose
    HBM_LOAD = "hbm_load"
    HBM_STORE = "hbm_store"


#: Operator classes counted as NTT / Bconv / DecompPolyMult in Figure 1/7.
OPERATOR_CLASS = {
    OpKind.NTT: "ntt",
    OpKind.INTT: "ntt",
    OpKind.BCONV: "bconv",
    OpKind.DECOMP_POLY_MULT: "decomp",
    OpKind.EW_MULT: "ewise",
    OpKind.EW_ADD: "ewise",
    OpKind.AUTOMORPHISM: "data",
    OpKind.TRANSPOSE: "data",
    OpKind.HBM_LOAD: "hbm",
    OpKind.HBM_STORE: "hbm",
}


@dataclass
class HighLevelOp:
    """One high-level operator instance.

    Shape parameters (used per kind):

    * ``poly_degree`` — ring degree N.
    * ``channels`` — RNS channels processed (output channels for BCONV).
    * ``in_channels`` — BCONV source channels (the Meta-OP depth L).
    * ``depth`` — DECOMP_POLY_MULT accumulation depth (dnum).
    * ``polys`` — polynomials processed (e.g. 2 for a ciphertext).
    * ``elements`` — explicit element count for EW ops (overrides shape).
    * ``bytes_moved`` — explicit byte count for HBM ops.
    * ``traffic_words_per_element`` — on-chip words moved per EW element
      (default 3: two reads + one write; Pmult uses 2.5 because the shared
      plaintext operand feeds both ciphertext polynomials once).

    Dataflow annotations:

    * ``defs`` — value ids this op produces.
    * ``uses`` — value ids this op consumes.  A use with no producer in the
      program is an external input (ciphertext/plaintext arguments).
    * ``role`` — optional scheme-semantic tag consumed by the static
      verifier (:mod:`repro.compiler.verify`): ``"tensor"`` (ct x ct
      multiply), ``"pmult"`` (ct x pt multiply), ``"rescale"``,
      ``"modraise"``.  Empty for scheme-agnostic ops; has no effect on
      compute or traffic modelling.
    * ``key`` — optional evaluation-key slot this op consumes (on a
      keyswitch inner product / PBS) or streams in (on the matching
      ``HBM_LOAD``): ``"relin"``, ``"rot:<step>"``, ``"conj"``,
      ``"boot"`` (CKKS bootstrap keyswitch), ``"bsk"``/``"ksk"`` (TFHE).
      Consumed by :mod:`repro.compiler.verify.keys`; has no effect on
      compute or traffic modelling.
    """

    kind: OpKind
    label: str = ""
    poly_degree: int = 0
    channels: int = 1
    in_channels: int = 0
    depth: int = 0
    polys: int = 1
    elements: Optional[int] = None
    bytes_moved: int = 0
    traffic_words_per_element: float = 3.0
    defs: Tuple[str, ...] = ()
    uses: Tuple[str, ...] = ()
    role: str = ""
    key: str = ""

    # ------------------------------ compute ---------------------------- #

    def meta_op_issues(self, j: int = 8) -> List[MetaOpIssue]:
        """The Meta-OP stream this operator issues (empty for movement)."""
        if self.kind in (OpKind.NTT, OpKind.INTT):
            return lower_ntt(self.poly_degree, self.channels * self.polys, j)
        if self.kind == OpKind.BCONV:
            issues = []
            for _ in range(self.polys):
                issues.extend(
                    lower_bconv(self.in_channels, self.channels,
                                self.poly_degree, j)
                )
            return issues
        if self.kind == OpKind.DECOMP_POLY_MULT:
            return lower_decomp_polymult(
                self.depth, self.poly_degree, self.channels, j,
                output_polys=self.polys,
            )
        if self.kind == OpKind.EW_MULT:
            return lower_elementwise(self.num_elements(), depth=1, j=j)
        # EW_ADD occupies cores but uses only the addition array; movement
        # and HBM ops issue no Meta-OPs.
        return []

    def num_elements(self) -> int:
        if self.elements is not None:
            return self.elements
        return self.poly_degree * self.channels * self.polys

    # ------------------------------ traffic ---------------------------- #

    def sram_bytes(self, word_bytes: float) -> int:
        """On-chip bytes moved (operand reads + result writes)."""
        n = self.poly_degree
        wb = word_bytes
        if self.kind in (OpKind.NTT, OpKind.INTT):
            from repro.poly.radix import radix8_stage_count

            stages = sum(radix8_stage_count(n))
            return int(2 * n * self.channels * self.polys * stages * wb)
        if self.kind == OpKind.BCONV:
            # step 1: read+write L channels; step 2: read L, write K
            l_in, k = self.in_channels, self.channels
            return int((3 * l_in + k) * n * self.polys * wb)
        if self.kind == OpKind.DECOMP_POLY_MULT:
            # per output poly+channel: read depth digit words and depth evk
            # words per coefficient, write one
            return int(
                (2 * self.depth + 1) * n * self.channels * self.polys * wb
            )
        if self.kind == OpKind.EW_MULT or self.kind == OpKind.EW_ADD:
            return int(self.traffic_words_per_element * self.num_elements() * wb)
        if self.kind in (OpKind.AUTOMORPHISM, OpKind.TRANSPOSE):
            return int(2 * n * self.channels * self.polys * wb)
        return 0

    def hbm_bytes(self) -> int:
        if self.kind in (OpKind.HBM_LOAD, OpKind.HBM_STORE):
            return self.bytes_moved
        return 0

    def footprint_bytes(self, word_bytes: float) -> int:
        """Peak resident bytes under per-polynomial time-sharing.

        Unlike :meth:`sram_bytes` (total traffic), this is the simultaneous
        on-chip *footprint* the scheduler must find room for, assuming the
        time-sharing granularity of Section 5.4: one polynomial (or one
        decomposition digit) in flight at a time, with streamed operands
        (evaluation keys) excluded.
        """
        n = self.poly_degree
        wb = word_bytes
        if self.kind in (OpKind.NTT, OpKind.INTT):
            return int(2 * n * self.channels * wb)          # in + out, 1 poly
        if self.kind == OpKind.BCONV:
            return int((self.in_channels + self.channels) * n * wb)
        if self.kind == OpKind.DECOMP_POLY_MULT:
            # one raised digit in flight + the two output accumulators
            return int(3 * n * self.channels * wb)
        if self.kind == OpKind.EW_MULT or self.kind == OpKind.EW_ADD:
            return int(3 * (self.num_elements() // max(1, self.polys)) * wb)
        if self.kind in (OpKind.AUTOMORPHISM, OpKind.TRANSPOSE):
            return int(2 * n * self.channels * wb)
        return 0

    @property
    def operator_class(self) -> str:
        return OPERATOR_CLASS[self.kind]

    def trace_args(self) -> Dict[str, int]:
        """JSON-safe shape parameters for telemetry (only non-defaults)."""
        out: Dict[str, int] = {}
        if self.poly_degree:
            out["poly_degree"] = self.poly_degree
        if self.channels != 1:
            out["channels"] = self.channels
        if self.in_channels:
            out["in_channels"] = self.in_channels
        if self.depth:
            out["depth"] = self.depth
        if self.polys != 1:
            out["polys"] = self.polys
        if self.elements is not None:
            out["elements"] = self.elements
        if self.bytes_moved:
            out["bytes_moved"] = self.bytes_moved
        return out

    def __repr__(self) -> str:
        tag = self.label or self.kind.value
        return f"<{tag}: N={self.poly_degree} ch={self.channels} x{self.polys}>"


@dataclass
class Program:
    """A dataflow graph of operators for one workload (plus metadata).

    ``ops`` holds the insertion order, which for every builder in this
    package is already a valid schedule (producers precede consumers).
    The graph view lives in :meth:`dependency_edges` and
    :class:`ProgramGraph`; ``metadata`` carries the builders' annotations
    for the verifier (``"noise"`` for the noise budget, ``"keys"`` for
    the key set), which the rewrites copy unchanged.  ``inputs``
    optionally declares the external value ids the program legitimately
    consumes; when set, the linter treats any other undefined use as an
    error (``ALC301``) instead of silently assuming it is an argument.
    """

    name: str
    ops: List[HighLevelOp] = field(default_factory=list)
    poly_degree: int = 0
    description: str = ""
    metadata: Dict[str, object] = field(default_factory=dict)
    inputs: Tuple[str, ...] = ()

    def add(self, op: HighLevelOp) -> "Program":
        self.ops.append(op)
        return self

    def extend(self, ops: Iterable[HighLevelOp]) -> "Program":
        self.ops.extend(ops)
        return self

    def __len__(self) -> int:
        return len(self.ops)

    def total_hbm_bytes(self) -> int:
        return sum(op.hbm_bytes() for op in self.ops)

    def ops_of_kind(self, kind: OpKind) -> List[HighLevelOp]:
        return [op for op in self.ops if op.kind == kind]

    # ------------------------------ graph view -------------------------- #

    def dependency_edges(self) -> Dict[int, Tuple[int, ...]]:
        """Producer edges: op index -> sorted indices it depends on.

        Resolution rules (RAW + WAW):

        * a use of ``v`` binds to the closest *earlier* def of ``v``; if
          none exists but ``v`` is defined later, it binds to the first
          later def (so a scrambled DAG still resolves — a cycle is then
          possible and :meth:`linearize` reports it);
        * a redefinition of ``v`` depends on the previous def of ``v``
          (write-after-write keeps reused accumulator ids ordered);
        * a use with no def anywhere is an external program input.

        :func:`bind_use` is the use rule; :class:`ProgramGraph` shares it.
        """
        def_sites = _def_sites(self.ops)
        preds: Dict[int, Set[int]] = {}
        for i, _, site in _bound_uses(self.ops, def_sites):
            preds.setdefault(i, set()).add(site)
        for sites in def_sites.values():
            for prev, nxt in zip(sites, sites[1:]):
                preds.setdefault(nxt, set()).add(prev)      # WAW chain
        return {i: tuple(sorted(p - {i}))
                for i, p in sorted(preds.items()) if p - {i}}

    def external_inputs(self) -> Tuple[str, ...]:
        """Value ids consumed but never produced (program arguments)."""
        defined = {v for op in self.ops for v in op.defs}
        seen: List[str] = []
        for op in self.ops:
            for v in op.uses:
                if v not in defined and v not in seen:
                    seen.append(v)
        return tuple(seen)

    def linearize(self) -> List[HighLevelOp]:
        """Deterministic topological order of the dataflow graph: the ops
        of :attr:`ProgramGraph.order`, which is the insertion order for
        every builder in this package.  Raises ``ValueError`` when the
        def/use graph has a cycle."""
        return [self.ops[i] for i in ProgramGraph(self).order]


def _def_sites(ops: Sequence[HighLevelOp]) -> Dict[str, List[int]]:
    """Value id -> ascending indices of the ops that define it."""
    sites: Dict[str, List[int]] = {}
    for i, op in enumerate(ops):
        for v in op.defs:
            sites.setdefault(v, []).append(i)
    return sites


def _bound_uses(ops: Sequence[HighLevelOp], def_sites: Dict[str, List[int]]
                ) -> Iterator[Tuple[int, str, int]]:
    """``(reader, value, bound def site)`` for every bound use."""
    for i, op in enumerate(ops):
        for v in op.uses:
            sites = def_sites.get(v)
            site = bind_use(sites, i) if sites else None
            if site is not None:
                yield i, v, site


def bind_use(sites: Sequence[int], i: int) -> Optional[int]:
    """The def site a use at op ``i`` binds to, given its value's sorted
    def sites: the closest earlier def, else the first later def (forward
    binding).  ``None`` when op ``i``'s own def is the first site — the
    use then reads the external input the op overwrites."""
    k = bisect_left(sites, i)
    if k > 0:
        return sites[k - 1]
    if sites[0] != i:
        return sites[0]
    return None


def value_bytes(op: HighLevelOp, word_bytes: float) -> int:
    """On-chip footprint of the value(s) ``op`` defines (0 for HBM ops)."""
    if op.kind in (OpKind.HBM_LOAD, OpKind.HBM_STORE):
        return 0
    if op.kind in (OpKind.EW_MULT, OpKind.EW_ADD):
        return int(op.num_elements() * word_bytes)
    return int(op.poly_degree * op.channels * op.polys * word_bytes)


class ProgramGraph:
    """The dataflow graph of one :class:`Program`, built once per use.

    Every rewrite, analysis and scheduler that needs edges, successors, the
    topological order, use bindings or the live set reads them here.
    Each field is computed on first access, so a caller that needs only
    edges pays only for edges.  The graph is a snapshot: it is never
    cached on the program (the mutation corpus edits ``program.ops`` in
    place), so build a new one after editing.
    """

    def __init__(self, program: Program) -> None:
        self.program = program

    @cached_property
    def def_sites(self) -> Dict[str, List[int]]:
        return _def_sites(self.program.ops)

    @cached_property
    def edges(self) -> Dict[int, Tuple[int, ...]]:
        """:meth:`Program.dependency_edges`."""
        return self.program.dependency_edges()

    @cached_property
    def succs(self) -> Dict[int, List[int]]:
        """Op index -> ascending consumer indices."""
        out: Dict[int, List[int]] = {}
        for i, preds in self.edges.items():
            for p in preds:
                out.setdefault(p, []).append(i)
        return out

    @cached_property
    def _kahn(self) -> Tuple[List[int], str]:
        """Kahn's algorithm with a min-heap on the op index, plus the
        cycle message ('' when the graph is acyclic)."""
        ops = self.program.ops
        n = len(ops)
        indeg = [0] * n
        for i, preds in self.edges.items():
            indeg[i] = len(preds)
        ready = [i for i in range(n) if indeg[i] == 0]
        heapq.heapify(ready)
        order: List[int] = []
        while ready:
            i = heapq.heappop(ready)
            order.append(i)
            for s in self.succs.get(i, ()):
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(ready, s)
        if len(order) == n:
            return order, ""
        placed = set(order)
        stuck = [ops[i].label or ops[i].kind.value
                 for i in range(n) if i not in placed]
        return order, (f"dependency cycle in program {self.program.name!r} "
                       f"involving {stuck[:5]}")

    @property
    def order(self) -> List[int]:
        """Deterministic topological op indices: the insertion order
        whenever that is already topological.  Raises ``ValueError`` on a
        dependency cycle."""
        order, cycle = self._kahn
        if cycle:
            raise ValueError(cycle)
        return order

    @cached_property
    def bindings(self) -> Dict[int, List[Tuple[str, int]]]:
        """Reader op index -> ``[(value, bound def site)]`` in use order,
        by the :func:`bind_use` rule (external reads are absent)."""
        out: Dict[int, List[Tuple[str, int]]] = {}
        for i, v, site in _bound_uses(self.program.ops, self.def_sites):
            out.setdefault(i, []).append((v, site))
        return out

    @cached_property
    def _expiry(self) -> Dict[int, List[int]]:
        """Position in :attr:`order` -> ops whose values die there."""
        ops = self.program.ops
        producer: Dict[str, int] = {}
        last_use: Dict[int, int] = {}
        for pos, i in enumerate(self.order):
            for v in ops[i].uses:
                if v in producer:
                    last_use[producer[v]] = pos
            for v in ops[i].defs:
                producer[v] = i
                last_use.setdefault(i, pos)
        expiry: Dict[int, List[int]] = {}
        for src, pos in last_use.items():
            expiry.setdefault(pos, []).append(src)
        return expiry

    def live_bytes(self, word_bytes: float) -> List[int]:
        """Live-value scratchpad bytes at each position of :attr:`order`
        (the op's value joins, then values last used there retire)."""
        ops = self.program.ops
        expiry = self._expiry
        live = 0
        out: List[int] = []
        for pos, i in enumerate(self.order):
            live += value_bytes(ops[i], word_bytes)
            out.append(live)
            for src in expiry.get(pos, ()):
                live -= value_bytes(ops[src], word_bytes)
        return out
