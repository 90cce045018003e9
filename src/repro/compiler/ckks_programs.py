"""CKKS workload programs: the operator sequences of the paper's benchmarks.

Builders produce :class:`~repro.compiler.ops.Program` objects for the basic
operators of Table 7 (Pmult, Hadd, Keyswitch, Cmult, Rotation) and the
applications of Figure 6(a) (LoLa-MNIST inference, fully-packed
bootstrapping, 1024-batch HELR).  Op counts follow the standard RNS-CKKS
implementations (hybrid keyswitching, BSGS linear transforms, Chebyshev
EvalMod, Modup hoisting for rotation batches).

Every op carries real def/use value ids so programs form dataflow graphs:
an op's def id is its (unique) label, composable helpers take a ``src``
value and alias their final op with ``<label>.out``.  Notable exposed
parallelism: evaluation-key HBM loads are roots (they overlap compute),
Modup digits are mutually independent, and hoisted BSGS baby rotations
only depend on the shared transform input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.compiler.ops import HighLevelOp, OpKind, Program

#: 36-bit words padded to 4.5 bytes (the paper's word size via SHARP [11]).
WORD_BYTES = 4.5


# --------------------------------------------------------------------- #
#                   rotation-step identity formulas                     #
# --------------------------------------------------------------------- #
# Shared between the builders (which tag ops with ``key="rot:<step>"``)
# and the differential key harness (which derives the steps the real
# evaluator must touch *without* reading the tags) — one formula source,
# so a builder tag and its executable meaning cannot drift apart.


def bsgs_baby_steps(baby: int) -> List[int]:
    """Baby-step rotation amounts of one BSGS linear transform."""
    return [b + 1 for b in range(baby)]


def bsgs_giant_steps(baby: int, giant: int) -> List[int]:
    """Giant-step rotation amounts (strides of the baby-step width)."""
    return [baby * g for g in range(1, giant)]


def bsgs_rotation_steps(baby: int, giant: int) -> List[int]:
    """All distinct rotation steps one BSGS transform consumes keys for."""
    return sorted(set(bsgs_baby_steps(baby) + bsgs_giant_steps(baby, giant)))


def rotate_reduce_steps(count: int) -> List[int]:
    """Steps of a rotate-and-sum reduction: powers of two 1..2^(count-1)."""
    return [1 << r for r in range(count)]


def shift_rotation_steps(count: int) -> List[int]:
    """Steps of a sequential shift-accumulate: 1..count."""
    return [r + 1 for r in range(count)]


@dataclass(frozen=True)
class CKKSWorkload:
    """Shape of a CKKS workload: the paper's Table 7 setting by default.

    The noise-relevant parameters (``scale_bits``/``sigma``/
    ``hamming_weight``) mirror :class:`repro.ckks.params.CKKSParams`
    defaults; they exist so the static noise-budget verifier can model the
    workload without generating a real prime chain.
    """

    n: int = 1 << 16
    num_levels: int = 44
    dnum: int = 4
    scale_bits: int = 35
    first_prime_bits: int = 41
    sigma: float = 3.2
    hamming_weight: int = 64

    @property
    def alpha(self) -> int:
        return -(-(self.num_levels + 1) // self.dnum)

    def noise_metadata(self) -> dict:
        """``Program.metadata["noise"]`` annotation for the verifier.

        ``value_bound = 0.5`` declares that the modelled circuits keep
        their slot magnitudes within 1/2 (the EvalMod/sigmoid polynomial
        ranges) — the reason deep CKKS pipelines do not lose a full bit
        of precision per multiplicative level.
        """
        return {
            "scheme": "ckks",
            "n": self.n,
            "scale_bits": self.scale_bits,
            "first_prime_bits": self.first_prime_bits,
            "sigma": self.sigma,
            "hamming_weight": self.hamming_weight,
            "dnum": self.dnum,
            "num_levels": self.num_levels,
            "value_bound": 0.5,
        }

    def chain(self, level: int) -> int:
        return level + 1

    def digits(self, level: int) -> int:
        return -(-self.chain(level) // self.alpha)

    def extended(self, level: int) -> int:
        return self.chain(level) + self.alpha

    def evk_bytes(self, level: int) -> int:
        """HBM footprint of one switching key at ``level``."""
        return int(
            self.digits(level) * 2 * self.extended(level) * self.n * WORD_BYTES
        )

    def ciphertext_bytes(self, level: int) -> int:
        return int(2 * self.chain(level) * self.n * WORD_BYTES)

    def keys_metadata(self, rotations: Iterable[int] = (), *,
                      relin: bool = True, conj: bool = False) -> dict:
        """``Program.metadata["keys"]`` annotation for the key verifier.

        Declares the evaluation keys the workload provisions — the relin
        key, one Galois key per rotation step in ``rotations``, and the
        conjugation key — each sized at the top level of the modulus
        chain (keys are generated once, at full chain; lower-level
        switches read a prefix).
        """
        size = self.evk_bytes(self.num_levels)
        provisioned = {}
        if relin:
            provisioned["relin"] = size
        for step in sorted(set(rotations)):
            provisioned[f"rot:{step}"] = size
        if conj:
            provisioned["conj"] = size
        return {
            "scheme": "ckks",
            "provisioned": provisioned,
            "ciphertext_bytes": self.ciphertext_bytes(self.num_levels),
        }


#: The paper's evaluation workload shape (Table 7, Figure 6 deep apps).
PAPER_WORKLOAD = CKKSWorkload()


# --------------------------------------------------------------------- #
#                          basic operators                              #
# --------------------------------------------------------------------- #


def pmult_program(wl: CKKSWorkload = PAPER_WORKLOAD,
                  level: Optional[int] = None) -> Program:
    """Pmult: ciphertext x plaintext, elementwise in the NTT domain."""
    level = wl.num_levels if level is None else level
    chain = wl.chain(level)
    prog = Program("pmult", poly_degree=wl.n,
                   description="ct x pt elementwise multiply",
                   inputs=("ct", "pt"),
                   metadata={"noise": wl.noise_metadata()})
    prog.add(HighLevelOp(OpKind.EW_MULT, "pmult", poly_degree=wl.n,
                         channels=chain, polys=2,
                         traffic_words_per_element=2.5,
                         defs=("pmult",), uses=("ct", "pt"), role="pmult"))
    return prog


def hadd_program(wl: CKKSWorkload = PAPER_WORKLOAD,
                 level: Optional[int] = None) -> Program:
    """Hadd: ciphertext + ciphertext."""
    level = wl.num_levels if level is None else level
    chain = wl.chain(level)
    prog = Program("hadd", poly_degree=wl.n, description="ct + ct",
                   inputs=("ct_a", "ct_b"),
                   metadata={"noise": wl.noise_metadata()})
    prog.add(HighLevelOp(OpKind.EW_ADD, "hadd", poly_degree=wl.n,
                         channels=chain, polys=2,
                         defs=("hadd",), uses=("ct_a", "ct_b"),
                         role="add"))
    return prog


def keyswitch_ops(
    wl: CKKSWorkload,
    level: int,
    *,
    shared_modup: bool = False,
    label: str = "ks",
    src: Optional[str] = None,
    key: str = "relin",
) -> List[HighLevelOp]:
    """The hybrid keyswitch operator sequence at ``level``.

    ``shared_modup=True`` models Modup hoisting: the digit decomposition and
    Modup/NTT of the input are shared with earlier rotations, so only the
    evk application (DecompPolyMult) and Moddown remain (BSP-L=n+ in Fig 1).

    ``src`` is the value id of the input ciphertext (an external input when
    omitted).  The final op also defs ``<label>.out`` so callers can chain.
    The evk load is a dataflow root, and the per-digit Modup/NTT pairs are
    mutually independent — both overlap in the event-driven engine.

    ``key`` names the evaluation key this switch consumes (``"relin"``,
    ``"rot:<step>"``, ``"conj"``); it tags the evk load and the inner
    product for :mod:`repro.compiler.verify.keys`.
    """
    chain = wl.chain(level)
    ext = wl.extended(level)
    digits = wl.digits(level)
    alpha = wl.alpha
    src = f"{label}.in" if src is None else src
    ops = []
    inner_uses = [src]
    if not shared_modup:
        ops.append(HighLevelOp(OpKind.INTT, f"{label}.intt_in",
                               poly_degree=wl.n, channels=chain,
                               defs=(f"{label}.intt_in",), uses=(src,)))
        remaining = chain
        for t in range(digits):
            digit_size = min(alpha, remaining)
            remaining -= digit_size
            ops.append(HighLevelOp(
                OpKind.BCONV, f"{label}.modup{t}", poly_degree=wl.n,
                in_channels=digit_size, channels=ext - digit_size,
                defs=(f"{label}.modup{t}",), uses=(f"{label}.intt_in",)))
            # only the freshly converted channels need a forward NTT; the
            # digit's own channels reuse the NTT form of the input ct
            ops.append(HighLevelOp(
                OpKind.NTT, f"{label}.ntt_up{t}", poly_degree=wl.n,
                channels=ext - digit_size,
                defs=(f"{label}.ntt_up{t}",), uses=(f"{label}.modup{t}",)))
            inner_uses.append(f"{label}.ntt_up{t}")
    ops.append(HighLevelOp(OpKind.HBM_LOAD, f"{label}.evk",
                           bytes_moved=wl.evk_bytes(level),
                           defs=(f"{label}.evk",), key=key))
    inner_uses.append(f"{label}.evk")
    ops.append(HighLevelOp(
        OpKind.DECOMP_POLY_MULT, f"{label}.inner", poly_degree=wl.n,
        depth=digits, channels=ext, polys=2,
        defs=(f"{label}.inner",), uses=tuple(inner_uses),
        role="keyswitch", key=key))
    ops.append(HighLevelOp(OpKind.INTT, f"{label}.intt_down",
                           poly_degree=wl.n, channels=ext, polys=2,
                           defs=(f"{label}.intt_down",),
                           uses=(f"{label}.inner",)))
    ops.append(HighLevelOp(
        OpKind.BCONV, f"{label}.moddown", poly_degree=wl.n,
        in_channels=alpha, channels=chain, polys=2,
        defs=(f"{label}.moddown",), uses=(f"{label}.intt_down",)))
    ops.append(HighLevelOp(OpKind.EW_ADD, f"{label}.md_sub", poly_degree=wl.n,
                           channels=chain, polys=2,
                           defs=(f"{label}.md_sub",),
                           uses=(f"{label}.moddown", src)))
    ops.append(HighLevelOp(OpKind.EW_MULT, f"{label}.md_scale",
                           poly_degree=wl.n, channels=chain, polys=2,
                           defs=(f"{label}.md_scale",),
                           uses=(f"{label}.md_sub",)))
    ops.append(HighLevelOp(OpKind.NTT, f"{label}.ntt_out",
                           poly_degree=wl.n, channels=chain, polys=2,
                           defs=(f"{label}.ntt_out", f"{label}.out"),
                           uses=(f"{label}.md_scale",)))
    return ops


def keyswitch_program(
    wl: CKKSWorkload = PAPER_WORKLOAD, level: Optional[int] = None
) -> Program:
    level = wl.num_levels if level is None else level
    prog = Program("keyswitch", poly_degree=wl.n,
                   description="hybrid keyswitch (Modup + evk + Moddown)",
                   inputs=("ks.in",),
                   metadata={"noise": wl.noise_metadata(),
                             "keys": wl.keys_metadata()})
    prog.extend(keyswitch_ops(wl, level))
    return prog


def rescale_ops(wl: CKKSWorkload, level: int, label: str = "rs",
                src: Optional[str] = None) -> List[HighLevelOp]:
    chain = wl.chain(level)
    src = f"{label}.in" if src is None else src
    return [
        HighLevelOp(OpKind.INTT, f"{label}.intt", poly_degree=wl.n,
                    channels=chain, polys=2,
                    defs=(f"{label}.intt",), uses=(src,)),
        HighLevelOp(OpKind.EW_ADD, f"{label}.sub", poly_degree=wl.n,
                    channels=chain - 1, polys=2,
                    defs=(f"{label}.sub",), uses=(f"{label}.intt",)),
        HighLevelOp(OpKind.EW_MULT, f"{label}.scale", poly_degree=wl.n,
                    channels=chain - 1, polys=2,
                    defs=(f"{label}.scale",), uses=(f"{label}.sub",),
                    role="rescale"),
        HighLevelOp(OpKind.NTT, f"{label}.ntt", poly_degree=wl.n,
                    channels=chain - 1, polys=2,
                    defs=(f"{label}.ntt", f"{label}.out"),
                    uses=(f"{label}.scale",)),
    ]


def rescale_program(wl: CKKSWorkload = PAPER_WORKLOAD,
                    level: Optional[int] = None) -> Program:
    level = wl.num_levels if level is None else level
    prog = Program("rescale", poly_degree=wl.n, inputs=("rs.in",),
                   metadata={"noise": wl.noise_metadata()})
    prog.extend(rescale_ops(wl, level))
    return prog


def cmult_program(wl: CKKSWorkload = PAPER_WORKLOAD,
                  level: Optional[int] = None) -> Program:
    """Cmult: tensor product + relinearize + rescale (Table 7 row 4)."""
    level = wl.num_levels if level is None else level
    chain = wl.chain(level)
    prog = Program("cmult", poly_degree=wl.n,
                   description="ct x ct with relinearization and rescale",
                   inputs=("ct_a", "ct_b"),
                   metadata={"noise": wl.noise_metadata(),
                             "keys": wl.keys_metadata()})
    # tensor: d0 = a0*b0, d1 = a0*b1 + a1*b0, d2 = a1*b1
    prog.add(HighLevelOp(OpKind.EW_MULT, "tensor", poly_degree=wl.n,
                         channels=chain, polys=4,
                         defs=("tensor",), uses=("ct_a", "ct_b"),
                         role="tensor"))
    prog.add(HighLevelOp(OpKind.EW_ADD, "tensor_add", poly_degree=wl.n,
                         channels=chain, polys=1,
                         defs=("tensor_add",), uses=("tensor",)))
    prog.extend(keyswitch_ops(wl, level, label="relin", src="tensor_add"))
    prog.add(HighLevelOp(OpKind.EW_ADD, "relin_add", poly_degree=wl.n,
                         channels=chain, polys=2,
                         defs=("relin_add",), uses=("relin.out", "tensor")))
    prog.extend(rescale_ops(wl, level, src="relin_add"))
    return prog


def rotation_program(
    wl: CKKSWorkload = PAPER_WORKLOAD, level: Optional[int] = None
) -> Program:
    """Rotation: Galois automorphism (a permutation in both domains) + KS."""
    level = wl.num_levels if level is None else level
    chain = wl.chain(level)
    prog = Program("rotation", poly_degree=wl.n,
                   description="slot rotation (automorphism + keyswitch)",
                   inputs=("ct",),
                   metadata={"noise": wl.noise_metadata(),
                             "keys": wl.keys_metadata(rotations=(1,),
                                                      relin=False)})
    prog.add(HighLevelOp(OpKind.AUTOMORPHISM, "galois", poly_degree=wl.n,
                         channels=chain, polys=2,
                         defs=("galois",), uses=("ct",)))
    prog.extend(keyswitch_ops(wl, level, label="rotks", src="galois",
                              key="rot:1"))
    return prog


# --------------------------------------------------------------------- #
#                          applications                                 #
# --------------------------------------------------------------------- #


def _bsgs_linear_transform(
    wl: CKKSWorkload, level: int, baby: int, giant: int, label: str,
    hoisting: bool = True, src: Optional[str] = None,
) -> List[HighLevelOp]:
    """Baby-step/giant-step homomorphic linear transform.

    ``baby`` baby-step rotations (sharing one Modup when ``hoisting``),
    ``giant`` full rotations, ``baby * giant`` plaintext multiplies and the
    corresponding adds.  All baby rotations read the transform input, so
    they are mutually independent in the dataflow graph; the diagonal
    multiply joins them, and the giant rotations fan out from the
    accumulated sum.  The final op is aliased ``<label>.out``.
    """
    chain = wl.chain(level)
    src = f"{label}.in" if src is None else src
    ops = []
    # baby rotations: one full keyswitch + (baby-1) sharing Modup if hoisted
    baby_steps = bsgs_baby_steps(baby)
    ops.extend(keyswitch_ops(wl, level, label=f"{label}.baby0", src=src,
                             key=f"rot:{baby_steps[0]}"))
    baby_outs = [f"{label}.baby0.out"]
    for b in range(1, baby):
        ops.extend(keyswitch_ops(wl, level, shared_modup=hoisting,
                                 label=f"{label}.baby{b}", src=src,
                                 key=f"rot:{baby_steps[b]}"))
        baby_outs.append(f"{label}.baby{b}.out")
    # plaintext diagonal multiplies and accumulation
    ops.append(HighLevelOp(OpKind.EW_MULT, f"{label}.diag",
                           poly_degree=wl.n, channels=chain,
                           polys=2 * baby * giant,
                           defs=(f"{label}.diag",), uses=tuple(baby_outs),
                           role="pmult"))
    ops.append(HighLevelOp(OpKind.EW_ADD, f"{label}.acc",
                           poly_degree=wl.n, channels=chain,
                           polys=2 * baby * giant,
                           defs=(f"{label}.acc",), uses=(f"{label}.diag",)))
    # giant rotations (full keyswitches, independent given the sum)
    giant_steps = bsgs_giant_steps(baby, giant)
    for g in range(1, giant):
        ops.extend(keyswitch_ops(wl, level, label=f"{label}.giant{g}",
                                 src=f"{label}.acc",
                                 key=f"rot:{giant_steps[g - 1]}"))
    ops[-1].defs = ops[-1].defs + (f"{label}.out",)
    return ops


def bootstrapping_program(
    wl: CKKSWorkload = PAPER_WORKLOAD,
    *,
    cts_stages: int = 3,
    stc_stages: int = 3,
    bsgs_baby: int = 8,
    bsgs_giant: int = 4,
    evalmod_cmults: int = 14,
    evalmod_pmults: int = 20,
    hoisting: bool = True,
) -> Program:
    """Fully-packed CKKS bootstrapping (ModRaise → CtS → EvalMod → StC).

    Default stage counts follow the standard sqrt-decomposition used by the
    accelerator literature at N = 2^16 (CtS/StC split into 3 matrices with
    BSGS 8x4, degree-31 Chebyshev EvalMod over ~14 multiplicative steps).
    ``hoisting=False`` disables Modup hoisting in the BSGS baby steps — the
    "BSP-L=n" (vs "BSP-L=n+") distinction of Figure 1.
    """
    name = "bootstrapping" + ("" if hoisting else "_nohoist")
    boot_rotations = bsgs_rotation_steps(bsgs_baby, bsgs_giant)
    prog = Program(name, poly_degree=wl.n,
                   description="fully-packed CKKS bootstrapping",
                   inputs=("ct",),
                   metadata={"noise": wl.noise_metadata(),
                             "keys": wl.keys_metadata(boot_rotations)})
    level = wl.num_levels
    # ModRaise: Bconv from the exhausted chain to the full chain
    prog.add(HighLevelOp(OpKind.BCONV, "modraise", poly_degree=wl.n,
                         in_channels=1, channels=level, polys=2,
                         defs=("modraise",), uses=("ct",), role="modraise"))
    prog.add(HighLevelOp(OpKind.NTT, "modraise_ntt", poly_degree=wl.n,
                         channels=level + 1, polys=2,
                         defs=("modraise_ntt",), uses=("modraise",)))
    cur = "modraise_ntt"
    # CoeffToSlot: one BSGS linear transform per stage, one level each
    for s in range(cts_stages):
        prog.extend(_bsgs_linear_transform(
            wl, level, bsgs_baby, bsgs_giant, f"cts{s}", hoisting, src=cur))
        prog.extend(rescale_ops(wl, level, label=f"cts{s}.rs",
                                src=f"cts{s}.out"))
        cur = f"cts{s}.rs.out"
        level -= 1
    # EvalMod: Chebyshev evaluation of the scaled sine
    for c in range(evalmod_cmults):
        chain = wl.chain(level)
        prog.add(HighLevelOp(OpKind.EW_MULT, f"evalmod.t{c}",
                             poly_degree=wl.n, channels=chain, polys=4,
                             defs=(f"evalmod.t{c}",), uses=(cur,),
                             role="tensor"))
        prog.add(HighLevelOp(OpKind.EW_ADD, f"evalmod.a{c}",
                             poly_degree=wl.n, channels=chain, polys=1,
                             defs=(f"evalmod.a{c}",),
                             uses=(f"evalmod.t{c}",)))
        prog.extend(keyswitch_ops(wl, level, label=f"evalmod.relin{c}",
                                  src=f"evalmod.a{c}"))
        prog.extend(rescale_ops(wl, level, label=f"evalmod.rs{c}",
                                src=f"evalmod.relin{c}.out"))
        cur = f"evalmod.rs{c}.out"
        if c % 1 == 0 and level > stc_stages + 1:
            level -= 1
    prog.add(HighLevelOp(OpKind.EW_MULT, "evalmod.pmults", poly_degree=wl.n,
                         channels=wl.chain(level), polys=2 * evalmod_pmults,
                         defs=("evalmod.pmults",), uses=(cur,),
                         role="pmult"))
    cur = "evalmod.pmults"
    # SlotToCoeff
    for s in range(stc_stages):
        prog.extend(_bsgs_linear_transform(
            wl, level, bsgs_baby, bsgs_giant, f"stc{s}", hoisting, src=cur))
        prog.extend(rescale_ops(wl, level, label=f"stc{s}.rs",
                                src=f"stc{s}.out"))
        cur = f"stc{s}.rs.out"
        level -= 1
    return prog


def helr_iteration_program(
    wl: CKKSWorkload = PAPER_WORKLOAD,
    *,
    batch: int = 1024,
    features: int = 256,
    avg_level: int = 24,
    bootstrap_interval: int = 3,
) -> Program:
    """One 1024-batch HELR (logistic regression) training iteration.

    Gradient step: X^T * sigmoid(X*w) — inner products via rotate-and-sum
    (log2(features) rotations per reduction), a degree-3 polynomial sigmoid
    (2 Cmults), and the weight update; plus 1/``bootstrap_interval`` of a
    bootstrapping (HELR bootstraps every few iterations; papers report the
    amortized per-iteration cost).
    """
    rot_per_reduction = int(math.log2(features))
    # provision the full training key set: the rotate-and-sum reductions
    # plus every BSGS step of the (amortized) bootstrap
    helr_rotations = (rotate_reduce_steps(rot_per_reduction)
                      + bsgs_rotation_steps(8, 4))
    prog = Program("helr_iteration", poly_degree=wl.n,
                   description=f"HELR batch={batch} iteration",
                   inputs=("x", "ct"),
                   metadata={"noise": wl.noise_metadata(),
                             "keys": wl.keys_metadata(helr_rotations)})
    level = avg_level
    chain = wl.chain(level)
    cur = "x"
    # X*w inner products (ciphertext x ciphertext weights): 1 Cmult + sum
    for tag, cmults, rots in (("xw", 2, rot_per_reduction),
                              ("sigmoid", 2, 0),
                              ("grad", 2, rot_per_reduction),
                              ("update", 1, 2)):
        for c in range(cmults):
            prog.add(HighLevelOp(OpKind.EW_MULT, f"{tag}.t{c}",
                                 poly_degree=wl.n, channels=chain, polys=4,
                                 defs=(f"{tag}.t{c}",), uses=(cur,),
                                 role="tensor"))
            prog.extend(keyswitch_ops(wl, level, label=f"{tag}.relin{c}",
                                      src=f"{tag}.t{c}"))
            prog.extend(rescale_ops(wl, level, label=f"{tag}.rs{c}",
                                    src=f"{tag}.relin{c}.out"))
            cur = f"{tag}.rs{c}.out"
        rot_outs = []
        rot_steps = rotate_reduce_steps(rots)
        for r in range(rots):
            prog.add(HighLevelOp(OpKind.AUTOMORPHISM, f"{tag}.rot{r}",
                                 poly_degree=wl.n, channels=chain, polys=2,
                                 defs=(f"{tag}.rot{r}",), uses=(cur,)))
            prog.extend(keyswitch_ops(
                wl, level, shared_modup=(r > 0), label=f"{tag}.rotks{r}",
                src=f"{tag}.rot{r}", key=f"rot:{rot_steps[r]}"))
            rot_outs.append(f"{tag}.rotks{r}.out")
        prog.add(HighLevelOp(OpKind.EW_ADD, f"{tag}.acc", poly_degree=wl.n,
                             channels=chain, polys=2 * max(1, rots),
                             defs=(f"{tag}.acc",),
                             uses=tuple(rot_outs) or (cur,)))
        cur = f"{tag}.acc"
    # amortized bootstrapping share
    boot = bootstrapping_program(wl)
    share = max(1, len(boot.ops) // bootstrap_interval)
    prog.extend(boot.ops[:share])
    prog.description += f" (+1/{bootstrap_interval} bootstrap amortized)"
    return prog


def lola_mnist_program(
    *,
    encrypted_weights: bool = True,
    n: int = 1 << 14,
    num_levels: int = 10,
    dnum: int = 3,
) -> Program:
    """LoLa-MNIST [21] low-latency inference (shallow CKKS, Figure 6(a)).

    Network: 5x5 conv (25 maps) → square → dense(100) → square → dense(10),
    evaluated with packed rotations.  With encrypted weights every weight
    multiply is a Cmult (relinearization); with plaintext weights they are
    Pmults.
    """
    wl = CKKSWorkload(n=n, num_levels=num_levels, dnum=dnum)
    name = "lola_mnist_" + ("enc" if encrypted_weights else "plain")
    # widest shift-accumulate (fc1: 7 shifts) covers conv (5) and fc2 (4)
    lola_rotations = shift_rotation_steps(7)
    prog = Program(name, poly_degree=n,
                   description="LoLa-MNIST inference",
                   inputs=("image",),
                   metadata={"noise": wl.noise_metadata(),
                             "keys": wl.keys_metadata(lola_rotations)})
    level = num_levels
    cur = "image"

    def weight_multiply(tag: str, count: int, lvl: int, src: str) -> str:
        chain = wl.chain(lvl)
        if encrypted_weights:
            prog.add(HighLevelOp(OpKind.EW_MULT, f"{tag}.t", poly_degree=n,
                                 channels=chain, polys=4 * count,
                                 defs=(f"{tag}.t",), uses=(src,),
                                 role="tensor"))
            prog.extend(keyswitch_ops(wl, lvl, label=f"{tag}.relin",
                                      src=f"{tag}.t"))
            mult_out = f"{tag}.relin.out"
        else:
            prog.add(HighLevelOp(OpKind.EW_MULT, f"{tag}.pm", poly_degree=n,
                                 channels=chain, polys=2 * count,
                                 defs=(f"{tag}.pm",), uses=(src,),
                                 role="pmult"))
            mult_out = f"{tag}.pm"
        prog.add(HighLevelOp(OpKind.EW_ADD, f"{tag}.acc", poly_degree=n,
                             channels=chain, polys=2 * count,
                             defs=(f"{tag}.acc",), uses=(mult_out,)))
        return f"{tag}.acc"

    def rotate_accumulate(tag: str, count: int, lvl: int, src: str) -> str:
        steps = shift_rotation_steps(count)
        for r in range(count):
            prog.add(HighLevelOp(OpKind.AUTOMORPHISM, f"{tag}.rot{r}",
                                 poly_degree=n, channels=wl.chain(lvl),
                                 polys=2,
                                 defs=(f"{tag}.rot{r}",), uses=(src,)))
            prog.extend(keyswitch_ops(wl, lvl, shared_modup=(r > 0),
                                      label=f"{tag}.rotks{r}",
                                      src=f"{tag}.rot{r}",
                                      key=f"rot:{steps[r]}"))
        return f"{tag}.rotks{count - 1}.out"

    # conv layer: 25 kernel positions, rotate-and-accumulate
    cur = weight_multiply("conv", 25, level, cur)
    cur = rotate_accumulate("conv", 5, level, cur)
    prog.extend(rescale_ops(wl, level, label="conv.rs", src=cur))
    cur = "conv.rs.out"
    level -= 1
    # square activation
    prog.add(HighLevelOp(OpKind.EW_MULT, "sq1", poly_degree=n,
                         channels=wl.chain(level), polys=4,
                         defs=("sq1",), uses=(cur,), role="tensor"))
    prog.extend(keyswitch_ops(wl, level, label="sq1.relin", src="sq1"))
    prog.extend(rescale_ops(wl, level, label="sq1.rs", src="sq1.relin.out"))
    cur = "sq1.rs.out"
    level -= 1
    # dense 100: rotate-and-sum over packed vector
    cur = weight_multiply("fc1", 8, level, cur)
    cur = rotate_accumulate("fc1", 7, level, cur)
    prog.extend(rescale_ops(wl, level, label="fc1.rs", src=cur))
    cur = "fc1.rs.out"
    level -= 1
    # square activation
    prog.add(HighLevelOp(OpKind.EW_MULT, "sq2", poly_degree=n,
                         channels=wl.chain(level), polys=4,
                         defs=("sq2",), uses=(cur,), role="tensor"))
    prog.extend(keyswitch_ops(wl, level, label="sq2.relin", src="sq2"))
    prog.extend(rescale_ops(wl, level, label="sq2.rs", src="sq2.relin.out"))
    cur = "sq2.rs.out"
    level -= 1
    # dense 10
    cur = weight_multiply("fc2", 4, level, cur)
    rotate_accumulate("fc2", 4, level, cur)
    return prog
