"""Compiler: FHE workloads → high-level operator programs → Meta-OP costs.

``ops`` defines the high-level operator IR (NTT, Bconv, DecompPolyMult,
elementwise, data movement, HBM transfers) with per-op compute/traffic
profiles and SSA-style ``defs``/``uses`` dataflow edges; ``ckks_programs``,
``tfhe_programs`` and ``bfv_programs`` build the exact operator sequences of
every benchmark in the paper's evaluation with real producer edges;
``passes`` holds the two rewrites of those programs, spill insertion and
elementwise fusion; ``verify`` lints them and ``cost`` costs them.
"""

from repro.compiler.ops import HighLevelOp, OpKind, Program
from repro.compiler.ckks_programs import (
    cmult_program,
    hadd_program,
    helr_iteration_program,
    keyswitch_program,
    lola_mnist_program,
    bootstrapping_program,
    pmult_program,
    rotation_program,
    rescale_program,
)
from repro.compiler.tfhe_programs import pbs_batch_program
from repro.compiler.bfv_programs import bfv_add_program, bfv_cmult_program

__all__ = [
    "HighLevelOp",
    "OpKind",
    "Program",
    "pmult_program",
    "hadd_program",
    "keyswitch_program",
    "cmult_program",
    "rotation_program",
    "rescale_program",
    "bootstrapping_program",
    "helr_iteration_program",
    "lola_mnist_program",
    "pbs_batch_program",
    "bfv_add_program",
    "bfv_cmult_program",
]
