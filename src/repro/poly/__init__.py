"""Polynomial-ring substrate: the negacyclic NTT and the 4-step NTT.

Provides the NTTs of the ring ``Z_q[X]/(X^N + 1)`` that the kernel backends
run (per prime and limb-batched), including the 4-step (Bailey) NTT
decomposition that underpins Alchemist's slot-based data management
(Section 5.3 of the paper).  Ring elements themselves are
:class:`~repro.rns.rns_poly.RNSPoly` values, one residue row per prime.
"""

from repro.poly.ntt import NTTContext, bit_reverse_indices
from repro.poly.fourstep import FourStepNTT
from repro.poly.radix import (
    ntt_mult_count_radix2,
    ntt_mult_count_radix8_metaop,
    radix8_stage_count,
)

__all__ = [
    "NTTContext",
    "bit_reverse_indices",
    "FourStepNTT",
    "ntt_mult_count_radix2",
    "ntt_mult_count_radix8_metaop",
    "radix8_stage_count",
]
