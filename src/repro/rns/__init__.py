"""Residue-number-system substrate: Bconv, Modup, Moddown, RNS polynomials.

Implements equations (1)-(3) of the paper: fast RNS basis conversion between
prime channels, modulus raising (Modup) and modulus reduction (Moddown), and
an :class:`RNSPoly` container that stacks one negacyclic-ring residue channel
per prime.  CKKS and BFV share :mod:`repro.rns.keyswitch` (hybrid
keyswitching) and :mod:`repro.rns.rlwe` (every other RLWE step).
"""

from repro.rns.basis import RNSBasis, ConversionTable, crt_reconstruct
from repro.rns.bconv import bconv, moddown, modup, rescale_drop_last
from repro.rns.rns_poly import RNSPoly, RNSRing

__all__ = [
    "RNSBasis",
    "ConversionTable",
    "crt_reconstruct",
    "bconv",
    "modup",
    "moddown",
    "rescale_drop_last",
    "RNSPoly",
    "RNSRing",
]
