"""Residue-number-system substrate: RNS polynomials, keyswitching, RLWE.

An :class:`RNSPoly` stacks one negacyclic-ring residue row per prime; every
basis is a plain prime tuple.  Equations (1)-(3) of the paper (fast base
conversion, Modup and Moddown) and the CKKS rescale run in the kernel
backend (:mod:`repro.kernels`), reached through :meth:`RNSPoly.modup`,
:meth:`RNSPoly.moddown`, :meth:`RNSPoly.rescale` and
:func:`repro.rns.keyswitch.modup_digits`.  :mod:`repro.rns.basis` holds
the conversion constants and the exact CRT and mixed-radix routines.
CKKS and BFV share :mod:`repro.rns.keyswitch` (hybrid keyswitching) and
:mod:`repro.rns.rlwe` (every other RLWE step).
"""

from repro.rns.basis import ConversionTable, crt_reconstruct
from repro.rns.rns_poly import RNSPoly, RNSRing

__all__ = [
    "ConversionTable",
    "crt_reconstruct",
    "RNSPoly",
    "RNSRing",
]
