"""Alchemist: a unified accelerator architecture for cross-scheme FHE.

Python reproduction of Mu et al., DAC 2024.  The package provides:

* complete functional implementations of both FHE scheme families --
  RNS-CKKS (:mod:`repro.ckks`) and TFHE (:mod:`repro.tfhe`) -- on a shared
  number-theoretic substrate (:mod:`repro.ntmath`, :mod:`repro.poly`,
  :mod:`repro.rns`);
* the paper's core contribution, the Meta-OP ``(M_j A_j)_n R_j`` operator
  layer (:mod:`repro.metaop`);
* a structural + area/power model of the Alchemist hardware
  (:mod:`repro.hw`) and a calibrated cycle-level simulator
  (:mod:`repro.sim`) driven by compiled workload programs
  (:mod:`repro.compiler`);
* the baseline database and analytical models (:mod:`repro.baselines`) and
  the figure-level analyses (:mod:`repro.analysis`).

Each subpackage loads on first use, so a caller of one scheme loads that
scheme and the substrate beneath it, not the accelerator model.

Quick start::

    import numpy as np
    from repro import ckks

    rng = np.random.default_rng(0)
    params = ckks.CKKSParams(n=1024, num_levels=4, dnum=2)
    encoder = ckks.CKKSEncoder(params.n, params.scale)
    keygen = ckks.CKKSKeyGenerator(params, rng)
    enc = ckks.CKKSEncryptor(params, encoder, rng,
                             public_key=keygen.public_key())
    dec = ckks.CKKSDecryptor(params, encoder, keygen.secret_key())
    ev = ckks.CKKSEvaluator(params, encoder, relin_key=keygen.relin_key())
    ct = ev.multiply_rescale(enc.encrypt_values([1.0, 2.0]),
                             enc.encrypt_values([3.0, 4.0]))
    print(dec.decrypt(ct)[:2])   # ~ [3.0, 8.0]

and for the accelerator side::

    from repro.compiler import cmult_program
    from repro.sim import CycleSimulator

    report = CycleSimulator().run(cmult_program())
    print(report.summary())
"""

from __future__ import annotations

import importlib
from types import ModuleType
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:
    from repro import analysis, apps, baselines, bfv, bridge, ckks, compiler, hw, metaop
    from repro import ntmath, poly, rns, sim, tfhe

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "apps",
    "baselines",
    "bfv",
    "bridge",
    "ckks",
    "compiler",
    "hw",
    "metaop",
    "ntmath",
    "poly",
    "rns",
    "sim",
    "tfhe",
    "__version__",
]


def __getattr__(name: str) -> ModuleType:
    """Import the subpackage ``name`` on first access (PEP 562)."""
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
