"""Static verification layer: an FHE program linter over the dataflow IR.

Four analyses run over a :class:`~repro.compiler.ops.Program` without
executing or mutating it:

* :class:`StructureAnalysis` — graph acyclicity, alias uniqueness, and
  per-kind shape sanity;
* :class:`LevelScaleAnalysis` — CKKS level/scale abstract interpretation
  along dependency edges (underflow, scale mismatch, omitted rescale or
  bootstrap);
* :class:`SlotPartitionAnalysis` — the accelerator's zero-exchange
  invariant: no op implies cross-unit slot traffic, and only the 4-step
  NTT ``TRANSPOSE`` may change the data layout;
* :class:`LivenessAnalysis` — use-of-undefined / forward references,
  dead definitions, and live-set pressure against on-chip capacity
  (statically predicting where ``insert_spills`` spills);
* :class:`NoiseBudgetAnalysis` — cross-scheme noise-budget abstract
  interpretation (CKKS coefficient-std, BFV invariant-noise bits,
  TFHE torus variance with PBS resets) proving annotated programs
  still decrypt (``ALC7xx``);
* :class:`KeyResidencyAnalysis` — evaluation-key dependency and HBM
  residency: the exact key set each program touches, key bytes from the
  live params, a sliding working-set schedule with prefetch/evict hints,
  and the key-fetch traffic charged through the shared ``cost_op``
  model (``ALC8xx``);
* :class:`CostAnalysis` — performance advisories from the static cost
  model (:mod:`repro.compiler.cost`): HBM-bound ops on the critical path,
  scratchpad overflow with predicted spill traffic, lane
  under-utilization, and provably profitable fusion opportunities
  (``ALC6xx``, all advisory notes).

:class:`HazardAnalysis` additionally audits executed schedules
(RAW/WAW/WAR ordering, spill/fill pairing) when one is supplied.

Entry points: :func:`lint_program` for one-shot use, :class:`Linter`
for a reusable configured instance, and the ``repro lint`` CLI command.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.compiler.ops import Program, value_bytes
from repro.compiler.verify.base import (
    Analysis,
    AnalysisContext,
    Linter,
    LintReport,
)
from repro.compiler.verify.diagnostics import (
    CODES,
    Diagnostic,
    Severity,
    code_meaning,
    code_table_markdown,
)
from repro.compiler.verify.hazards import (
    HazardAnalysis,
    schedule_diagnostics,
    spill_fill_diagnostics,
)
from repro.compiler.verify.keys import (
    KeyResidencyAnalysis,
    KeyResidencyReport,
    analyze_keys,
    required_keys,
)
from repro.compiler.verify.levels import AbstractCt, LevelScaleAnalysis
from repro.compiler.verify.liveness import LivenessAnalysis
from repro.compiler.verify.noise import (
    NoiseBudgetAnalysis,
    NoiseDomain,
    NoiseState,
    noise_domain,
)
from repro.compiler.verify.partition import SlotPartitionAnalysis
from repro.compiler.verify.structure import StructureAnalysis
from repro.compiler.verify.costcheck import CostAnalysis
from repro.hw.config import ALCHEMIST_DEFAULT, AlchemistConfig


def default_analyses() -> Tuple[Analysis, ...]:
    """Fresh instances of the standard analysis suite, in run order."""
    return (
        StructureAnalysis(),
        LevelScaleAnalysis(),
        SlotPartitionAnalysis(),
        NoiseBudgetAnalysis(),
        KeyResidencyAnalysis(),
        LivenessAnalysis(),
        CostAnalysis(),
        HazardAnalysis(),
    )


def lint_program(program: Program,
                 config: AlchemistConfig = ALCHEMIST_DEFAULT,
                 analyses: Optional[Sequence[Analysis]] = None,
                 schedule: Optional[Sequence[object]] = None) -> LintReport:
    """Run the standard (or a custom) analysis suite over one program."""
    linter = Linter(analyses if analyses is not None else default_analyses(),
                    config=config)
    return linter.run(program, linter.context(program, schedule))


__all__ = [
    "ALCHEMIST_DEFAULT",
    "AbstractCt",
    "Analysis",
    "AnalysisContext",
    "CODES",
    "CostAnalysis",
    "Diagnostic",
    "HazardAnalysis",
    "KeyResidencyAnalysis",
    "KeyResidencyReport",
    "LevelScaleAnalysis",
    "LintReport",
    "Linter",
    "LivenessAnalysis",
    "NoiseBudgetAnalysis",
    "NoiseDomain",
    "NoiseState",
    "Severity",
    "SlotPartitionAnalysis",
    "StructureAnalysis",
    "analyze_keys",
    "code_meaning",
    "code_table_markdown",
    "default_analyses",
    "lint_program",
    "noise_domain",
    "required_keys",
    "schedule_diagnostics",
    "spill_fill_diagnostics",
    "value_bytes",
]
