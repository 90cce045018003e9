"""Analysis framework: Analysis protocol, Linter driver, LintReport.

An :class:`Analysis` inspects one :class:`~repro.compiler.ops.Program`
(never mutating it) and returns :class:`Diagnostic` records.  The
:class:`Linter` runs a list of analyses and merges their findings into a
deterministically ordered :class:`LintReport` — the same program always
produces the same report, so CI can diff lint output textually.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

from repro.compiler.ops import Program, ProgramGraph
from repro.compiler.verify.diagnostics import Diagnostic, Severity
from repro.hw.config import ALCHEMIST_DEFAULT, AlchemistConfig


@dataclass
class AnalysisContext:
    """Shared read-only state for one lint run."""

    config: AlchemistConfig = ALCHEMIST_DEFAULT
    #: Optional schedule to audit (``(op_index, start, end)`` triples or
    #: objects with ``index``/``start``/``end``); program order when absent.
    schedule: Optional[Sequence[object]] = None
    #: The linted program's graph, shared by every analysis of the run.
    graph: Optional[ProgramGraph] = None

    def graph_of(self, program: Program) -> ProgramGraph:
        """The shared graph when it is ``program``'s, else a fresh one
        (analyses run directly, outside a :class:`Linter`)."""
        if self.graph is not None and self.graph.program is program:
            return self.graph
        return ProgramGraph(program)


class Analysis:
    """Base class: subclasses set ``name`` and implement :meth:`run`."""

    name = "analysis"

    def run(self, program: Program, ctx: AnalysisContext) -> List[Diagnostic]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__}:{self.name}>"


@dataclass
class LintReport:
    """All diagnostics for one program, sorted deterministically."""

    program: str
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.WARNING]

    @property
    def notes(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.NOTE]

    @property
    def ok(self) -> bool:
        """True when the program carries no error-severity diagnostics."""
        return not self.errors

    def codes(self) -> List[str]:
        return [d.code for d in self.diagnostics]

    def format(self, show_notes: bool = False) -> str:
        shown = [d for d in self.diagnostics
                 if show_notes or d.severity > Severity.NOTE]
        if not shown:
            return f"{self.program}: clean (0 diagnostics)"
        lines = [f"{self.program}: {len(shown)} diagnostic(s)"]
        lines.extend("  " + d.format() for d in shown)
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "program": self.program,
            "ok": self.ok,
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }


class Linter:
    """Runs a fixed analysis list over programs."""

    def __init__(self, analyses: Sequence[Analysis],
                 config: AlchemistConfig = ALCHEMIST_DEFAULT):
        self.analyses = list(analyses)
        self.config = config

    def run(self, program: Program,
            schedule: Optional[Sequence[object]] = None) -> LintReport:
        ctx = AnalysisContext(config=self.config, schedule=schedule,
                              graph=ProgramGraph(program))
        found: List[Diagnostic] = []
        for analysis in self.analyses:
            for diag in analysis.run(program, ctx):
                found.append(replace(
                    diag, analysis=diag.analysis or analysis.name,
                    program=program.name))
        found.sort(key=Diagnostic.sort_key)
        return LintReport(program=program.name, diagnostics=found)
