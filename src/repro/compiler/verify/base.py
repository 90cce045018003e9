"""Analysis framework: Analysis protocol, Linter driver, LintReport.

An :class:`Analysis` inspects one :class:`~repro.compiler.ops.Program`
(never mutating it) and returns :class:`Diagnostic` records.  The
:class:`Linter` runs a list of analyses and merges their findings into a
deterministically ordered :class:`LintReport` — the same program always
produces the same report, so CI can diff lint output textually.
Facts several analyses read (graph, cost report) are computed once per
run on :class:`AnalysisContext`, and :func:`forward` is the one
abstract-interpretation loop the level/scale and noise analyses share.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, TypeVar)

from repro.compiler.cost.analyzer import CostReport, analyze_program
from repro.compiler.ops import HighLevelOp, OpKind, Program, ProgramGraph
from repro.compiler.verify.diagnostics import Diagnostic, Severity
from repro.hw.config import ALCHEMIST_DEFAULT, AlchemistConfig

S = TypeVar("S")


@dataclass
class AnalysisContext:
    """Shared read-only state for one lint run.

    A command that also needs the linted program's cost report reads it
    from :meth:`cost_of` of the context it linted with, so each
    (program, config) report is built once per command."""

    config: AlchemistConfig = ALCHEMIST_DEFAULT
    #: Optional schedule to audit (``(op_index, start, end)`` triples or
    #: objects with ``index``/``start``/``end``); program order when absent.
    schedule: Optional[Sequence[object]] = None
    #: The linted program's graph, shared by every analysis of the run.
    graph: Optional[ProgramGraph] = None

    _costs: Dict[AlchemistConfig, CostReport] = field(
        default_factory=dict, init=False, repr=False)

    def graph_of(self, program: Program) -> ProgramGraph:
        """The shared graph when it is ``program``'s, else a fresh one
        (analyses run directly, outside a :class:`Linter`)."""
        if self.graph is not None and self.graph.program is program:
            return self.graph
        return ProgramGraph(program)

    def cost_of(self, program: Program,
                config: Optional[AlchemistConfig] = None) -> CostReport:
        """:func:`analyze_program` of ``program`` on ``config`` (the run's
        config by default) over :meth:`graph_of`, computed at most once
        per config for the shared graph.  Raises ``ValueError`` on an
        ill-formed program (e.g. a shape the cost model rejects)."""
        config = self.config if config is None else config
        graph = self.graph_of(program)
        if graph is not self.graph:
            return analyze_program(program, config, graph)
        if config not in self._costs:
            self._costs[config] = analyze_program(program, config, graph)
        return self._costs[config]


def forward(graph: ProgramGraph,
            seed: Callable[[HighLevelOp], S],
            transfer: Callable[[HighLevelOp, List[S]], S],
            ) -> Iterator[Tuple[int, HighLevelOp, List[S], S]]:
    """Forward abstract interpretation over ``graph`` in dependency order.

    Yields ``(index, op, ins, out)`` per op: ``ins`` are the states of
    its operands in use order and ``out = transfer(op, ins)`` is the
    state bound to every value it defines.  An external input takes
    ``seed(op)`` of its first reader.  ``HBM_LOAD``/``HBM_STORE`` ops are
    skipped (streamed operands carry no ciphertext state), and a cyclic
    graph yields nothing (the structure analysis reports it, ``ALC001``).
    """
    try:
        order = graph.order
    except ValueError:
        return
    ops = graph.program.ops
    defined = graph.def_sites
    state: Dict[str, S] = {}
    for i in order:
        op = ops[i]
        if op.kind in (OpKind.HBM_LOAD, OpKind.HBM_STORE):
            continue
        for v in op.uses:
            if v not in state and v not in defined:
                state[v] = seed(op)
        ins = [state[v] for v in op.uses if v in state]
        out = transfer(op, ins)
        for v in op.defs:
            state[v] = out
        yield i, op, ins, out


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

    def context(self, program: Program,
                schedule: Optional[Sequence[object]] = None,
                ) -> AnalysisContext:
        """A fresh run context for ``program`` on the linter's config."""
        return AnalysisContext(config=self.config, schedule=schedule,
                               graph=ProgramGraph(program))

    def run(self, program: Program,
            ctx: Optional[AnalysisContext] = None) -> LintReport:
        """Lint ``program`` over ``ctx`` (:meth:`context` when absent);
        the caller keeps ``ctx`` to read the run's cost reports."""
        if ctx is None:
            ctx = self.context(program)
        found: List[Diagnostic] = []
        for analysis in self.analyses:
            for diag in analysis.run(program, ctx):
                found.append(replace(
                    diag, analysis=diag.analysis or analysis.name,
                    program=program.name))
        found.sort(key=Diagnostic.sort_key)
        return LintReport(program=program.name, diagnostics=found)
