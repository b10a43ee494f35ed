"""Pre-SMT static analysis: the checks Verus runs *before* the solver.

Verus front-loads soundness and performance into static discipline — the
mode checker enforces spec/proof/exec separation, spec functions must be
pure and total (§3.1), conservative trigger selection avoids matching
loops, and ``#[epr_mode]`` is a per-module static gate (§3.2).  Our
reproduction discovered all of these late, as confusing SMT failures or
hangs; this package reproduces them as a pass manager over
:class:`repro.vc.ast.Module` that runs with **zero solver work**.

Five passes ship (in execution order):

* :class:`~repro.analysis.modes.ModeCheckPass` (``modes``) — spec
  functions may only call spec functions; exec code cannot read ghost
  (proof) results into exec state; proof calls cannot mutate exec
  variables; asserts/invariants/requires/ensures must be spec-mode
  expressions.
* :class:`~repro.analysis.termination.TerminationPass` (``termination``)
  — SCCs of the call graph; a recursive spec/proof function without a
  ``decreases`` clause is an error (totality of pure spec functions is a
  soundness assumption of the §3.1 encoding).
* :class:`~repro.analysis.triggers.MatchingLoopPass` (``matching-loop``)
  — runs :func:`repro.smt.quant.select_triggers` over every quantified
  axiom/ensures, builds the trigger → instantiation-term growth graph,
  and errors on cycles (and warns on silent trigger-selection
  fallbacks).
* :class:`~repro.analysis.epr_advisor.EprAdvisorPass` (``epr``) — runs
  the §3.2 EPR well-formedness check: errors for ``epr_mode`` modules
  that step outside the fragment, and an advisory note for default-mode
  modules that *would* be accepted (delegation-map-style migration
  candidates).
* :class:`~repro.analysis.pruning.PruningAdvisorPass` (``pruning``) —
  reachability over spec-function dependencies per obligation; spec
  context no obligation ever pulls in is flagged (pruning always drops
  it).

Findings reuse the :mod:`repro.diag` render machinery for text and JSON
output.  The scheduler gate (``VerifyConfig.analyze`` /
``REPRO_ANALYZE`` / ``Scheduler(analyze=True)``) runs the analyzer
before planning and rejects the module on any error-severity finding —
before a single SMT query is issued.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ..vc import ast as A
from ..vc.ast import walk_expr, walk_stmts

# Finding severities.
ERROR = "error"
WARNING = "warning"
INFO = "info"

_SEVERITY_RANK = {ERROR: 0, WARNING: 1, INFO: 2}


class Finding:
    """One structured result of a static-analysis pass.

    Plain data throughout (the ``span`` is a :class:`repro.vc.ast.Span`
    or ``None``), so findings serialize through
    :func:`repro.diag.render.finding_to_json` without special cases.
    """

    __slots__ = ("pass_id", "severity", "where", "message", "span",
                 "suggestion")

    def __init__(self, pass_id: str, severity: str, where: str,
                 message: str, span=None, suggestion: str = ""):
        if severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {severity!r}")
        self.pass_id = pass_id
        self.severity = severity
        self.where = where          # "module.function" or the module name
        self.message = message
        self.span = span            # Optional[repro.vc.ast.Span]
        self.suggestion = suggestion

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def to_dict(self) -> dict:
        from ..diag.render import finding_to_json
        return finding_to_json(self)

    def __repr__(self) -> str:
        return (f"<Finding {self.severity} [{self.pass_id}] "
                f"{self.where}: {self.message!r}>")


class AnalysisReport:
    """All findings of one analyzer run over one module."""

    def __init__(self, module_name: str):
        self.module = module_name
        self.findings: list[Finding] = []
        self.passes: list[str] = []     # pass ids, in execution order
        self.seconds: float = 0.0

    def extend(self, findings: Sequence[Finding]) -> None:
        self.findings.extend(findings)

    def by_pass(self, pass_id: str) -> list[Finding]:
        return [f for f in self.findings if f.pass_id == pass_id]

    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == WARNING]

    @property
    def has_errors(self) -> bool:
        return any(f.severity == ERROR for f in self.findings)

    @property
    def ok(self) -> bool:
        return not self.has_errors

    def sorted_findings(self) -> list[Finding]:
        """Findings ordered by severity, then pass, then location."""
        return sorted(self.findings,
                      key=lambda f: (_SEVERITY_RANK[f.severity], f.pass_id,
                                     f.where, f.message))

    def report(self) -> str:
        """Human-readable rendering (repro.diag.render does the work)."""
        from ..diag.render import render_findings
        head = (f"analysis of {self.module}: "
                f"{len(self.errors())} error(s), "
                f"{len(self.warnings())} warning(s), "
                f"{len(self.findings)} finding(s) "
                f"from {len(self.passes)} pass(es)")
        body = render_findings(self.sorted_findings())
        return head + ("\n" + body if body else "")

    def to_json(self) -> dict:
        from ..diag.render import analysis_to_json
        return analysis_to_json(self)

    def __repr__(self) -> str:
        return (f"<AnalysisReport {self.module}: "
                f"{len(self.errors())} errors / {len(self.findings)} findings>")


# ---------------------------------------------------------------------------
# Shared AST helpers (the passes all walk the same structures)
# ---------------------------------------------------------------------------

def spec_exprs_of(fn: A.Function):
    """``(expr, what)`` pairs for every spec-mode position of a function:
    requires/ensures/decreases plus assert/assume/invariant/loop-decreases
    expressions inside the body."""
    for what, exprs in (("requires", fn.requires), ("ensures", fn.ensures)):
        for e in exprs:
            yield e, what
    if fn.decreases is not None:
        yield fn.decreases, "decreases"
    for stmt in walk_stmts(fn.body):
        if isinstance(stmt, A.SAssert):
            yield stmt.expr, "assert"
            for p in stmt.by_premises:
                yield p, "assert premise"
        elif isinstance(stmt, A.SAssume):
            yield stmt.expr, "assume"
        elif isinstance(stmt, A.SWhile):
            for inv in stmt.invariants:
                yield inv, "invariant"
            if stmt.decreases is not None:
                yield stmt.decreases, "loop decreases"


def called_names(fn: A.Function) -> set[str]:
    """Names of every function referenced from ``fn``'s body (spec-mode
    ``Call`` expressions and exec/proof ``SCall`` statements alike)."""
    names: set[str] = set()

    def scan(e: A.Expr) -> None:
        for sub in walk_expr(e):
            if isinstance(sub, A.Call):
                names.add(sub.fn_name)

    if isinstance(fn.body, A.Expr):
        scan(fn.body)
    for stmt in walk_stmts(fn.body):
        if isinstance(stmt, A.SCall):
            names.add(stmt.fn_name)
        for e in A.stmt_exprs(stmt):
            scan(e)
    return names


class AnalysisContext:
    """Shared state handed to every pass: the module, the effective
    :class:`~repro.vc.wp.VcConfig` (for the trigger policy), and a
    lazily built call graph over all visible functions."""

    def __init__(self, module: A.Module, vc_config=None):
        from ..vc.wp import VcConfig
        self.module = module
        self.vc_config = vc_config or VcConfig()
        self._call_graph: Optional[dict[str, set[str]]] = None

    @property
    def call_graph(self) -> dict[str, set[str]]:
        """name -> set of callee names, over ``module.all_functions()``."""
        if self._call_graph is None:
            fns = self.module.all_functions()
            self._call_graph = {
                name: {c for c in called_names(fn) if c in fns}
                for name, fn in fns.items()
            }
        return self._call_graph

    def qualify(self, fn_name: str) -> str:
        return f"{self.module.name}.{fn_name}"


class AnalysisPass:
    """Base class: one static check producing :class:`Finding`s."""

    id = "base"

    def run(self, ctx: AnalysisContext) -> list[Finding]:
        raise NotImplementedError


def default_passes() -> list[AnalysisPass]:
    """Fresh instances of the five shipped passes, in execution order."""
    from .epr_advisor import EprAdvisorPass
    from .modes import ModeCheckPass
    from .pruning import PruningAdvisorPass
    from .termination import TerminationPass
    from .triggers import MatchingLoopPass
    return [ModeCheckPass(), TerminationPass(), MatchingLoopPass(),
            EprAdvisorPass(), PruningAdvisorPass()]


def analyze_module(module: A.Module, vc_config=None,
                   passes: Optional[Sequence[AnalysisPass]] = None
                   ) -> AnalysisReport:
    """Run the static-analysis pipeline over one module.

    Pure AST/term work — no :class:`~repro.smt.solver.SmtSolver` is ever
    constructed, so a module rejected here costs zero query bytes.
    """
    t0 = time.perf_counter()
    ctx = AnalysisContext(module, vc_config)
    report = AnalysisReport(module.name)
    seen: set[tuple] = set()
    for p in (passes if passes is not None else default_passes()):
        report.passes.append(p.id)
        for f in p.run(ctx):
            # Identical findings (e.g. several quantifiers in the same
            # requires all falling back the same way) add no signal.
            key = (f.pass_id, f.severity, f.where, f.message)
            if key not in seen:
                seen.add(key)
                report.findings.append(f)
    report.seconds = time.perf_counter() - t0
    return report


__all__ = [
    "ERROR", "WARNING", "INFO",
    "Finding", "AnalysisReport", "AnalysisPass", "AnalysisContext",
    "analyze_module", "default_passes",
    "walk_stmts", "walk_expr", "spec_exprs_of", "called_names",
]
