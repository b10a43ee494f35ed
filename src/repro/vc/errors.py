"""Verification results and error reporting.

Figure 8 of the paper measures how fast tools localize *failures*; the
per-obligation result objects here carry the label, status, timing, and
— since the diagnostics engine (:mod:`repro.diag`) landed — the source
span, taxonomy class, and full diagnostic payload (counterexample
witness, split conjuncts, quantifier-instantiation profile) that the
error-feedback benchmark reports.
"""

from __future__ import annotations

from typing import Optional

PROVED = "proved"
FAILED = "failed"
TIMEOUT = "unknown"
# Structured budget-exhaustion verdict (matching loop, LIA blowup, or an
# explicit REPRO_MAX_STEPS budget): distinct from TIMEOUT because it is
# machine-independent and from FAILED because no countermodel exists.
# Never cached — a retry may well succeed.
RESOURCE_OUT = "resource-out"


def status_from_solver(verdict: str, solver) -> str:
    """Map a solver verdict (+ the solver's budget/deadline flags) to an
    obligation status.  The wall-clock deadline outranks resource
    budgets: a deadline verdict is machine-dependent and the callers
    that care (the cache) already treat TIMEOUT specially."""
    if verdict == "unsat":
        return PROVED
    if verdict == "sat":
        return FAILED
    if (getattr(solver, "last_resource_out", False)
            and not getattr(solver, "last_deadline_exceeded", False)):
        return RESOURCE_OUT
    return TIMEOUT


class Obligation:
    """One proof obligation with its provenance.

    ``seq`` is the emission index inside the owning function (assigned at
    planning time), so failure ordering is a property of the *program*,
    not of which worker finished first.  ``span`` is the build-site
    provenance captured by the lang helpers; ``diag`` carries the
    :class:`repro.diag.taxonomy.Diagnostic` when diagnostics ran.

    ``answered_by`` names the layer whose verdict this run adopted:
    ``static`` (absint triage, no solver built), ``idiom`` (a §3.3
    engine decided it during planning), ``solver``, ``cache`` (any
    verdict replayed from the proof cache), ``race`` (a portfolio
    candidate won), ``ladder`` (a retry rung's verdict) or ``delta``
    (the whole function replayed from the delta cache).
    """

    def __init__(self, label: str, kind: str):
        self.label = label          # e.g. "pop: ensures#0", "push: overflow +"
        self.kind = kind            # requires/ensures/assert/overflow/...
        self.status: str = "pending"
        self.seconds: float = 0.0
        self.stats: dict = {}
        self.seq: int = 0           # emission order within the function
        self.span = None            # Optional[repro.vc.ast.Span]
        self.diag = None            # Optional[repro.diag.taxonomy.Diagnostic]
        self.answered_by: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == PROVED

    @property
    def error_type(self) -> str:
        """Taxonomy class of this obligation's failure (VerusErrorType).

        Prefers the attached diagnostic's class when one ran — splitting
        can upgrade AssertFail to SplitAssertFail.
        """
        if self.diag is not None:
            return self.diag.error_type
        from ..diag.taxonomy import classify
        return classify(self.kind, self.label, self.status).value

    def __repr__(self) -> str:
        return f"<Obligation {self.label}: {self.status}>"


class FunctionResult:
    """All obligations of one function."""

    def __init__(self, name: str):
        self.name = name
        self.obligations: list[Obligation] = []
        self.seconds: float = 0.0
        self.query_bytes: int = 0

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.obligations)

    def failures(self) -> list[Obligation]:
        """Failed obligations in emission order (identical between serial,
        parallel, and cache-warm runs)."""
        return sorted((o for o in self.obligations if not o.ok),
                      key=lambda o: o.seq)

    def __repr__(self) -> str:
        status = "ok" if self.ok else "FAILED"
        return (f"<FunctionResult {self.name}: {status}, "
                f"{len(self.obligations)} obligations>")


class ModuleResult:
    """Verification outcome of a whole module."""

    def __init__(self, name: str):
        self.name = name
        self.functions: list[FunctionResult] = []
        self.seconds: float = 0.0
        # Scheduler stats snapshot (cache hits/misses, obligation
        # wall-clock, instantiation profile, ...) — empty when verified
        # without a scheduler.
        self.stats: dict = {}
        # Static-analysis gate (repro.analysis): the AnalysisReport when
        # the scheduler ran the analyzer, and whether error findings
        # rejected the module before any solver work.
        self.analysis = None        # Optional[repro.analysis.AnalysisReport]
        self.rejected: bool = False

    @property
    def ok(self) -> bool:
        return not self.rejected and all(f.ok for f in self.functions)

    @property
    def query_bytes(self) -> int:
        return sum(f.query_bytes for f in self.functions)

    def failures(self) -> list[tuple[str, Obligation]]:
        """(function, obligation) pairs in module/emission order."""
        return [(f.name, o) for f in self.functions for o in f.failures()]

    def first_failure(self) -> Optional[tuple[str, Obligation]]:
        fails = self.failures()
        return fails[0] if fails else None

    def report(self, diagnostics: bool = True) -> str:
        """Human-readable report; rich failure sections when available.

        ``diagnostics=False`` restores the bare one-line-per-failure
        output regardless of attached payloads.
        """
        status = ("REJECTED by static analysis" if self.rejected
                  else "VERIFIED" if self.ok else "FAILED")
        lines = [f"module {self.name}: {status} "
                 f"in {self.seconds:.2f}s ({self.query_bytes} query bytes)"]
        if self.analysis is not None and self.analysis.findings:
            lines.extend("  " + al
                         for al in self.analysis.report().splitlines())
        hits = self.stats.get("cache_hits", 0)
        misses = self.stats.get("cache_misses", 0)
        if hits or misses:
            rate = hits / (hits + misses)
            lines.append(f"  proof cache: {hits} hits / {misses} misses "
                         f"({rate:.0%} hit rate)")
        static = self.stats.get("static_proved", 0)
        if static:
            lines.append(f"  static tier: {static} obligation(s) discharged "
                         f"by abstract interpretation (no solver built)")
        for f in self.functions:
            mark = "✓" if f.ok else "✗"
            lines.append(f"  {mark} {f.name} "
                         f"({len(f.obligations)} obligations, {f.seconds:.2f}s)")
            for o in f.failures():
                loc = f" @ {o.span}" if o.span is not None else ""
                lines.append(f"      FAILED: {o.label} "
                             f"[{o.error_type}]{loc}")
                if diagnostics and o.diag is not None:
                    from ..diag.render import render_diagnostic
                    lines.extend(
                        "        " + dl for dl in
                        render_diagnostic(o.diag).splitlines())
        return "\n".join(lines)

    def to_json(self) -> dict:
        """Machine-readable rendering (repro.diag.render does the work)."""
        from ..diag.render import module_to_json
        return module_to_json(self)


class VerificationFailure(Exception):
    """Raised by check()-style helpers when a module fails to verify."""

    def __init__(self, result: ModuleResult):
        super().__init__(result.report())
        self.result = result
