"""Diagnostics engine: structured errors, counterexamples, splitting,
and the quantifier-instantiation profiler.

Verus's practical advantage over push-button verifiers is as much about
*failure feedback* as about proof speed: every failure is a member of a
small structured taxonomy, comes with a source span, can be drilled into
conjunct-by-conjunct, and slow proofs expose their quantifier storms
through a profiler.  This package reproduces that loop on top of our
DPLL(T) solver:

* :mod:`.taxonomy` — the VerusErrorType classification + the
  :class:`~repro.diag.taxonomy.Diagnostic` payload,
* :mod:`.model`    — counterexample witnesses from the SAT/EUF/LIA model,
* :mod:`.split`    — assert/ensures splitting (per-conjunct re-query),
* :mod:`.profile`  — per-quantifier/per-trigger instantiation top-k,
* :mod:`.render`   — human text + machine JSON renderings.

Diagnosis runs *post hoc* in the parent process: the scheduler re-solves
each FAILED obligation with a fresh solver over the same assertions, so
the diagnostic output is identical under serial, parallel, and
cache-warm runs by construction (the solver is deterministic).
"""

from __future__ import annotations

from typing import Optional

from ..smt import terms as T
from ..smt.solver import SAT, UNSAT, SolverConfig
from ..vc.discharge import build_solver
from .model import extract_witness
from .profile import (module_perf_summary, module_profile,
                      perf_summary, top_instantiations)
from .render import module_to_json, render_diagnostic
from .split import check_conjuncts, split_goal
from .taxonomy import Diagnostic, VerusErrorType, classify

__all__ = [
    "Diagnostic", "VerusErrorType", "classify", "diagnose_obligation",
    "extract_witness", "split_goal", "check_conjuncts",
    "top_instantiations", "module_profile",
    "perf_summary", "module_perf_summary",
    "render_diagnostic", "module_to_json",
]


def diagnose_obligation(obligation, goal: Optional[T.Term],
                        assumptions: list, ctx_axioms: list,
                        config: Optional[SolverConfig] = None, *,
                        witness: bool = True, split: bool = True,
                        profile: bool = True, top_k: int = 5) -> Diagnostic:
    """Produce the full Diagnostic for one failed obligation.

    ``goal``/``assumptions``/``ctx_axioms`` are the obligation's VC as
    planned by the scheduler; ``goal is None`` marks obligations proved
    by §3.3 idiom engines (no SMT goal term exists), which get a
    taxonomy-only diagnostic.
    """
    diag = Diagnostic.for_obligation(obligation)
    if goal is None:
        diag.notes.append("no SMT goal term (idiom-engine obligation); "
                          "taxonomy-only diagnostic")
        return diag

    fn_name = obligation.label.split(":", 1)[0].strip() or None
    solver = build_solver(config or SolverConfig(), list(ctx_axioms)
                          + list(assumptions) + [T.Not(goal)])
    res = solver.check()
    if res == UNSAT:
        # Should not happen (the scheduler only diagnoses failures) but
        # report honestly rather than fabricating a counterexample.
        diag.notes.append("re-solve proved this obligation; stale verdict?")
        return diag

    if witness and solver.last_model is not None:
        diag.witness = extract_witness(solver, goal, fn_name)
        if res != SAT and diag.witness:
            diag.notes.append(
                "witness is a candidate model: the solver answered "
                "unknown (quantifier saturation or budget), not a "
                "definite refutation")
    if split:
        diag.conjuncts = check_conjuncts(goal, assumptions, ctx_axioms,
                                         config)
        if (diag.conjuncts
                and diag.error_type == VerusErrorType.ASSERT_FAIL.value):
            diag.error_type = VerusErrorType.SPLIT_ASSERT_FAIL.value
    if profile:
        diag.qi_profile = top_instantiations(solver.stats.inst_profile,
                                             top_k)
    return diag
