"""Assert/ensures splitting — Verus's ``#[verifier::spinoff_prover]``-era
``assert ... by` splitting, or the ``--expand-errors`` conjunct drill-down.

A failed conjunctive goal ``A && B && C`` tells the user almost nothing;
re-querying each conjunct in isolation pinpoints exactly which clause
the solver cannot discharge.  Implications distribute over the split
(``P ==> (A && B)`` splits into ``P ==> A`` and ``P ==> B``) so guarded
postconditions split usefully too.
"""

from __future__ import annotations

from ..smt import terms as T
from ..smt.printer import term_to_str
from ..smt.solver import SolverConfig
from ..vc.errors import FAILED, PROVED, TIMEOUT

# Don't split into more pieces than a person will read.
MAX_CONJUNCTS = 16


def split_goal(goal: T.Term) -> list[T.Term]:
    """Flatten a goal into independently provable conjuncts.

    Returns ``[goal]`` unchanged when there is nothing to split.
    """
    out: list[T.Term] = []
    _split_into(goal, out)
    return out if len(out) > 1 else [goal]


def _split_into(goal: T.Term, out: list[T.Term]) -> None:
    if len(out) >= MAX_CONJUNCTS:
        out.append(goal)
        return
    if goal.kind == T.AND:
        for arg in goal.args:
            _split_into(arg, out)
        return
    if goal.kind == T.IMPLIES:
        hyp, concl = goal.args
        if concl.kind == T.AND:
            for arg in concl.args:
                _split_into(T.Implies(hyp, arg), out)
            return
    out.append(goal)


def solve_conjuncts(conjuncts: list, base: list, configs,
                    timeout=None):
    """Solve each conjunct on its own: ``base`` plus the negated
    conjunct, through :func:`repro.vc.discharge.solve`.  Yields one
    ``(status, stats, query_bytes, seconds)`` per conjunct."""
    from ..vc.discharge import solve
    for conj in conjuncts:
        yield solve(configs, base + [T.Not(conj)], timeout)


def check_conjuncts(goal: T.Term, assumptions: list, ctx_axioms: list,
                    config=None) -> list[dict]:
    """Re-query each conjunct of ``goal`` separately.

    Returns ``{"index", "text", "status"}`` rows, or ``[]`` when the
    goal is not conjunctive (nothing to report).  Each conjunct gets a
    fresh solver over the same context, asserting the *negated*
    conjunct: PROVED means that clause alone is provable, FAILED that
    the solver found a countermodel, TIMEOUT anything else.
    """
    conjuncts = split_goal(goal)
    if len(conjuncts) <= 1:
        return []
    base = list(ctx_axioms) + list(assumptions)
    outcomes = solve_conjuncts(conjuncts, base, [config or SolverConfig()])
    rows = []
    for i, (conj, (status, *_)) in enumerate(zip(conjuncts, outcomes)):
        text = term_to_str(conj)
        if len(text) > 160:
            text = text[:157] + "..."
        rows.append({"index": i, "text": text,
                     "status": status if status in (PROVED, FAILED)
                     else TIMEOUT})
    return rows
