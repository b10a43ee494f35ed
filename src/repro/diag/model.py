"""Counterexample extraction.

When an obligation FAILS, the solver's last theory model is a concrete
execution the proof does not rule out: the SAT assignment fixes the
boolean skeleton, EUF supplies congruence-class representatives for
uninterpreted values, and the LIA simplex model supplies integers.  This
module turns that model into a readable *witness* — an assignment to
the variables the failing goal actually mentions — the analogue of
Verus's ``--expand-errors`` counterexamples.
"""

from __future__ import annotations

from typing import Optional

from ..smt import terms as T
from ..smt.printer import term_to_str
from ..smt.sorts import BOOL, INT


def pretty_name(name: str, fn_name: Optional[str] = None) -> str:
    """Human form of a VC-level variable name.

    The VC generator manufactures names like ``pop!n`` (parameter),
    ``havoc!i!3`` (loop-havoced local), ``push!ret!7`` (call result);
    strip the plumbing so the witness reads like source code.
    """
    parts = name.split("!")
    # Drop a trailing freshness counter ("havoc!i!3" -> havoc!i).
    if len(parts) > 1 and parts[-1].isdigit():
        parts = parts[:-1]
    if parts[0] == "havoc" and len(parts) > 1:
        parts = parts[1:]
    elif fn_name is not None and parts[0] == fn_name and len(parts) > 1:
        parts = parts[1:]
    return ".".join(parts) if len(parts) > 1 else parts[0]


def witness_terms(goal: T.Term, limit: int = 24) -> list[T.Term]:
    """The terms worth reporting for a goal: its free variables plus its
    small ground applications (e.g. ``len(s)``, ``sel(m, k)``)."""
    seen: set[T.Term] = set()
    out: list[T.Term] = []
    # ``_hash`` breaks ties (same name, other sort): set order must not.
    for v in sorted(goal.free_vars(), key=lambda t: (t.payload, t._hash)):
        if v not in seen:
            seen.add(v)
            out.append(v)
    apps = [t for t in goal.subterms()
            if t.kind == T.APP and t.sort in (INT, BOOL)
            and not t.free_vars() - goal.free_vars() and t.size() <= 8]
    for t in sorted(apps, key=lambda t: (t.size(), term_to_str(t), t._hash)):
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out[:limit]


def extract_witness(solver, goal: T.Term,
                    fn_name: Optional[str] = None,
                    limit: int = 24) -> list[dict]:
    """Read the witness assignment off ``solver``'s last model.

    Returns sorted ``{"name", "value", "term"}`` dicts — plain data so
    the witness survives caching/pickling.  Terms the model says nothing
    about are omitted; an empty list means the solver exposed no model
    (e.g. the goal failed during forced-prefix reasoning with no values
    recorded for these terms).
    """
    if solver.last_model is None:
        return []
    rows = []
    for t in witness_terms(goal, limit):
        value = solver.model_repr(t)
        if value is None:
            continue
        if t.kind == T.VAR:
            name = pretty_name(t.payload, fn_name)
        else:
            name = term_to_str(t)
        rows.append({"name": name, "value": value, "term": term_to_str(t)})
    rows.sort(key=lambda r: (r["name"], r["term"]))
    return rows
