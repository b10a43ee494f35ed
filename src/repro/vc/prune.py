"""Per-obligation context pruning (§3.1 query economy).

The per-function pass (:meth:`repro.vc.wp.VcGen.reachable_spec_fns`) ships
each *function* with the definitional axioms its specs and body reach.  This
module sharpens that to the *obligation*: an overflow side condition deep in
a function body rarely mentions every spec function the ensures clauses do.

The soundness argument mirrors the E-matching discipline.  A definitional
axiom's only trigger is the defining application ``f(xs)`` itself, so the
axiom can fire only when an application of ``f`` exists in the e-graph.
Applications enter the e-graph from the goal, the path assumptions, or the
bodies of *other* instantiated axioms — exactly the transitive closure
computed here.  An axiom outside that closure can never contribute an
instance, so dropping it preserves the verdict while shrinking both the
query text and the E-matching universe together.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..smt import terms as T
from ..smt.printer import query_size_bytes


def axiom_decl(ax: T.Term) -> Optional[T.FuncDecl]:
    """A function symbol the axiom cannot fire without, or ``None``.

    Recognized shape: a top-level FORALL with exactly *one* trigger group
    whose first pattern is an application — true of every definitional
    axiom (``forall xs :pattern (f xs). f(xs) == body``) and of the
    encoder's seq/map/datatype axioms.  The root symbol of that pattern
    must have an application in the e-graph before the group can match,
    so it is a sound necessary condition.  Axioms with *alternative*
    trigger groups or no explicit trigger can fire other ways and are
    never pruned.
    """
    if ax.kind == T.FORALL and ax.triggers and len(ax.triggers) == 1:
        group = ax.triggers[0]
        if group and group[0].kind == T.APP:
            return group[0].payload
    return None


def _decls_into(term: T.Term, out: set) -> None:
    for sub in term.subterms():
        if sub.kind == T.APP:
            out.add(sub.payload)


def prune_axioms(axioms: Sequence[T.Term],
                      goal: Optional[T.Term],
                      assumptions: Sequence[T.Term]
                      ) -> tuple[list, list]:
    """Split a context-axiom list into (kept, dropped) for one obligation.

    Seeds are the function symbols of the goal and path assumptions (plus
    any unrecognized axiom, which is always kept); the closure walks
    through the bodies of kept axioms, since the definition of ``f`` may
    mention ``g``.  A dropped axiom's necessary symbol then occurs nowhere
    the obligation can reach, leaving it a fresh unconstrained symbol —
    dropping its axioms is a conservative extension, so the verdict is
    preserved even under MBQI.  ``kept`` preserves the input order.
    """
    by_decl: dict[T.FuncDecl, list] = {}
    for ax in axioms:
        decl = axiom_decl(ax)
        if decl is not None:
            by_decl.setdefault(decl, []).append(ax)
    if not by_decl:
        return list(axioms), []
    used: set = set()
    if goal is not None:
        _decls_into(goal, used)
    for a in assumptions:
        _decls_into(a, used)
    for ax in axioms:
        if axiom_decl(ax) is None:
            _decls_into(ax, used)
    work = [d for d in used if d in by_decl]
    reached = set(work)
    while work:
        for ax in by_decl[work.pop()]:
            more: set = set()
            _decls_into(ax, more)
            for d in more:
                if d in by_decl and d not in reached:
                    reached.add(d)
                    work.append(d)
    kept: list = []
    dropped: list = []
    for ax in axioms:
        decl = axiom_decl(ax)
        (kept if decl is None or decl in reached else dropped).append(ax)
    return kept, dropped


def bytes_saved(dropped: Sequence[T.Term]) -> int:
    """Query bytes the dropped axioms would have contributed, using the
    same per-assertion accounting as :meth:`SmtSolver.add`."""
    return sum(query_size_bytes([ax]) for ax in dropped)
