"""Quantifier instantiation: trigger selection and E-matching.

Two trigger-selection policies model the design axis §3.1 of the paper
identifies as decisive for large-project verification performance:

* ``CONSERVATIVE`` (Verus): as few triggers as possible — the smallest
  uninterpreted subterms that jointly cover the bound variables.  Fewer
  instantiations, better scalability, occasionally requires the developer
  to supply a trigger explicitly.
* ``BROAD`` (Dafny-like): every maximal uninterpreted subterm mentioning a
  bound variable becomes a trigger.  More proofs complete "by luck", but
  instantiation counts — and solver time — blow up on big contexts.

E-matching searches the congruence closure's e-graph for substitutions that
make a pattern equal (modulo congruence) to an existing term.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from . import terms as T
from .euf import EufSolver

CONSERVATIVE = "conservative"
BROAD = "broad"

# Fallback kinds reported through ``select_triggers(on_fallback=...)``.
FALLBACK_BROAD_TO_CONSERVATIVE = "broad_to_conservative"
FALLBACK_MULTI_PATTERN = "multi_pattern_group"


class TriggerError(Exception):
    """No usable trigger could be inferred for a quantifier."""


def _is_pattern_candidate(t: T.Term, bound: frozenset) -> bool:
    """A pattern must be an uninterpreted application mentioning a bound var.

    Interpreted operators (arithmetic, boolean) are not matchable — the same
    restriction real solvers impose.
    """
    return (t.kind == T.APP and bool(t.free_vars() & bound)
            and not _contains_interpreted_root(t))


def _contains_interpreted_root(t: T.Term) -> bool:
    # Patterns may contain interpreted subterms only below uninterpreted
    # function applications; we only exclude interpreted ops at the ROOT.
    return t.kind != T.APP


def select_triggers(quant: T.Term, policy: str = CONSERVATIVE,
                    on_fallback: Optional[Callable[[str], None]] = None
                    ) -> tuple[tuple[T.Term, ...], ...]:
    """Choose trigger groups for a FORALL; explicit triggers win.

    ``on_fallback`` is invoked (with a fallback-kind string) whenever the
    selection silently degrades: the BROAD policy found no covering group
    and fell through to conservative selection
    (``FALLBACK_BROAD_TO_CONSERVATIVE``), or no single pattern covers all
    bound variables and a brittle multi-pattern group had to be built
    (``FALLBACK_MULTI_PATTERN``).  The solver counts these in
    ``Stats.trigger_fallbacks`` so the QI profiler and the static
    matching-loop lint can surface them instead of losing them.
    """
    if quant.triggers:
        return quant.triggers
    bound = frozenset(quant.bound_vars)
    body = quant.body
    candidates: list[T.Term] = []
    seen = set()
    for sub in body.subterms():
        if sub in seen:
            continue
        seen.add(sub)
        if _is_pattern_candidate(sub, bound):
            candidates.append(sub)
    if not candidates:
        raise TriggerError(
            f"no trigger found for quantifier over "
            f"{[v.payload for v in quant.bound_vars]}")

    if policy == BROAD:
        # Dafny-style: every maximal candidate is its own (partial) trigger;
        # combine greedily with others to cover all bound vars.
        maximal = [c for c in candidates
                   if not any(c is not d and c in set(d.subterms())
                              for d in candidates)]
        groups = []
        for c in maximal:
            covered = c.free_vars() & bound
            group = [c]
            for d in candidates:
                if covered >= bound:
                    break
                extra = d.free_vars() & bound
                if extra - covered:
                    group.append(d)
                    covered |= extra
            if covered >= bound:
                groups.append(tuple(group))
        if groups:
            return tuple(groups)
        # fall through to conservative if nothing covers
        if on_fallback is not None:
            on_fallback(FALLBACK_BROAD_TO_CONSERVATIVE)

    # Conservative: each *minimal* pattern covering all bound vars becomes
    # its own alternative trigger (one would be too brittle — it may have
    # no ground seeds); otherwise build one minimal multi-pattern group.
    full = [c for c in candidates if (c.free_vars() & bound) >= bound]
    if full:
        full_set = set(full)
        minimal = [c for c in full
                   if not any(d is not c and d in set(c.subterms())
                              for d in full_set)]
        return tuple((c,) for c in (minimal or full))
    if on_fallback is not None:
        on_fallback(FALLBACK_MULTI_PATTERN)
    candidates.sort(key=lambda c: c.size())
    group: list[T.Term] = []
    covered: frozenset = frozenset()
    for c in candidates:
        extra = c.free_vars() & bound
        if extra - covered:
            group.append(c)
            covered |= extra
        if covered >= bound:
            return (tuple(group),)
    raise TriggerError(
        f"bound variables {sorted(v.payload for v in bound - covered)} "
        f"not covered by any pattern")


class EMatcher:
    """Match trigger patterns against an e-graph to produce substitutions.

    Two operating modes:

    * **naive** (``incremental=False``): every :meth:`match_group` call
      rebuilds the apps-by-decl index from a full e-graph scan and matches
      every candidate — the reference behavior.
    * **incremental** (default): candidates come from the e-graph's
      persistent :meth:`~repro.smt.euf.EufSolver.apps_of` index (no scan),
      and a per-group watermark — ``(merge count, apps count per pattern
      decl)`` — lets a repeat call skip work: if nothing changed the group
      is skipped outright; if only new apps arrived (no merges) a
      single-pattern group matches just the candidates past the watermark.
      With no intervening merges old candidates reproduce byte-identical
      substitutions (class memberships are unchanged, new terms sit in
      singleton classes), so the delta scan yields the same instantiation
      set the naive mode would.

    ``index_hits`` counts match calls served by the persistent index;
    ``rescans_avoided`` counts calls answered from the watermark without
    touching any candidate.
    """

    __slots__ = ("euf", "incremental", "_apps_by_decl", "_bound",
                 "_group_state", "index_hits", "rescans_avoided")

    def __init__(self, euf: EufSolver, incremental: bool = True):
        self.euf = euf
        self.incremental = incremental
        self._apps_by_decl: Optional[dict] = None
        self._bound: frozenset = frozenset()
        # (group, bound) -> (num_merges, apps-count-per-pattern) watermark.
        self._group_state: dict[tuple, tuple] = {}
        self.index_hits = 0
        self.rescans_avoided = 0

    def _index(self) -> dict:
        apps: dict[T.FuncDecl, list[T.Term]] = {}
        for t in self.euf.all_terms():
            if t.kind == T.APP:
                apps.setdefault(t.payload, []).append(t)
        return apps

    def match_group(self, group: Iterable[T.Term], bound: tuple,
                    state_key=None) -> list[dict[T.Term, T.Term]]:
        """All substitutions matching every pattern in the group.

        In incremental mode, repeat calls may return only the substitutions
        new since the previous call (old ones are exact duplicates the
        solver's instance dedup would discard anyway).  ``state_key``
        namespaces the watermark — callers matching the same group on
        behalf of different consumers (e.g. two quantifiers sharing a
        trigger) must pass distinct keys so each gets the full result.
        """
        group = tuple(group)
        if not self.incremental:
            self._apps_by_decl = self._index()
            return self._match_all(group, bound)
        self._apps_by_decl = self.euf._apps_by_decl
        key = (state_key, group, bound)
        merges = self.euf.num_merges
        counts = tuple(len(self._apps_by_decl.get(p.payload, ()))
                       for p in group)
        state = self._group_state.get(key)
        self._group_state[key] = (merges, counts)
        if state is not None and state[0] == merges:
            # No merges since the last scan: old candidates reproduce the
            # exact substitutions they produced before.
            if state[1] == counts:
                self.rescans_avoided += 1
                return []
            if len(group) == 1:
                self.index_hits += 1
                return self._match_delta(group, bound, state[1][0])
            # Multi-pattern groups may pair an old candidate of one pattern
            # with a new candidate of another: full rescan.
        self.index_hits += 1
        return self._match_all(group, bound)

    def _match_all(self, group: tuple, bound: tuple) -> list[dict]:
        subs: list[dict[T.Term, T.Term]] = [{}]
        self._bound = frozenset(bound)
        for pattern in group:
            new_subs: list[dict] = []
            for sub in subs:
                new_subs.extend(self._match_pattern(pattern, sub))
            subs = new_subs
            if not subs:
                return []
        return self._complete(subs, bound)

    def _match_delta(self, group: tuple, bound: tuple, watermark: int
                     ) -> list[dict]:
        """Match a single-pattern group against candidates past the
        watermark only."""
        pattern = group[0]
        self._bound = frozenset(bound)
        subs: list[dict] = []
        candidates = self._apps_by_decl.get(pattern.payload, ())
        for candidate in self._per_class(candidates[watermark:]):
            subs.extend(self._match(pattern, candidate, {}))
        return self._complete(subs, bound) if subs else []

    def _complete(self, subs: list, bound: tuple) -> list[dict]:
        # _match/_match_args bind only members of self._bound, so a
        # substitution is complete exactly when it binds all of them.
        n = len(self._bound)
        complete = []
        seen_keys = set()
        for s in subs:
            if len(s) == n:
                key = tuple(self.euf.find(s[v]) for v in bound)
                if key not in seen_keys:
                    seen_keys.add(key)
                    complete.append(s)
        return complete

    def _per_class(self, candidates) -> Iterable[T.Term]:
        """The first candidate of each congruence class, in order.

        A pattern root is an application, so :meth:`_match` reads only
        the candidate's class: a later candidate of the same class would
        repeat its substitutions, which :meth:`_complete` drops.
        """
        find = self.euf.find
        visited = set()
        for candidate in candidates:
            root = find(candidate)
            if root not in visited:
                visited.add(root)
                yield candidate

    def _match_pattern(self, pattern: T.Term, sub: dict) -> list[dict]:
        out = []
        for candidate in self._per_class(
                self._apps_by_decl.get(pattern.payload, ())):
            # _match/_match_args copy-on-bind, so sharing `sub` is safe —
            # no defensive copy on branches that add no binding.
            out.extend(self._match(pattern, candidate, sub))
        return out

    def _match(self, pattern: T.Term, term: T.Term, sub: dict) -> list[dict]:
        """Match a pattern against a concrete term modulo congruence."""
        if pattern.kind == T.VAR and pattern in self._bound:
            if pattern in sub:
                return [sub] if self.euf.are_equal(sub[pattern], term) else []
            sub = dict(sub)
            sub[pattern] = term
            return [sub]
        if not pattern.args:
            return [sub] if self.euf.are_equal(pattern, term) else []
        if pattern.kind != T.APP:
            # Interpreted operator inside a pattern: require syntactic kind
            # match on some class member.
            results = []
            for member in self.euf.class_of(term):
                if member.kind == pattern.kind and len(member.args) == len(pattern.args):
                    results.extend(self._match_args(pattern.args, member.args, sub))
            return results
        results = []
        for member in self.euf.class_of(term):
            if member.kind == T.APP and member.payload is pattern.payload:
                results.extend(self._match_args(pattern.args, member.args, sub))
        return results

    def _match_args(self, pargs, targs, sub) -> list[dict]:
        subs = [sub]
        for p, a in zip(pargs, targs):
            next_subs = []
            for s in subs:
                if p.kind == T.VAR and p in self._bound:
                    bound_val = s.get(p)
                    if bound_val is None:
                        s2 = dict(s)
                        s2[p] = a
                        next_subs.append(s2)
                    elif self.euf.are_equal(bound_val, a):
                        next_subs.append(s)
                elif p.args and p.kind == T.APP:
                    for member in self.euf.class_of(a):
                        if member.kind == T.APP and member.payload is p.payload:
                            next_subs.extend(self._match_args(p.args, member.args, s))
                elif p.args:
                    for member in self.euf.class_of(a):
                        if member.kind == p.kind and len(member.args) == len(p.args):
                            next_subs.extend(self._match_args(p.args, member.args, s))
                else:
                    if self.euf.are_equal(p, a):
                        next_subs.append(s)
            subs = next_subs
            if not subs:
                break
        return subs
