"""A CDCL SAT solver.

Implements the standard modern architecture: two-watched-literal propagation,
first-UIP conflict analysis with clause learning, VSIDS-style activity
decision heuristic with phase saving, Luby restarts, and learned-clause
garbage collection.

Literal encoding: variable ``v`` (0-based int) has positive literal ``2*v``
and negative literal ``2*v + 1``; ``lit ^ 1`` negates.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional


def lit(var: int, positive: bool = True) -> int:
    """Build a literal from a variable index and a polarity."""
    return var * 2 + (0 if positive else 1)


def lit_var(l: int) -> int:
    return l >> 1


def lit_sign(l: int) -> bool:
    """True if the literal is positive."""
    return (l & 1) == 0


def neg(l: int) -> int:
    return l ^ 1


class _Clause:
    __slots__ = ("lits", "learned", "activity")

    def __init__(self, lits: list[int], learned: bool):
        self.lits = lits
        self.learned = learned
        self.activity = 0.0


def _luby(i: int) -> int:
    """The Luby restart sequence (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


class SatSolver:
    """CDCL SAT solver over clauses of int literals."""

    def __init__(self):
        self._clauses: list[_Clause] = []
        self._learned: list[_Clause] = []
        self._watches: list[list[_Clause]] = []   # indexed by literal
        self._assign: list[int] = []              # -1 unassigned, 0 false, 1 true
        self._level: list[int] = []
        self._reason: list[Optional[_Clause]] = []
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._activity: list[float] = []
        self._phase: list[bool] = []
        self._var_inc = 1.0
        self._cla_inc = 1.0
        self.num_conflicts = 0
        self.num_decisions = 0
        self.num_propagations = 0
        self._ok = True
        # Why the last solve() returned None: conflict budget vs deadline.
        # The SMT layer reads this to tell RESOURCE_OUT from TIMEOUT.
        self.budget_exhausted = False

    # -- variables and clauses ----------------------------------------------

    def new_var(self) -> int:
        v = len(self._assign)
        self._assign.append(-1)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        self._watches.append([])
        self._watches.append([])
        return v

    @property
    def num_vars(self) -> int:
        return len(self._assign)

    def value(self, l: int) -> int:
        """-1 unassigned, 1 true, 0 false — for the given literal."""
        a = self._assign[l >> 1]
        if a < 0:
            return -1
        return a ^ (l & 1)

    def add_clause(self, lits: Iterable[int], learned: bool = False) -> bool:
        """Add a clause. Returns False if the formula became trivially unsat.

        Must be called at decision level 0 (external API); learned clauses are
        added internally through conflict analysis instead.  A clause already
        satisfied at the root is dropped, as are its root-falsified literals.
        """
        if not self._ok:
            return False
        self._backtrack(0)  # clear any assignment left over from a prior solve
        seen: set[int] = set()
        out: list[int] = []
        for l in lits:
            if neg(l) in seen:
                return True  # tautology
            if l in seen:
                continue
            seen.add(l)
            val = self.value(l)
            if val == 1:
                return True  # satisfied at the root
            if val == -1:
                out.append(l)
        if not out:
            self._ok = False
            return False
        if len(out) == 1:
            self._enqueue(out[0], None)
            if self._propagate() is not None:
                self._ok = False
                return False
            return True
        clause = _Clause(out, learned)
        self._attach(clause)
        self._clauses.append(clause)
        return True

    def _attach(self, c: _Clause) -> None:
        self._watches[neg(c.lits[0])].append(c)
        self._watches[neg(c.lits[1])].append(c)

    # -- trail management ----------------------------------------------------

    def _enqueue(self, l: int, reason: Optional[_Clause]) -> None:
        v = l >> 1
        self._assign[v] = 1 - (l & 1)
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._phase[v] = lit_sign(l)
        self._trail.append(l)

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        limit = self._trail_lim[level]
        for l in reversed(self._trail[limit:]):
            self._assign[l >> 1] = -1
            self._reason[l >> 1] = None
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    # -- propagation ----------------------------------------------------------

    def _propagate(self) -> Optional[_Clause]:
        while self._qhead < len(self._trail):
            p = self._trail[self._qhead]
            self._qhead += 1
            self.num_propagations += 1
            watchers = self._watches[p]
            i = 0
            j = 0
            n = len(watchers)
            while i < n:
                c = watchers[i]
                i += 1
                lits = c.lits
                # Ensure the false literal is lits[1].
                if lits[0] == neg(p):
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if self.value(first) == 1:
                    watchers[j] = c
                    j += 1
                    continue
                # Search a new watch.
                found = False
                for k in range(2, len(lits)):
                    if self.value(lits[k]) != 0:
                        lits[1], lits[k] = lits[k], lits[1]
                        self._watches[neg(lits[1])].append(c)
                        found = True
                        break
                if found:
                    continue
                watchers[j] = c
                j += 1
                if self.value(first) == 0:
                    # Conflict: keep remaining watchers, return the clause.
                    while i < n:
                        watchers[j] = watchers[i]
                        j += 1
                        i += 1
                    del watchers[j:]
                    self._qhead = len(self._trail)
                    return c
                self._enqueue(first, c)
            del watchers[j:]
        return None

    # -- conflict analysis -----------------------------------------------------

    def _bump_var(self, v: int) -> None:
        self._activity[v] += self._var_inc
        if self._activity[v] > 1e100:
            for i in range(len(self._activity)):
                self._activity[i] *= 1e-100
            self._var_inc *= 1e-100

    def _analyze(self, conflict: _Clause) -> tuple[list[int], int]:
        learnt: list[int] = [0]  # reserve slot for the asserting literal
        seen = [False] * self.num_vars
        counter = 0
        skip_lit: Optional[int] = None  # the literal the reason clause implied
        index = len(self._trail) - 1
        cur_level = self._decision_level()
        c: Optional[_Clause] = conflict
        while True:
            assert c is not None
            c.activity += self._cla_inc
            for q in c.lits:
                if skip_lit is not None and q == skip_lit:
                    continue
                v = q >> 1
                if not seen[v] and self._level[v] > 0:
                    seen[v] = True
                    self._bump_var(v)
                    if self._level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[self._trail[index] >> 1]:
                index -= 1
            pl = self._trail[index]
            index -= 1
            v = pl >> 1
            seen[v] = False
            counter -= 1
            skip_lit = pl
            c = self._reason[v]
            if counter == 0:
                break
        learnt[0] = neg(skip_lit)
        # Conflict-clause minimization (local): drop literals implied by others.
        marked = set(q >> 1 for q in learnt)
        kept = [learnt[0]]
        for q in learnt[1:]:
            r = self._reason[q >> 1]
            if r is None or any((x >> 1) not in marked and self._level[x >> 1] > 0
                                for x in r.lits if x != neg(q)):
                kept.append(q)
        learnt = kept
        if len(learnt) == 1:
            return learnt, 0
        # Find backtrack level = second-highest level in learnt clause.
        max_i = 1
        for i in range(2, len(learnt)):
            if self._level[learnt[i] >> 1] > self._level[learnt[max_i] >> 1]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, self._level[learnt[1] >> 1]

    # -- decisions ----------------------------------------------------------------

    def _pick_branch(self) -> Optional[int]:
        best_v = -1
        best_a = -1.0
        for v in range(self.num_vars):
            if self._assign[v] < 0 and self._activity[v] > best_a:
                best_a = self._activity[v]
                best_v = v
        if best_v < 0:
            return None
        return lit(best_v, self._phase[best_v])

    def _reduce_learned(self) -> None:
        self._learned.sort(key=lambda c: c.activity)
        keep_from = len(self._learned) // 2
        removed = set(id(c) for c in self._learned[:keep_from]
                      if len(c.lits) > 2 and not self._is_reason(c))
        if not removed:
            return
        self._learned = [c for c in self._learned if id(c) not in removed]
        for w in self._watches:
            w[:] = [c for c in w if id(c) not in removed]

    def _is_reason(self, c: _Clause) -> bool:
        v = c.lits[0] >> 1
        return self._reason[v] is c

    # -- main loop ------------------------------------------------------------------

    def solve(self, assumptions: Iterable[int] = (),
              conflict_budget: Optional[int] = None,
              deadline: Optional[float] = None) -> Optional[bool]:
        """Solve under assumptions.

        Returns True (sat), False (unsat), or None if the conflict budget ran
        out or the wall-clock ``deadline`` (``time.monotonic`` value) passed.
        On sat, :meth:`model` reads variable values.
        """
        self.budget_exhausted = False
        if not self._ok:
            return False
        self._backtrack(0)
        assumptions = list(assumptions)
        restart_idx = 1
        conflicts_since_restart = 0
        restart_limit = 32 * _luby(restart_idx)
        max_learned = max(1000, len(self._clauses) // 2)
        budget_left = conflict_budget

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.num_conflicts += 1
                conflicts_since_restart += 1
                if budget_left is not None:
                    budget_left -= 1
                    if budget_left <= 0:
                        self.budget_exhausted = True
                        self._backtrack(0)
                        return None
                if deadline is not None and self.num_conflicts % 256 == 0 \
                        and time.monotonic() >= deadline:
                    self._backtrack(0)
                    return None
                if self._decision_level() == 0:
                    self._ok = False
                    return False
                learnt, bt_level = self._analyze(conflict)
                self._backtrack(bt_level)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    c = _Clause(learnt, True)
                    self._attach(c)
                    self._learned.append(c)
                    self._enqueue(learnt[0], c)
                self._var_inc /= 0.95
                self._cla_inc /= 0.999
                if len(self._learned) > max_learned:
                    self._reduce_learned()
                    max_learned = int(max_learned * 1.3)
                continue

            if conflicts_since_restart >= restart_limit:
                conflicts_since_restart = 0
                restart_idx += 1
                restart_limit = 32 * _luby(restart_idx)
                self._backtrack(0)
                continue

            # Apply assumptions in order.
            next_lit = None
            for a in assumptions:
                val = self.value(a)
                if val == 0:
                    return False  # assumption conflicts (no core extraction)
                if val == -1:
                    next_lit = a
                    break
            if next_lit is None:
                next_lit = self._pick_branch()
                if next_lit is None:
                    return True
                self.num_decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(next_lit, None)

    def model(self) -> list[bool]:
        """Variable assignment after a sat result (unassigned vars -> False)."""
        return [a == 1 for a in self._assign]

    def model_value(self, var: int) -> Optional[bool]:
        """Assignment of one variable, or None if it was never decided."""
        if var < 0 or var >= len(self._assign) or self._assign[var] < 0:
            return None
        return self._assign[var] == 1

    def root_forced(self) -> Optional[set[int]]:
        """Literals forced by unit propagation at decision level 0.

        Returns None if propagation finds a root conflict (formula unsat).
        """
        if not self._ok:
            return None
        self._backtrack(0)
        if self._propagate() is not None:
            self._ok = False
            return None
        return set(self._trail)

    def relevant_literals(self) -> set[int]:
        """A justification cover: true literals sufficient to satisfy every
        input clause, plus all root-level forced literals.

        Theory solvers that only check this subset avoid chasing conflicts
        on arbitrarily-assigned don't-care atoms — a large practical win.
        """
        chosen: set[int] = set()
        limit = self._trail_lim[0] if self._trail_lim else len(self._trail)
        for l in self._trail[:limit]:
            chosen.add(l)
        for c in self._clauses:
            sat_by_chosen = False
            candidate = None
            for l in c.lits:
                if self.value(l) == 1:
                    if l in chosen:
                        sat_by_chosen = True
                        break
                    if candidate is None:
                        candidate = l
            if not sat_by_chosen and candidate is not None:
                chosen.add(candidate)
        return chosen
