"""Linear integer arithmetic solver: general simplex + branch-and-bound.

The solver decides conjunctions of linear constraints over integer variables.
It follows the Dutertre–de Moura *general simplex* architecture used by Z3:

* every distinct linear form gets a slack variable and a tableau row,
* asserted constraints become bounds on variables (each carrying an opaque
  *reason* tag, typically a SAT literal),
* a pivoting loop repairs bound violations; when a violated row admits no
  pivot, the bounds of that row form a conflict explanation,
* rational solutions are repaired to integers by branch-and-bound, with a
  GCD pre-test on rows to catch common integer infeasibilities early.

Variables are arbitrary hashable atoms (the DPLL(T) layer uses Terms).

Numbers are integer-first: every coefficient, bound and value is a plain
``int`` when it is integral and a ``Fraction`` only when its denominator
is greater than 1.  Almost every number the verifier produces is an
integer, and CPython ``int`` arithmetic is one to two orders of
magnitude cheaper than ``Fraction`` arithmetic.  A non-integer can only arise from a division
(pivoting) or from arithmetic on a ``Fraction``; :func:`_q` and
:func:`_div` normalize the result at those few places.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Hashable, Optional

ZERO = 0


def _q(x):
    """An exact number in normal form: an integral Fraction becomes an int."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _div(a, b):
    """Exact ``a / b`` in normal form."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _q(a / b)


class LiaConflict(Exception):
    """The asserted constraints are unsatisfiable; `reasons` explains why."""

    def __init__(self, reasons: frozenset):
        super().__init__(f"LIA conflict from {len(reasons)} reasons")
        self.reasons = reasons


class LiaUnknown(Exception):
    """Branch-and-bound exceeded its budget; satisfiability undetermined."""


class LinExpr:
    """A linear expression: coefficient map over atoms plus a constant."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Optional[dict] = None, const=0):
        self.coeffs: dict[Hashable, int | Fraction] = {}
        if coeffs:
            for v, c in coeffs.items():
                if type(c) is not int:
                    c = _q(Fraction(c))
                if c:
                    self.coeffs[v] = c
        self.const = const if type(const) is int else _q(Fraction(const))

    @classmethod
    def var(cls, v: Hashable) -> "LinExpr":
        return cls({v: 1})

    @classmethod
    def constant(cls, c) -> "LinExpr":
        return cls(None, c)

    def __add__(self, other: "LinExpr") -> "LinExpr":
        out = dict(self.coeffs)
        for v, c in other.coeffs.items():
            nc = _q(out.get(v, ZERO) + c)
            if nc:
                out[v] = nc
            else:
                out.pop(v, None)
        return LinExpr(out, _q(self.const + other.const))

    def __sub__(self, other: "LinExpr") -> "LinExpr":
        return self + other.scale(-1)

    def scale(self, k) -> "LinExpr":
        if type(k) is not int:
            k = _q(Fraction(k))
        if not k:
            return LinExpr()
        return LinExpr({v: _q(c * k) for v, c in self.coeffs.items()},
                       _q(self.const * k))

    def is_constant(self) -> bool:
        return not self.coeffs

    def __repr__(self) -> str:
        parts = [f"{c}*{v}" for v, c in self.coeffs.items()]
        parts.append(str(self.const))
        return " + ".join(parts)


class _Bound:
    __slots__ = ("value", "reason")

    def __init__(self, value: int | Fraction, reason: Hashable):
        self.value = value
        self.reason = reason


class Simplex:
    """General simplex over rationals with per-bound reasons.

    Rows, bounds and values hold ints where integral and Fractions only
    where not (see the module docstring).
    """

    __slots__ = ("_rows", "_basic", "_nonbasic", "_lower", "_upper",
                 "_value", "_slack_of_form", "_slack_counter", "_order",
                 "num_pivots", "_snapshots")

    def __init__(self):
        # Tableau: basic var -> {nonbasic var: coeff}. Invariant: basic ==
        # sum(coeff * nonbasic).
        self._rows: dict[Hashable, dict[Hashable, int | Fraction]] = {}
        self._basic: set = set()
        self._nonbasic: set = set()
        self._lower: dict[Hashable, _Bound] = {}
        self._upper: dict[Hashable, _Bound] = {}
        self._value: dict[Hashable, int | Fraction] = {}
        self._slack_of_form: dict[tuple, Hashable] = {}
        self._slack_counter = 0
        self._order: dict[Hashable, int] = {}
        self.num_pivots = 0
        self._snapshots: list[tuple[dict, dict]] = []

    # -- snapshots ----------------------------------------------------------

    def push(self) -> None:
        """Snapshot the bound maps (the tableau itself only ever grows and
        stays equivalent under pivoting, so bounds are the whole logical
        state)."""
        self._snapshots.append((dict(self._lower), dict(self._upper)))

    def pop(self) -> None:
        """Restore the bound maps from the matching push.

        Variable values are left as repaired — they satisfy every row
        identity, and the next check() re-repairs any bound violations.
        """
        self._lower, self._upper = self._snapshots.pop()

    # -- construction -------------------------------------------------------

    def _key(self, v: Hashable) -> int:
        """Stable per-solver ordering key (cheap, unlike repr on big terms)."""
        k = self._order.get(v)
        if k is None:
            k = len(self._order)
            self._order[v] = k
        return k

    def _ensure_var(self, v: Hashable) -> None:
        if v not in self._value:
            self._value[v] = ZERO
            self._nonbasic.add(v)
            self._key(v)

    def _slack_for(self, expr: LinExpr) -> Hashable:
        """Return a variable equal to expr.coeffs (constant excluded)."""
        for v in expr.coeffs:
            self._key(v)
        items = tuple(sorted(expr.coeffs.items(), key=lambda kv: self._key(kv[0])))
        if len(items) == 1 and items[0][1] == 1:
            v = items[0][0]
            self._ensure_var(v)
            return v
        existing = self._slack_of_form.get(items)
        if existing is not None:
            return existing
        self._slack_counter += 1
        s = ("_slack", self._slack_counter)
        self._key(s)
        for v in expr.coeffs:
            self._ensure_var(v)
        # Row in terms of current nonbasic/basic vars: substitute basic vars.
        row: dict[Hashable, int | Fraction] = {}
        for v, c in expr.coeffs.items():
            if v in self._basic:
                for w, cw in self._rows[v].items():
                    nc = _q(row.get(w, ZERO) + c * cw)
                    if nc:
                        row[w] = nc
                    else:
                        row.pop(w, None)
            else:
                nc = _q(row.get(v, ZERO) + c)
                if nc:
                    row[v] = nc
                else:
                    row.pop(v, None)
        self._rows[s] = row
        self._basic.add(s)
        value = self._value
        value[s] = _q(sum((value[v] * c for v, c in row.items()), ZERO))
        self._slack_of_form[items] = s
        return s

    # -- bound assertion -------------------------------------------------------

    def assert_upper(self, expr: LinExpr, reason: Hashable) -> None:
        """Assert expr <= 0, i.e. (coeffs part) <= -const."""
        s = self._slack_for(expr)
        bound = -expr.const
        cur = self._upper.get(s)
        if cur is not None and cur.value <= bound:
            return
        low = self._lower.get(s)
        if low is not None and low.value > bound:
            raise LiaConflict(frozenset([reason, low.reason]))
        self._upper[s] = _Bound(bound, reason)
        if s in self._nonbasic and self._value[s] > bound:
            self._update_nonbasic(s, bound)

    def assert_lower(self, expr: LinExpr, reason: Hashable) -> None:
        """Assert expr >= 0, i.e. (coeffs part) >= -const."""
        s = self._slack_for(expr)
        bound = -expr.const
        cur = self._lower.get(s)
        if cur is not None and cur.value >= bound:
            return
        up = self._upper.get(s)
        if up is not None and up.value < bound:
            raise LiaConflict(frozenset([reason, up.reason]))
        self._lower[s] = _Bound(bound, reason)
        if s in self._nonbasic and self._value[s] < bound:
            self._update_nonbasic(s, bound)

    def _update_nonbasic(self, v: Hashable, new_val) -> None:
        value = self._value
        delta = _q(new_val - value[v])
        value[v] = new_val
        for b, row in self._rows.items():
            c = row.get(v)
            if c:
                value[b] = _q(value[b] + c * delta)

    # -- pivoting check --------------------------------------------------------

    def check(self, max_pivots: int = 20000) -> dict:
        """Repair all bound violations; return the rational model.

        Raises LiaConflict if infeasible, LiaUnknown on pivot budget blowout.
        """
        pivots = 0
        order, value = self._order, self._value
        lower, upper = self._lower, self._upper
        while True:
            # Bland's rule: repair the violated basic variable with the
            # least order key, found in one scan (no sort of the basis).
            violated = None
            direction = 0
            least = len(order)
            for b in self._basic:
                val = value[b]
                lo = lower.get(b)
                if lo is not None and val < lo.value:
                    d = +1
                else:
                    up = upper.get(b)
                    if up is None or val <= up.value:
                        continue
                    d = -1
                k = order[b]
                if k < least:
                    violated, direction, least = b, d, k
            if violated is None:
                return dict(self._value)
            pivots += 1
            self.num_pivots += 1
            if pivots > max_pivots:
                raise LiaUnknown("pivot budget exceeded")
            self._repair(violated, direction)

    def _repair(self, b: Hashable, direction: int) -> None:
        row = self._rows[b]
        target = (self._lower[b].value if direction > 0
                  else self._upper[b].value)
        # Bland's rule again: the eligible entering variable with the least
        # order key.
        order = self._order
        entering = None
        least = len(order)
        for v, c in row.items():
            k = order[v]
            if k > least:
                continue
            # Increasing b requires: c>0 -> increase v (below upper), or
            # c<0 -> decrease v (above lower); symmetric for decreasing.
            if direction > 0:
                can = (c > 0 and self._can_increase(v)) or (c < 0 and self._can_decrease(v))
            else:
                can = (c > 0 and self._can_decrease(v)) or (c < 0 and self._can_increase(v))
            if can:
                entering, least = v, k
        if entering is not None:
            self._pivot(b, entering)
            self._set_basic_to_bound(entering, b, target)
            return
        # No pivot possible: conflict from this row's binding bounds.
        reasons = set()
        reasons.add(self._lower[b].reason if direction > 0 else self._upper[b].reason)
        for v, c in row.items():
            if direction > 0:
                bound = self._upper.get(v) if c > 0 else self._lower.get(v)
            else:
                bound = self._lower.get(v) if c > 0 else self._upper.get(v)
            if bound is not None:
                reasons.add(bound.reason)
        raise LiaConflict(frozenset(reasons))

    def _can_increase(self, v: Hashable) -> bool:
        up = self._upper.get(v)
        return up is None or self._value[v] < up.value

    def _can_decrease(self, v: Hashable) -> bool:
        lo = self._lower.get(v)
        return lo is None or self._value[v] > lo.value

    def _pivot(self, b: Hashable, nb: Hashable) -> None:
        """Swap basic b with nonbasic nb."""
        row = self._rows.pop(b)
        c = row.pop(nb)
        # b = c*nb + rest  =>  nb = (b - rest)/c
        new_row = {b: _div(1, c)}
        for v, cv in row.items():
            new_row[v] = _div(-cv, c)
        self._basic.remove(b)
        self._nonbasic.add(b)
        self._nonbasic.remove(nb)
        self._basic.add(nb)
        self._rows[nb] = new_row
        # Substitute nb out of all other rows.
        for ob, orow in self._rows.items():
            if ob is nb:
                continue
            cv = orow.pop(nb, None)
            if cv:
                for v, c2 in new_row.items():
                    nc = _q(orow.get(v, ZERO) + cv * c2)
                    if nc:
                        orow[v] = nc
                    else:
                        orow.pop(v, None)

    def _set_basic_to_bound(self, new_basic: Hashable, now_nonbasic: Hashable,
                            target) -> None:
        # After the pivot the system is algebraically unchanged, so current
        # values still satisfy every row; only the delta of the (formerly
        # basic, now nonbasic) variable needs propagating.
        value = self._value
        delta = _q(target - value[now_nonbasic])
        if not delta:
            return
        value[now_nonbasic] = target
        for b, row in self._rows.items():
            c = row.get(now_nonbasic)
            if c:
                value[b] = _q(value[b] + c * delta)


class LiaSolver:
    """Integer-feasibility solver: simplex + GCD tests + branch-and-bound."""

    __slots__ = ("_constraints", "_int_vars", "branch_budget",
                 "num_branches", "_root_simplex", "last_model")

    def __init__(self, branch_budget: int = 400):
        self._constraints: list[tuple[str, LinExpr, Hashable]] = []
        self._int_vars: dict = {}  # insertion-ordered set
        self.branch_budget = branch_budget
        self.num_branches = 0
        self._root_simplex: Optional[Simplex] = None
        # Most recent satisfying integer model (model export for
        # counterexample diagnostics); None until check() succeeds.
        self.last_model: Optional[dict] = None

    def _note_vars(self, expr: LinExpr) -> None:
        for v in expr.coeffs:
            self._int_vars.setdefault(v)

    def assert_le0(self, expr: LinExpr, reason: Hashable) -> None:
        """expr <= 0."""
        self._constraints.append(("le", expr, reason))
        self._note_vars(expr)
        self._root_simplex = None

    def assert_ge0(self, expr: LinExpr, reason: Hashable) -> None:
        self._constraints.append(("ge", expr, reason))
        self._note_vars(expr)
        self._root_simplex = None

    def assert_eq0(self, expr: LinExpr, reason: Hashable) -> None:
        self._constraints.append(("eq", expr, reason))
        self._note_vars(expr)
        self._root_simplex = None

    def assert_lt0(self, expr: LinExpr, reason: Hashable) -> None:
        """expr < 0; over integers this is expr + 1 <= 0 after scaling."""
        scaled = _integerize(expr) + LinExpr.constant(1)
        self._constraints.append(("le", scaled, reason))
        self._note_vars(expr)
        self._root_simplex = None

    # -- solving ------------------------------------------------------------

    def check(self) -> dict:
        """Return an integer model, or raise LiaConflict / LiaUnknown."""
        for kind, expr, reason in self._constraints:
            if expr.is_constant():
                val = expr.const
                sat = (val <= 0 if kind == "le" else
                       val >= 0 if kind == "ge" else val == 0)
                if not sat:
                    raise LiaConflict(frozenset([reason]))
        self._gcd_tests()
        budget = [self.branch_budget]
        try:
            simplex = self._root()
            self.last_model = self._solve_on(simplex, budget, depth=0)
        except LiaUnknown:
            # Feasibility unresolved: keep the tableau only if its bound
            # state is trustworthy (it is — push/pop restored it), but a
            # budget blowout mid-branch leaves values far from feasible;
            # rebuilding is cheaper than repairing a pathological state.
            self._root_simplex = None
            raise
        return self.last_model

    def model_value(self, v: Hashable) -> Optional[int]:
        """Value of one variable in the last satisfying model, if any."""
        if self.last_model is None:
            return None
        return self.last_model.get(v)

    def _gcd_tests(self) -> None:
        for kind, expr, reason in self._constraints:
            if kind != "eq" or not expr.coeffs:
                continue
            e = _integerize(expr)
            g = 0
            for c in e.coeffs.values():
                g = math.gcd(g, abs(int(c)))
            if g > 1 and int(e.const) % g != 0:
                raise LiaConflict(frozenset([reason]))

    def _root(self) -> Simplex:
        """Build (or return) the root tableau.

        The tableau holds every non-constant asserted constraint as a bound;
        a new assertion or an unresolved ``check()`` drops it, so it is
        built once per constraint set (the SMT core asserts everything
        before its first check).  The initial ``check()`` leaves it
        feasibility-repaired, so later probes start from a near-feasible
        state.  Raises LiaConflict / LiaUnknown (and caches
        nothing) when the base constraints cannot be repaired.
        """
        simplex = self._root_simplex
        if simplex is None:
            simplex = Simplex()
            for c_kind, c_expr, reason in self._constraints:
                if c_expr.is_constant():
                    continue
                if c_kind == "le":
                    simplex.assert_upper(c_expr, reason)
                elif c_kind == "ge":
                    simplex.assert_lower(c_expr, reason)
                else:
                    simplex.assert_upper(c_expr, reason)
                    simplex.assert_lower(c_expr, reason)
            simplex.check()
            self._root_simplex = simplex
        return simplex

    def lp_probe_infeasible(self, kind: str, expr: LinExpr) -> bool:
        """Is (constraints + kind(expr)) LP-infeasible?  Sound for ILP.

        Uses the root tableau with bound save/restore, so a probe
        costs only the pivots needed to repair the new bound.  ``kind`` is
        one of ``le`` (expr<=0), ``lt`` (expr<0), ``eq`` (expr==0).
        Strict constraints are integer-tightened to ``<= -1``, so most
        integrality-based implications are preserved.
        """
        try:
            simplex = self._root()
        except LiaConflict:
            return True  # base constraints already infeasible
        except LiaUnknown:
            return False
        simplex.push()
        try:
            if kind == "lt":
                expr = _integerize(expr) + LinExpr.constant(1)
                kind = "le"
            if kind == "le":
                simplex.assert_upper(expr, "_probe")
            elif kind == "eq":
                simplex.assert_upper(expr, "_probe")
                simplex.assert_lower(expr, "_probe")
            else:
                raise ValueError(kind)
            simplex.check(max_pivots=4000)
            return False
        except LiaConflict:
            return True
        except LiaUnknown:
            return False
        finally:
            simplex.pop()

    def _solve_on(self, simplex: Simplex, budget, depth) -> dict:
        """Branch-and-bound over the shared tableau.

        Branch bounds are pushed and popped on ``simplex`` rather than
        rebuilding a fresh tableau per node — a branch bound is a single-var
        bound (no new slack rows), so each node costs only the pivots needed
        to repair it from the parent's feasible state.
        """
        model = simplex.check()
        # Find an integer-constrained var with fractional value.
        frac_var = None
        for v in self._int_vars:
            val = model.get(v, ZERO)
            if val.denominator != 1:
                frac_var = v
                break
        if frac_var is None:
            return {v: int(model.get(v, ZERO)) for v in self._int_vars}
        # Branch.
        budget[0] -= 1
        self.num_branches += 1
        if budget[0] <= 0 or depth > 60:
            raise LiaUnknown("branch budget exceeded")
        val = model[frac_var]
        var_e = LinExpr.var(frac_var)
        floor_c = ("le", var_e - LinExpr.constant(math.floor(val)))
        ceil_c = ("ge", var_e - LinExpr.constant(math.ceil(val)))
        reasons = None
        for kind, extra in (floor_c, ceil_c):
            simplex.push()
            try:
                if kind == "le":
                    simplex.assert_upper(extra, "_branch")
                else:
                    simplex.assert_lower(extra, "_branch")
                return self._solve_on(simplex, budget, depth + 1)
            except LiaConflict as cf:
                rs = set(cf.reasons)
                rs.discard("_branch")
                reasons = rs if reasons is None else (reasons | rs)
            finally:
                simplex.pop()
        raise LiaConflict(frozenset(reasons if reasons is not None else set()))


def _integerize(expr: LinExpr) -> LinExpr:
    """Scale an expression so all coefficients are integers."""
    denom = 1
    for c in list(expr.coeffs.values()) + [expr.const]:
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    return expr.scale(denom)
