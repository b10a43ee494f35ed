"""Tests for trigger selection and E-matching (§3.1's decisive axis)."""

import pytest

from repro.smt import terms as T
from repro.smt.euf import EufSolver
from repro.smt.quant import (BROAD, CONSERVATIVE, EMatcher, TriggerError,
                             select_triggers)
from repro.smt.sorts import BOOL, INT, uninterpreted

S = uninterpreted("S")
f = T.FuncDecl("f", [S], S)
g = T.FuncDecl("g", [S, S], S)
p = T.FuncDecl("p", [S], BOOL)
h = T.FuncDecl("h", [INT], INT)


def _q(bound, body, triggers=None):
    return T.ForAll(bound, body, triggers)


class TestTriggerSelection:
    def test_explicit_triggers_win(self):
        x = T.Var("x", S)
        q = _q([x], T.Eq(f(x), x), triggers=[[f(x)]])
        assert select_triggers(q, CONSERVATIVE) == ((f(x),),)
        assert select_triggers(q, BROAD) == ((f(x),),)

    def test_conservative_picks_minimal_alternatives(self):
        x = T.Var("x", S)
        # both f(x) and f(f(x)) cover x; only the minimal f(x) is kept
        q = _q([x], T.Eq(f(f(x)), x))
        groups = select_triggers(q, CONSERVATIVE)
        assert (f(x),) in groups
        assert all(len(grp) == 1 for grp in groups)
        assert (f(f(x)),) not in groups

    def test_alternative_full_coverage_patterns(self):
        x = T.Var("x", S)
        # two independent minimal patterns: each becomes an alternative
        q = _q([x], T.Implies(p(x), T.Eq(f(x), x)))
        groups = select_triggers(q, CONSERVATIVE)
        roots = {grp[0].payload.name for grp in groups}
        assert roots == {"p", "f"}

    def test_multipattern_when_no_single_covers(self):
        x, y = T.Var("x", S), T.Var("y", S)
        q = _q([x, y], T.Implies(T.And(p(x), p(y)), T.Eq(x, y)))
        groups = select_triggers(q, CONSERVATIVE)
        assert len(groups) == 1
        assert {t.payload.name for t in groups[0]} == {"p"}
        assert len(groups[0]) == 2

    def test_broad_has_at_least_as_many_groups(self):
        x = T.Var("x", S)
        q = _q([x], T.Implies(p(x), T.Eq(f(g(x, x)), x)))
        cons = select_triggers(q, CONSERVATIVE)
        broad = select_triggers(q, BROAD)
        assert len(broad) >= len(cons)

    def test_uncovered_variable_raises(self):
        x, y = T.Var("x", S), T.Var("y", S)
        q = _q([x, y], T.Implies(p(x), T.Eq(y, y) if False else p(x)))
        with pytest.raises(TriggerError):
            select_triggers(q, CONSERVATIVE)

    def test_uncovered_variables_listed_sorted(self):
        # The message names the uncovered variables in sorted order, not
        # in set order (which follows identity hashes).
        x, c, b, a = (T.Var(n, INT) for n in "xcba")
        q = _q([x, c, b, a],
               T.Le(h(x), T.Add(T.Add(c, b), a)))
        with pytest.raises(TriggerError,
                           match=r"\['a', 'b', 'c'\] not covered"):
            select_triggers(q, CONSERVATIVE)

    def test_interpreted_roots_not_patterns(self):
        i = T.Var("i", INT)
        # h(i) is matchable; i+1 is not a pattern root
        q = _q([i], T.Gt(h(i), T.Add(i, T.IntVal(1))))
        groups = select_triggers(q, CONSERVATIVE)
        assert all(grp[0].kind == T.APP for grp in groups)


class TestEMatching:
    def _euf_with(self, *terms):
        euf = EufSolver()
        for t in terms:
            euf.add_term(t)
        euf.flush()
        return euf

    def test_simple_match(self):
        a = T.Var("a", S)
        x = T.Var("x", S)
        euf = self._euf_with(f(a))
        matcher = EMatcher(euf)
        subs = matcher.match_group([f(x)], (x,))
        assert [s[x] for s in subs] == [a]

    def test_match_modulo_congruence(self):
        a, b = T.Var("a", S), T.Var("b", S)
        x = T.Var("x", S)
        euf = EufSolver()
        euf.add_term(f(a))
        euf.assert_eq(a, b, "r")
        matcher = EMatcher(euf)
        # pattern g(f(x), x): term g(f(a), b) matches with x -> a (~ b)
        euf.add_term(g(f(a), b))
        euf.flush()
        subs = matcher.match_group([g(f(x), x)], (x,))
        assert len(subs) == 1

    def test_multipattern_joins_bindings(self):
        a, b = T.Var("a", S), T.Var("b", S)
        x, y = T.Var("x", S), T.Var("y", S)
        euf = self._euf_with(f(a), f(b))
        matcher = EMatcher(euf)
        subs = matcher.match_group([f(x), f(y)], (x, y))
        pairs = {(s[x], s[y]) for s in subs}
        assert pairs == {(a, a), (a, b), (b, a), (b, b)}

    def test_constant_subpattern_requires_equality(self):
        a, c = T.Var("a", S), T.Var("c", S)
        x = T.Var("x", S)
        euf = self._euf_with(g(a, c), g(a, a))
        matcher = EMatcher(euf)
        # pattern g(x, c): only g(a, c) matches (c is a free constant)
        subs = matcher.match_group([g(x, c)], (x,))
        assert len(subs) == 1 and subs[0][x] is a

    def test_no_match_returns_empty(self):
        a = T.Var("a", S)
        x = T.Var("x", S)
        euf = self._euf_with(a)
        matcher = EMatcher(euf)
        assert matcher.match_group([f(x)], (x,)) == []

    def test_dedup_by_congruence_class(self):
        a, b = T.Var("a", S), T.Var("b", S)
        x = T.Var("x", S)
        euf = EufSolver()
        euf.add_term(f(a))
        euf.add_term(f(b))
        euf.assert_eq(a, b, "r")
        matcher = EMatcher(euf)
        subs = matcher.match_group([f(x)], (x,))
        assert len(subs) == 1  # a ~ b: one class, one instantiation
