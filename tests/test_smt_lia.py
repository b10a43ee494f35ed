"""Unit + randomized tests for the simplex/branch-and-bound LIA solver."""

import itertools
import random
from fractions import Fraction

import pytest

from repro.smt.lia import (LiaConflict, LiaSolver, LiaUnknown, LinExpr,
                           Simplex, _integerize)


def V(n):
    return LinExpr.var(n)


def C(k):
    return LinExpr.constant(k)


def test_linexpr_arithmetic():
    e = V("x") + V("y").scale(2) - C(3)
    assert e.coeffs == {"x": 1, "y": 2}
    assert e.const == -3
    assert (e - e).is_constant()


def test_integerize():
    e = LinExpr({"x": "1/2", "y": "1/3"})
    scaled = _integerize(e)
    assert scaled.coeffs == {"x": 3, "y": 2}


def test_simple_conflict_with_exact_reasons():
    s = LiaSolver()
    s.assert_le0(V("x") + V("y") - C(3), "c1")
    s.assert_ge0(V("x") - C(2), "c2")
    s.assert_ge0(V("y") - C(2), "c3")
    with pytest.raises(LiaConflict) as exc:
        s.check()
    assert exc.value.reasons == frozenset({"c1", "c2", "c3"})


def test_gcd_test_catches_parity():
    s = LiaSolver()
    s.assert_eq0(V("x").scale(2) - C(1), "g")
    with pytest.raises(LiaConflict) as exc:
        s.check()
    assert exc.value.reasons == frozenset({"g"})


def test_gcd_on_difference():
    s = LiaSolver()
    s.assert_eq0(V("x").scale(3) - V("y").scale(3) - C(1), "g")
    with pytest.raises(LiaConflict):
        s.check()


def test_branch_and_bound_finds_integer_point():
    s = LiaSolver()
    s.assert_eq0(V("x").scale(2) + V("y").scale(2) - C(4), "e")
    s.assert_ge0(V("x") - C(1), "a")
    s.assert_ge0(V("y") - C(1), "b")
    assert s.check() == {"x": 1, "y": 1}


def test_rational_relaxation_integer_infeasible():
    # 2x = 2y + 1 has rational but no integer solutions.
    s = LiaSolver()
    s.assert_eq0(V("x").scale(2) - V("y").scale(2) - C(1), "e")
    with pytest.raises(LiaConflict):
        s.check()


def test_strict_inequality_over_ints():
    s = LiaSolver()
    s.assert_lt0(V("x") - C(5), "c1")   # x < 5
    s.assert_ge0(V("x") - C(4), "c2")   # x >= 4
    m = s.check()
    assert m["x"] == 4


def test_equalities_propagate():
    s = LiaSolver()
    s.assert_eq0(V("x") - V("y"), "e1")
    s.assert_eq0(V("y") - C(7), "e2")
    m = s.check()
    assert m["x"] == 7 and m["y"] == 7


def test_unbounded_is_sat():
    s = LiaSolver()
    s.assert_ge0(V("x") - C(1000000), "c")
    m = s.check()
    assert m["x"] >= 1000000


@pytest.mark.parametrize("seed", range(3))
def test_random_against_brute_force(seed):
    rng = random.Random(seed)
    for _ in range(120):
        nv = rng.randint(1, 3)
        names = [f"v{i}" for i in range(nv)]
        cons = []
        for _ in range(rng.randint(1, 6)):
            coeffs = {n: rng.randint(-3, 3) for n in names}
            const = rng.randint(-5, 5)
            cons.append((rng.choice(["le", "ge", "eq"]), coeffs, const))
        s = LiaSolver()
        for n in names:
            s.assert_ge0(V(n) + C(4), f"lo{n}")
            s.assert_le0(V(n) - C(4), f"hi{n}")
        for i, (kind, coeffs, const) in enumerate(cons):
            getattr(s, f"assert_{kind}0")(LinExpr(coeffs, const), f"c{i}")
        try:
            model = s.check()
            got = True
            for kind, coeffs, const in cons:
                val = sum(coeffs[n] * model[n] for n in names) + const
                assert (val <= 0 if kind == "le" else
                        val >= 0 if kind == "ge" else val == 0)
        except LiaConflict:
            got = False
        except LiaUnknown:
            continue
        brute = any(
            all((sum(cf[n] * env[n] for n in names) + k <= 0 if kd == "le"
                 else sum(cf[n] * env[n] for n in names) + k >= 0 if kd == "ge"
                 else sum(cf[n] * env[n] for n in names) + k == 0)
                for kd, cf, k in cons)
            for env in (dict(zip(names, pt))
                        for pt in itertools.product(range(-4, 5), repeat=nv)))
        assert got == brute


def test_simplex_pivot_counter():
    s = LiaSolver()
    s.assert_le0(V("x") + V("y") - C(10), "c1")
    s.assert_ge0(V("x") - C(4), "c2")
    s.assert_ge0(V("y") - C(4), "c3")
    m = s.check()
    assert m["x"] >= 4 and m["y"] >= 4 and m["x"] + m["y"] <= 10


def test_conflicting_bounds_same_slack():
    simplex = Simplex()
    with pytest.raises(LiaConflict) as exc:
        simplex.assert_upper(V("x") - C(1), "u")   # x <= 1
        simplex.assert_lower(V("x") - C(2), "l")   # x >= 2
    assert exc.value.reasons == frozenset({"u", "l"})


# -- integer-first representation and probe soundness -------------------------

def _numbers(simplex):
    """Every exact number held by a tableau: row coefficients, values and
    bound values."""
    for row in simplex._rows.values():
        yield from row.values()
    yield from simplex._value.values()
    for bounds in (simplex._lower, simplex._upper):
        for b in bounds.values():
            yield b.value


def _bound_map(simplex):
    return ({v: (b.value, b.reason) for v, b in simplex._lower.items()},
            {v: (b.value, b.reason) for v, b in simplex._upper.items()})


def _holds(kind, coeffs, const, env):
    val = sum(c * env[n] for n, c in coeffs.items()) + const
    return (val <= 0 if kind == "le" else val < 0 if kind == "lt"
            else val >= 0 if kind == "ge" else val == 0)


@pytest.mark.parametrize("seed", range(4))
def test_probe_sound_and_tableau_int_first(seed):
    """Random boxed systems with non-unit coefficients (so pivots divide
    and create real fractions): a probe never claims infeasible when an
    integer point exists, it restores the bound maps exactly, and the
    tableau never holds a Fraction with denominator 1."""
    rng = random.Random(f"probe:{seed}")
    saw_fraction = False
    for _ in range(60):
        nv = rng.randint(2, 3)
        names = [f"v{i}" for i in range(nv)]
        cons = []
        for _ in range(rng.randint(1, 4)):
            coeffs = {n: rng.choice([-3, -2, 2, 3, 5]) for n in names}
            cons.append((rng.choice(["le", "ge", "eq"]), coeffs,
                         rng.randint(-6, 6)))
        s = LiaSolver()
        for n in names:
            s.assert_ge0(V(n) + C(3), f"lo{n}")
            s.assert_le0(V(n) - C(3), f"hi{n}")
        for i, (kind, coeffs, const) in enumerate(cons):
            getattr(s, f"assert_{kind}0")(LinExpr(coeffs, const), f"c{i}")
        try:
            s.check()
        except (LiaConflict, LiaUnknown):
            continue
        points = [dict(zip(names, pt))
                  for pt in itertools.product(range(-3, 4), repeat=nv)]
        points = [env for env in points
                  if all(_holds(k, cf, c, env) for k, cf, c in cons)]
        for _ in range(4):
            kind = rng.choice(["le", "lt", "eq"])
            coeffs = {n: rng.choice([-2, -1, 1, 2, 3]) for n in names}
            const = rng.randint(-5, 5)
            root = s._root()
            before = _bound_map(root)
            infeasible = s.lp_probe_infeasible(kind, LinExpr(coeffs, const))
            assert _bound_map(root) == before
            if any(_holds(kind, coeffs, const, env) for env in points):
                assert not infeasible, (cons, kind, coeffs, const)
            for x in _numbers(root):
                assert type(x) is int or x.denominator > 1, x
                saw_fraction |= type(x) is not int
    assert saw_fraction


def test_linexpr_normalizes_integral_fractions():
    e = LinExpr({"x": Fraction(4, 2), "y": "1/2"}, Fraction(6, 3))
    assert type(e.coeffs["x"]) is int and type(e.const) is int
    assert e.coeffs["y"] == Fraction(1, 2)
    doubled = e.scale(2)
    assert all(type(c) is int for c in doubled.coeffs.values())
    assert type((e + e).coeffs["y"]) is int
