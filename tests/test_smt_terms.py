"""Tests for hash-consed terms, smart constructors, and substitution."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import terms as T
from repro.smt.printer import query_size_bytes, query_to_smtlib, term_to_str
from repro.smt.sorts import BOOL, INT, bv, uninterpreted
from tests import dag_terms as dag

x, y, z = (T.Var(n, INT) for n in "xyz")
I = T.IntVal


def test_hash_consing_identity():
    assert T.Add(x, y) is T.Add(x, y)
    assert T.Var("x", INT) is x
    assert T.IntVal(5) is T.IntVal(5)


def test_interned_objects_hash_by_identity():
    # Interning makes identity equality, so dict/set lookups use the
    # C-level object hash; a Python __hash__ would be called on every
    # lookup in the SMT core.  _hash stays, for ordering only.
    from repro.smt.sorts import BitVecSort, Sort, UninterpretedSort
    for cls in (T.Term, T.FuncDecl, Sort, BitVecSort, UninterpretedSort):
        assert cls.__hash__ is object.__hash__, cls
    f = T.FuncDecl("f", [INT], INT)
    for obj in (T.Add(x, y), f, INT, bv(8), uninterpreted("S")):
        assert hash(obj) == object.__hash__(obj)
        assert isinstance(obj._hash, int)


def test_and_simplification():
    assert T.And() is T.TRUE
    assert T.And(T.TRUE, T.Lt(x, y)) is T.Lt(x, y)
    assert T.And(T.FALSE, T.Lt(x, y)) is T.FALSE
    # flattening and dedup
    inner = T.And(T.Lt(x, y), T.Lt(y, z))
    assert T.And(inner, T.Lt(x, y)) is inner


def test_or_simplification():
    assert T.Or() is T.FALSE
    assert T.Or(T.TRUE, T.Lt(x, y)) is T.TRUE


def test_not_involution():
    atom = T.Lt(x, y)
    assert T.Not(T.Not(atom)) is atom


def test_eq_folding():
    assert T.Eq(x, x) is T.TRUE
    assert T.Eq(I(3), I(3)) is T.TRUE
    assert T.Eq(I(3), I(4)) is T.FALSE


def test_eq_canonical_order():
    assert T.Eq(x, y) is T.Eq(y, x)


def test_arith_folding():
    assert T.Add(I(2), I(3)) is I(5)
    assert T.Add(x, I(0)) is x
    assert T.Mul(I(0), x) is I(0)
    assert T.Mul(I(1), x) is x
    assert T.Sub(x, x) is I(0)
    assert T.Neg(I(4)) is I(-4)


def test_div_mod_euclidean_folding():
    assert T.Div(I(7), I(2)).payload == 3
    assert T.Mod(I(7), I(2)).payload == 1
    assert T.Mod(I(-7), I(2)).payload == 1  # Euclidean: result in [0, |b|)
    assert T.Mod(I(7), I(-2)).payload == 1


def test_comparison_folding():
    assert T.Le(I(2), I(3)) is T.TRUE
    assert T.Lt(x, x) is T.FALSE
    assert T.Le(x, x) is T.TRUE


def test_ite_simplification():
    assert T.Ite(T.TRUE, x, y) is x
    assert T.Ite(T.FALSE, x, y) is y
    assert T.Ite(T.Lt(x, y), z, z) is z


def test_bool_ite_becomes_implications():
    cond = T.Lt(x, y)
    out = T.Ite(cond, T.Lt(y, z), T.Lt(z, y))
    assert out.kind == T.AND


def test_sort_checking():
    with pytest.raises(ValueError):
        T.Add(x, T.TRUE)
    with pytest.raises(ValueError):
        T.Eq(x, T.TRUE)
    f = T.FuncDecl("ff", [INT], INT)
    with pytest.raises(ValueError):
        f(T.TRUE)
    with pytest.raises(ValueError):
        T.App(f)


def test_bv_value_masking():
    assert T.BVVal(256, 8).payload == 0
    assert T.BVVal(-1, 8).payload == 255


def test_free_vars():
    t = T.Add(x, T.Mul(y, I(2)))
    assert t.free_vars() == frozenset({x, y})
    q = T.ForAll([x], T.Lt(x, y))
    assert q.free_vars() == frozenset({y})


def test_trigger_variables_are_free_and_substituted():
    f = T.FuncDecl("trig_f", [INT, INT], INT)
    q = T.ForAll([x], T.Lt(x, I(0)), triggers=[[f(x, y)]])
    assert q.free_vars() == frozenset({y})
    assert T.substitute(q, {y: z}).triggers == ((f(x, z),),)
    # A binder that would capture the replacement's x is renamed in the
    # triggers too.
    out = T.substitute(q, {y: x})
    x1 = T.Var("x!1", INT)
    assert out is T.ForAll([x1], T.Lt(x1, I(0)), triggers=[[f(x1, x)]])


def test_substitute_basic():
    t = T.Add(x, y)
    out = T.substitute(t, {x: I(3), y: I(4)})
    assert out is I(7)


def test_substitute_respects_binding():
    q = T.ForAll([x], T.Lt(x, y))
    out = T.substitute(q, {x: I(3)})
    assert out is q  # bound occurrence untouched


def test_substitute_capture_avoidance():
    # Substituting y := x into (forall x. x < y) must rename the binder.
    q = T.ForAll([x], T.Lt(x, y))
    out = T.substitute(q, {y: x})
    assert out.is_quant()
    new_binder = out.bound_vars[0]
    assert new_binder is not x
    assert out.body is T.Lt(new_binder, x)


def test_quantifier_accessors():
    q = T.ForAll([x, y], T.Lt(x, y), triggers=[[T.Add(x, y)]])
    assert q.bound_vars == (x, y)
    assert q.triggers == ((T.Add(x, y),),)
    assert q.body is T.Lt(x, y)


def test_subterm_iteration_dag_size():
    t = T.Add(T.Mul(x, y), T.Mul(x, y))
    # DAG: Add node + one shared Mul + x + y + the folded const? Add folds
    # the constant away, so: add, mul, x, y.
    assert t.size() == 4


def test_printer_roundtrip_syntax():
    t = T.ForAll([x], T.Implies(T.Le(I(0), x), T.Lt(x, T.Add(x, I(1)))))
    s = term_to_str(t)
    assert s.startswith("(forall ((x Int))")
    assert "(=>" in s


def test_query_size_counts_declarations():
    f = T.FuncDecl("qf", [INT], INT)
    q = [T.Eq(f(x), I(1))]
    script = query_to_smtlib(q)
    assert "(declare-fun qf (Int) Int)" in script
    assert "(declare-const x Int)" in script
    assert query_size_bytes(q) == len(script.encode())


@given(st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_constant_folding_matches_python(a, b):
    assert T.Add(I(a), I(b)).payload == a + b
    assert T.Sub(I(a), I(b)).payload == a - b
    assert T.Mul(I(a), I(b)).payload == a * b
    assert T.Le(I(a), I(b)) is T.BoolVal(a <= b)


@given(st.integers(-100, 100), st.integers(1, 20))
def test_euclidean_divmod_invariant(a, b):
    q = T.Div(I(a), I(b)).payload
    r = T.Mod(I(a), I(b)).payload
    assert a == b * q + r
    assert 0 <= r < b


# -- memoized traversals vs. reference tree walks -----------------------------
#
# Term.size() and substitute() skip work that a tree walk of the hash-consed
# DAG would repeat.  Each is compared here with a plain reference walk.


def _ref_size(t, seen=None):
    """Distinct subterms, counted by a fresh recursive walk."""
    seen = set() if seen is None else seen
    if t not in seen:
        seen.add(t)
        for a in t.args:
            _ref_size(a, seen)
    return len(seen)


def _ref_substitute(term, mapping):
    """Capture-avoiding substitution that walks every subterm."""
    cache = {}

    def walk(t, live):
        if not live:
            return t
        key = (t, tuple(sorted(live.items(), key=lambda kv: kv[0]._hash)))
        if key in cache:
            return cache[key]
        if t.kind == T.VAR:
            result = live.get(t, t)
        elif t.is_quant():
            inner = {v: r for v, r in live.items() if v in t.free_vars()}
            frees = frozenset().union(*(r.free_vars() for r in inner.values()))
            bound, renames = list(t.payload[0]), {}
            # The naming rule: the least name!k that no free variable of
            # the replacements or the quantifier, and no binder, holds.
            taken = {v.payload for v in frees | t.free_vars()}
            taken |= {v.payload for v in bound}
            for i, bv_ in enumerate(bound):
                if bv_ in frees:
                    k = 1
                    while f"{bv_.payload}!{k}" in taken:
                        k += 1
                    taken.add(f"{bv_.payload}!{k}")
                    renames[bv_] = bound[i] = T.Var(f"{bv_.payload}!{k}",
                                                    bv_.sort)
            body = walk(walk(t.args[0], renames), inner)
            trig = tuple(tuple(walk(walk(p, renames), inner) for p in grp)
                         for grp in t.payload[1])
            result = T._quant(t.kind, tuple(bound), body, trig)
        else:
            new_args = tuple(walk(a, live) for a in t.args)
            result = t if new_args == t.args else T._rebuild(t, new_args)
        cache[key] = result
        return result

    return walk(term, dict(mapping))


def _same_substitution(term, mapping):
    """The reference and the real substitute must return the same
    interned term."""
    expected = _ref_substitute(term, mapping)
    got = T.substitute(term, mapping)
    assert got is expected
    return got


@settings(max_examples=80, deadline=None)
@given(dag.STEPS)
def test_size_matches_fresh_dag_count(steps):
    ints, bools = dag.build(steps)
    for t in ints + bools:
        expected = _ref_size(t)
        assert t.size() == expected
        assert t.size() == expected  # cached


@settings(max_examples=80, deadline=None)
@given(dag.STEPS, st.integers(0, 63), st.integers(0, 63))
def test_pruned_substitute_matches_tree_walk(steps, i, j):
    ints, bools = dag.build(steps)
    # Replacements may mention x, y and w, so binders over them capture.
    mapping = {dag.X: ints[i % len(ints)], dag.Y: ints[j % len(ints)]}
    for t in ints[-4:] + bools[-4:]:
        _same_substitution(t, mapping)


def test_substitute_renames_only_capturing_binders():
    # The Or mentions no substituted variable, so its quantifier comes
    # back as it was; only a binder that would capture the replacement's
    # x is renamed, to the least x!k that no variable of the input holds.
    q = T.ForAll([x], T.Lt(x, I(1)))
    x1 = T.Var("x!1", INT)
    p = T.ForAll([x], T.Lt(T.Add(x, x1), y))
    t = T.And(T.Lt(y, z), T.Or(T.Lt(z, I(0)), q), p)
    out = _same_substitution(t, {y: x})
    x2 = T.Var("x!2", INT)
    assert out is T.And(T.Lt(x, z), T.Or(T.Lt(z, I(0)), q),
                        T.ForAll([x2], T.Lt(T.Add(x2, x1), x)))
    # The result depends only on the input: the same call gives it again.
    assert T.substitute(t, {y: x}) is out
