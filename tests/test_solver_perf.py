"""The profile-driven solver performance pass, differentially.

Three guarantees, each with its own section:

* **Matcher differential** — the incremental E-matcher (persistent
  apps-by-decl index + watermarks + fired-set memo + congruent-instance
  skip) must be *observationally identical* to the naive full-rescan
  matcher: same verdicts and same diagnostics on every case study, under
  every scheduler mode (serial, parallel jobs, warm contexts,
  cache-warm re-runs).

* **Index maintenance** — the EufSolver's persistent apps-by-decl index
  and the matcher watermarks must track push/pop exactly: terms
  registered inside a popped scope disappear from the index, and a
  re-match after the pop reproduces the pre-push result.

* **Pruning soundness** — per-obligation context pruning may only drop
  axioms that cannot fire; failing obligations must keep failing with
  the same taxonomy (never crash, never flip to PROVED), and obligations
  that need an axiom reachable only through another axiom's body must
  keep both.
"""

import json

from hypothesis import given, settings

from repro.api import Session, VerifyConfig
from repro.lang import (BOOL, INT, U64, Module, assert_, call, exec_fn,
                        lit, ret, spec_fn, var)
from repro.millibench.lists import (build_doubly_linked_module,
                                    build_singly_linked_module)
from repro.smt import terms as T
from repro.smt.euf import EufSolver
from repro.smt.quant import EMatcher
from repro.smt.lia import LinExpr
from repro.smt.solver import SmtSolver, SolverConfig, _TheoryModel
from repro.systems.ironkv.delegation_map import build_default_module
from repro.systems.ironkv.marshal_verified import build_u64_roundtrip_module
from repro.systems.mimalloc.verified import build_bit_tricks_module
from repro.vc.errors import PROVED
from repro.vc.prune import axiom_decl, bytes_saved, prune_axioms
from repro.vc.wp import VcConfig
from tests import dag_terms as dag

CASE_STUDIES = [
    ("fig7a_single", build_singly_linked_module),
    ("fig7a_double", build_doubly_linked_module),
    ("fig10_delegation_map", build_default_module),
    ("fig10_marshal", build_u64_roundtrip_module),
    ("fig13_bit_tricks", build_bit_tricks_module),
]


def _naive_vc_config():
    return VcConfig(solver_config=SolverConfig(incremental_ematch=False))


def _signature(result):
    """Verdict + diagnostics signature, stripped of timing and effort."""
    payload = json.loads(json.dumps(result.to_json()))
    payload["seconds"] = 0
    payload.pop("stats", None)
    payload.pop("inst_profile", None)
    for f in payload["functions"]:
        f["seconds"] = 0
        for o in f["obligations"]:
            o["seconds"] = 0
    for o in payload.get("failures", []):
        o["seconds"] = 0
    return payload


class TestMatcherDifferential:
    """Incremental matcher == naive matcher, everywhere it runs."""

    def _reference(self, builder):
        return _signature(Session(VerifyConfig(diagnostics=True))
                          .verify_module(builder(), _naive_vc_config()))

    def test_serial_warm_jobs_cache_match_naive(self, tmp_path):
        for label, builder in CASE_STUDIES:
            ref = self._reference(builder)
            modes = {
                "serial": VerifyConfig(diagnostics=True),
                "jobs": VerifyConfig(diagnostics=True, jobs=2),
            }
            for mode, cfg in modes.items():
                got = _signature(Session(cfg).verify_module(builder()))
                assert got == ref, (label, mode)
            cache = str(tmp_path / f"cache_{label}")
            cold = _signature(
                Session(VerifyConfig(diagnostics=True, cache_dir=cache))
                .verify_module(builder()))
            cachewarm = _signature(
                Session(VerifyConfig(diagnostics=True, cache_dir=cache))
                .verify_module(builder()))
            assert cold == ref, (label, "cache-cold")
            assert cachewarm == ref, (label, "cache-warm")


class TestIndexMaintenance:
    """Apps-by-decl index and watermarks across push/pop."""

    def _setup(self):
        euf = EufSolver()
        f = T.FuncDecl("f", [T.INT], T.INT)
        a, b = T.Var("a", T.INT), T.Var("b", T.INT)
        for t in (T.App(f, a), T.App(f, b)):
            euf.add_term(t)
        return euf, f, a, b

    def test_pop_removes_scoped_apps(self):
        euf, f, a, b = self._setup()
        assert len(euf.apps_of(f)) == 2
        euf.push()
        c = T.Var("c", T.INT)
        euf.add_term(T.App(f, c))
        assert len(euf.apps_of(f)) == 3
        euf.pop()
        assert len(euf.apps_of(f)) == 2
        # The index must hold exactly the surviving applications.
        assert set(euf.apps_of(f)) == {T.App(f, a), T.App(f, b)}

    def test_rematch_after_pop_reproduces_prepush(self):
        euf, f, a, b = self._setup()
        x = T.Var("x", T.INT)
        pattern = T.App(f, x)
        matcher = EMatcher(euf, incremental=True)
        before = matcher.match_group([pattern], (x,), state_key="q")
        assert {s[x] for s in before} == {a, b}
        euf.push()
        c = T.Var("c", T.INT)
        euf.add_term(T.App(f, c))
        delta = matcher.match_group([pattern], (x,), state_key="q")
        assert {s[x] for s in delta} == {c}
        euf.pop()
        # A fresh matcher (what each solver round builds) sees exactly
        # the pre-push candidate set again.
        after = EMatcher(euf, incremental=True).match_group(
            [pattern], (x,), state_key="q")
        assert {s[x] for s in after} == {a, b}

    def test_watermark_skips_unchanged_group(self):
        euf, f, a, b = self._setup()
        x = T.Var("x", T.INT)
        pattern = T.App(f, x)
        matcher = EMatcher(euf, incremental=True)
        matcher.match_group([pattern], (x,), state_key="q")
        assert matcher.rescans_avoided == 0
        assert matcher.match_group([pattern], (x,), state_key="q") == []
        assert matcher.rescans_avoided == 1
        # A different consumer of the same group gets the full result.
        full = matcher.match_group([pattern], (x,), state_key="q2")
        assert {s[x] for s in full} == {a, b}


def _mk_axiom(decl, body_decl=None):
    """forall x :pattern (decl x). decl(x) == (body_decl(x) | x)."""
    x = T.Var(f"x_{decl.name}", T.INT)
    app = T.App(decl, x)
    rhs = T.App(body_decl, x) if body_decl is not None else x
    return T.ForAll([x], T.Eq(app, rhs), triggers=[[app]])


class TestPruning:
    def test_transitive_reachability_keeps_chain(self):
        fd = T.FuncDecl("pf", [T.INT], T.INT)
        gd = T.FuncDecl("pg", [T.INT], T.INT)
        hd = T.FuncDecl("ph", [T.INT], T.INT)
        ax_f = _mk_axiom(fd, gd)     # pf's body mentions pg
        ax_g = _mk_axiom(gd)
        ax_h = _mk_axiom(hd)         # unreachable from the goal
        a = T.Var("a", T.INT)
        goal = T.Ge(T.App(fd, a), T.IntVal(0))
        kept, dropped = prune_axioms([ax_f, ax_g, ax_h], goal, [])
        assert kept == [ax_f, ax_g]
        assert dropped == [ax_h]
        assert bytes_saved(dropped) > 0

    def test_assumptions_seed_reachability(self):
        fd = T.FuncDecl("paf", [T.INT], T.INT)
        ax = _mk_axiom(fd)
        a = T.Var("a", T.INT)
        kept, dropped = prune_axioms(
            [ax], T.Ge(a, T.IntVal(0)), [T.Ge(T.App(fd, a), T.IntVal(1))])
        assert kept == [ax] and dropped == []

    def test_multi_trigger_axioms_never_pruned(self):
        fd = T.FuncDecl("pmf", [T.INT], T.INT)
        gd = T.FuncDecl("pmg", [T.INT], T.INT)
        x = T.Var("x", T.INT)
        two_groups = T.ForAll([x], T.Eq(T.App(fd, x), T.App(gd, x)),
                              triggers=[[T.App(fd, x)], [T.App(gd, x)]])
        assert axiom_decl(two_groups) is None
        a = T.Var("a", T.INT)
        kept, dropped = prune_axioms([two_groups],
                                     T.Ge(a, T.IntVal(0)), [])
        assert kept == [two_groups] and dropped == []

    def _failing_module(self):
        """An assert that needs a spec-function fact it doesn't have."""
        mod = Module("prune_fail")
        x = var("x", U64)
        spec_fn(mod, "big", [("x", INT)], BOOL,
                body=var("x", INT) >= lit(100))
        exec_fn(mod, "bad", [("x", U64)],
                requires=[call(mod, "big", x)],
                body=[assert_(x >= lit(200))])
        return mod

    def test_failure_taxonomy_survives_pruning(self):
        """A genuinely failing goal still fails with assert taxonomy —
        pruning must not crash the discharge or distort the diagnosis."""
        pruned = Session(VerifyConfig(diagnostics=True)).verify_module(
            self._failing_module())
        unpruned = Session(VerifyConfig(diagnostics=True)).verify_module(
            self._failing_module(), VcConfig(prune_context=False))
        assert not pruned.ok and not unpruned.ok
        sigs = [[(fn, o.label, o.status, o.error_type)
                 for fn, o in r.failures()] for r in (pruned, unpruned)]
        assert sigs[0] == sigs[1]
        assert sigs[0], "expected at least one failing obligation"
        for _, ob in pruned.failures():
            assert ob.diag is not None and ob.diag.error_type

    def test_needed_axiom_is_kept(self):
        """A proof that hinges on a spec-function definition must still
        go through with pruning on (the axiom is reachable and kept)."""
        mod = Module("prune_need")
        x = var("x", U64)
        spec_fn(mod, "lo", [("x", INT)], BOOL,
                body=var("x", INT) >= lit(10))
        exec_fn(mod, "ok", [("x", U64)],
                requires=[call(mod, "lo", x)],
                body=[assert_(x >= lit(10))])
        result = Session(VerifyConfig()).verify_module(mod)
        assert result.ok
        for fn in result.functions:
            for ob in fn.obligations:
                assert ob.status == PROVED

    def test_pruning_counters_surface(self):
        """Dropped axioms show up in the merged module stats.

        Triage off: pruning happens at encoding time, which statically
        discharged obligations never reach."""
        result = Session(VerifyConfig(triage="off")).verify_module(
            build_u64_roundtrip_module())
        assert result.ok
        assert result.stats.get("pruned_axioms", 0) > 0
        assert result.stats.get("query_bytes_saved", 0) > 0


# -- memoized traversals vs. reference tree walks -----------------------------


def _ref_lift(solver, t):
    """SmtSolver._lift_ground as a plain recursive walk: revisits of a
    shared subterm are recomputed (idempotently) instead of memoized."""
    if t.is_quant():
        return t
    if t.kind == T.ITE and t.sort is not T.BOOL:
        cached = solver._ite_cache.get(t)
        if cached is not None:
            return cached
        c, a, b = (_ref_lift(solver, arg) for arg in t.args)
        v = T.Var(T.fresh_name("ite"), t.sort)
        solver._ite_cache[t] = v
        solver._sat.add_clause([solver._tseitin(
            T.And(T.Implies(c, T.Eq(v, a)), T.Implies(T.Not(c), T.Eq(v, b))))])
        return v
    if t.kind in (T.IDIV, T.IMOD):
        a, b = (_ref_lift(solver, arg) for arg in t.args)
        solver._add_divmod_axioms(a, b)
        return T.Div(a, b) if t.kind == T.IDIV else T.Mod(a, b)
    new_args = tuple(_ref_lift(solver, a) for a in t.args)
    return t if new_args == t.args else T._rebuild(t, new_args)


def _ref_linearize(t):
    """_TheoryModel._linearize without the memo."""
    if t.kind == T.INT_CONST:
        return LinExpr.constant(t.payload)
    if t.kind == T.ADD:
        out = LinExpr()
        for a in t.args:
            out = out + _ref_linearize(a)
        return out
    if t.kind == T.SUB:
        return _ref_linearize(t.args[0]) - _ref_linearize(t.args[1])
    if t.kind == T.NEG:
        return _ref_linearize(t.args[0]).scale(-1)
    if t.kind == T.MUL:
        a, b = t.args
        if a.kind == T.INT_CONST:
            return _ref_linearize(b).scale(a.payload)
        if b.kind == T.INT_CONST:
            return _ref_linearize(a).scale(b.payload)
    return LinExpr.var(t)


def _lift_trace(lift, formula, start):
    """Lift ``formula`` on a fresh solver from fresh-name counter
    ``start``: the result, every SAT clause added, the atoms registered
    and how many fresh names were drawn."""
    solver = SmtSolver()
    clauses = []
    add_clause = solver._sat.add_clause

    def recording(lits, *args, **kwargs):
        clauses.append(list(lits))
        return add_clause(lits, *args, **kwargs)

    solver._sat.add_clause = recording
    T._fresh_counter[0] = start
    out = lift(solver, formula)
    return (out, clauses, dict(solver._atom_var),
            T._fresh_counter[0] - start)


def _lin_key(e):
    return dict(e.coeffs), e.const


class TestMemoizedTraversals:
    @settings(max_examples=60, deadline=None)
    @given(dag.STEPS)
    def test_lift_ground_matches_tree_walk(self, steps):
        ints, bools = dag.build(steps)
        # Shared ITE / div / mod nodes appear under several atoms.
        formula = T.And(*bools[-3:], T.Le(ints[-1], ints[-2]),
                        T.Eq(ints[-1], T.Add(ints[-2], ints[-3])))
        start = T._fresh_counter[0]
        expected = _lift_trace(_ref_lift, formula, start)
        got = _lift_trace(lambda s, f: s._lift_ground(f), formula, start)
        assert got[0] is expected[0]
        assert got[1] == expected[1]
        assert got[2] == expected[2]
        assert got[3] == expected[3]

    @settings(max_examples=60, deadline=None)
    @given(dag.STEPS)
    def test_linearize_matches_tree_walk(self, steps):
        ints, _ = dag.build(steps, quantifiers=False)
        model = _TheoryModel(SmtSolver(), None, set())
        for t in ints:
            first = model._linearize(t)
            assert _lin_key(first) == _lin_key(_ref_linearize(t))
            assert model._linearize(t) is first

    @settings(max_examples=25, deadline=None)
    @given(dag.STEPS)
    def test_check_never_mutates_cached_linear_forms(self, steps):
        ints, bools = dag.build(steps, quantifiers=False)
        solver = SmtSolver()
        solver.add(T.And(*bools[-3:], T.Le(ints[-1], ints[-2])))
        solver.add(T.Or(T.Lt(ints[-2], ints[-3]), T.Eq(ints[-1], ints[0])))
        solver.check(timeout=5)
        for t, e in solver._linear.items():
            assert _lin_key(e) == _lin_key(_ref_linearize(t))
