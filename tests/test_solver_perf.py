"""The profile-driven solver performance pass, differentially.

Four guarantees, each with its own section:

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

* **Identity hashing** — terms hash by identity in dicts and sets, so
  the search must not depend on where terms sit in memory: the solver
  effort snapshot is unchanged under a shifted heap, and the
  congruent-instance skip's root tuples decide exactly what pairwise
  ``are_equal`` decides.
"""

import json
import os
import random
import subprocess
import sys

from hypothesis import given, settings

from repro.api import Session, VerifyConfig
from repro.lang import (BOOL, INT, U64, Module, assert_, call, exec_fn,
                        lit, ret, spec_fn, var)
from repro.millibench.lists import (build_doubly_linked_module,
                                    build_singly_linked_module)
from repro.smt import terms as T
from repro.smt.euf import EufSolver
from repro.smt.quant import EMatcher
from repro.smt.lia import LiaConflict, LiaUnknown, LinExpr, Simplex
from repro.smt.solver import (_STEP_QUANT, SmtSolver, SolverConfig,
                              _build_instance, _instance_template, _roots,
                              _TheoryModel)
from repro.smt.sorts import BOOL as BOOL_SORT, uninterpreted
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
    """Verdict + diagnostics signature, stripped of timing, effort and
    provenance (a cache-warm run answers from the cache)."""
    payload = json.loads(json.dumps(result.to_json()))
    payload["seconds"] = 0
    payload.pop("stats", None)
    payload.pop("inst_profile", None)
    for f in payload["functions"]:
        f["seconds"] = 0
        for o in f["obligations"]:
            o["seconds"] = 0
            o.pop("answered_by", None)
    for o in payload.get("failures", []):
        o["seconds"] = 0
        o.pop("answered_by", None)
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
        v = T.Var(solver._fresh("ite"), t.sort, reserved=True)
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


def _lift_trace(lift, formula):
    """Lift ``formula`` on a fresh solver: the result, every SAT clause
    added, the atoms registered and how many names the solver made."""
    solver = SmtSolver()
    clauses = []
    add_clause = solver._sat.add_clause

    def recording(lits, *args, **kwargs):
        clauses.append(list(lits))
        return add_clause(lits, *args, **kwargs)

    solver._sat.add_clause = recording
    out = lift(solver, formula)
    return out, clauses, dict(solver._atom_var), solver._names_drawn


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
        expected = _lift_trace(_ref_lift, formula)
        got = _lift_trace(lambda s, f: s._lift_ground(f), formula)
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


# ---------------------------------------------------------------------------
# Identity hashing
# ---------------------------------------------------------------------------

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestIdentityHashing:
    FAST_MODULES = ("fig7a.singly", "fig7a.doubly", "ironkv.marshal")

    def test_snapshot_unchanged_under_shifted_heap(self):
        # Ballast allocations interleaved with term creation move every
        # later term to another address, so term sets iterate in another
        # order; the committed snapshot must match under both layouts.
        cmd = [sys.executable, os.path.join(ROOT, "scripts",
                                            "solver_effort.py"), "--check"]
        for name in self.FAST_MODULES:
            cmd += ["--module", name]
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        for ballast in ("7", "101"):
            proc = subprocess.run(cmd + ["--ballast", ballast], env=env,
                                  capture_output=True, text=True,
                                  timeout=300)
            assert proc.returncode == 0, (ballast, proc.stdout[-3000:],
                                          proc.stderr[-3000:])
            assert "identical on all 3 modules" in proc.stdout

    def test_root_tuples_decide_pairwise_equality(self):
        S = uninterpreted("S")
        a, b, c, d = (T.Var(n, S) for n in "abcd")
        outside = T.Var("outside", S)
        euf = EufSolver()
        for t in (a, b, c, d):
            euf.add_term(t)
        euf.assert_eq(a, b, 1)
        euf.assert_eq(c, d, 2)
        terms = (a, b, c, d, outside)
        for p in terms:
            for q in terms:
                for r in terms:
                    for s in terms:
                        pairwise = (euf.are_equal(p, r)
                                    and euf.are_equal(q, s))
                        same = _roots(euf, (p, q)) == _roots(euf, (r, s))
                        assert pairwise == same, (p, q, r, s)


# ---------------------------------------------------------------------------
# Exactness of the hot-path shortcuts: each output is compared with a
# reference that does the work the long way, kept here.
# ---------------------------------------------------------------------------

class _PerCandidateMatcher(EMatcher):
    """Reference matcher: every candidate is matched, even when an earlier
    candidate of the same congruence class was."""

    __slots__ = ()
    delta_calls = 0

    def _per_class(self, candidates):
        return candidates

    def _match_delta(self, group, bound, watermark):
        type(self).delta_calls += 1
        return super()._match_delta(group, bound, watermark)


class _FullBasisSimplex(Simplex):
    """Reference simplex: Bland's rule over the whole basis."""

    __slots__ = ()

    def check(self, max_pivots=20000):
        pivots = 0
        while True:
            violated, direction, least = None, 0, len(self._order)
            for b in self._basic:
                val = self._value[b]
                lo, up = self._lower.get(b), self._upper.get(b)
                if lo is not None and val < lo.value:
                    d = +1
                elif up is not None and val > up.value:
                    d = -1
                else:
                    continue
                if self._order[b] < least:
                    violated, direction, least = b, d, self._order[b]
            if violated is None:
                return dict(self._value)
            pivots += 1
            self.num_pivots += 1
            if pivots > max_pivots:
                raise LiaUnknown("pivot budget exceeded")
            self._repair(violated, direction)


class TestHotPathExactness:
    S = uninterpreted("S")

    def _random_egraph(self, rng):
        S = self.S
        f = T.FuncDecl("f", [S], S)
        g = T.FuncDecl("g", [S, S], S)
        atoms = [T.Var(f"c{i}", S) for i in range(5)]
        terms = list(atoms)
        euf = EufSolver()
        for _ in range(rng.randrange(6, 30)):
            if rng.random() < 0.5:
                t = f(rng.choice(terms))
            else:
                t = g(rng.choice(terms), rng.choice(terms))
            terms.append(t)
            euf.add_term(t)
        for t in atoms:
            euf.add_term(t)
        for _ in range(rng.randrange(0, 8)):
            euf.assert_eq(rng.choice(terms), rng.choice(terms), "m")
        return euf, f, g, terms

    def test_per_class_matching_equals_per_candidate(self):
        S = self.S
        x, y, z = (T.Var(n, S) for n in ("x", "y", "z"))
        rng = random.Random(7)
        checked = 0
        _PerCandidateMatcher.delta_calls = 0
        for _ in range(150):
            euf, f, g, terms = self._random_egraph(rng)
            groups = [((f(x),), (x,)),
                      ((g(x, y),), (x, y)),
                      ((g(x, x),), (x,)),
                      ((g(f(x), y),), (x, y)),
                      ((f(f(x)),), (x,)),
                      ((f(x), g(y, z)), (x, y, z)),
                      ((g(x, y), f(y)), (x, y))]
            for incremental in (False, True):
                fast = EMatcher(euf, incremental=incremental)
                ref = _PerCandidateMatcher(euf, incremental=incremental)
                for group, bound in groups:
                    got = fast.match_group(group, bound)
                    assert got == ref.match_group(group, bound)
                    checked += len(got)
                if not incremental:
                    continue
                # New terms and no merge: single-pattern groups take the
                # delta path past their watermark.
                for _ in range(rng.randrange(1, 6)):
                    euf.add_term(f(rng.choice(terms)))
                    euf.add_term(g(rng.choice(terms), rng.choice(terms)))
                euf.flush()
                for group, bound in groups:
                    got = fast.match_group(group, bound)
                    assert got == ref.match_group(group, bound)
                    checked += len(got)
        assert checked > 1000
        assert _PerCandidateMatcher.delta_calls > 100

    def test_templates_build_the_substituted_body(self, monkeypatch):
        from repro.millibench.lists import build_memory_reasoning_module
        from repro.smt import solver as solver_mod
        from repro.systems.nr.model import build_nr_core_module
        built = [0]
        mismatches = []
        real = solver_mod._build_instance

        def checked(body, template, sub):
            out = real(body, template, sub)
            built[0] += 1
            if out is not T.substitute(body, sub):
                mismatches.append((body, sub))
            return out

        monkeypatch.setattr(solver_mod, "_build_instance", checked)
        for mod in (build_doubly_linked_module(), build_nr_core_module(),
                    build_memory_reasoning_module(3)):
            with Session(VerifyConfig(jobs=1)) as session:
                assert session.verify_module(mod).ok
        assert built[0] > 100
        assert not mismatches, mismatches[:3]

    def test_template_keeps_nested_binders_capture_free(self):
        S = self.S
        p = T.FuncDecl("p", [S, S], BOOL_SORT)
        h = T.FuncDecl("h", [S], S)
        x, y = T.Var("x", S), T.Var("y", S)
        inner = T.ForAll([y], p(x, y), [[p(x, y)]])
        quant = T.ForAll([x], T.And(p(h(x), x), inner))
        # The replacement mentions a free `y`, which the inner binder
        # would capture unless substitute renames it.
        sub = {x: h(y)}
        template = _instance_template(quant)
        assert [step for _, step in template].count(_STEP_QUANT) == 1
        body = _build_instance(quant.body, template, sub)
        assert body is T.substitute(quant.body, sub)
        renamed = body.args[1]
        assert renamed.bound_vars[0].payload == "y!1"
        assert y in body.free_vars()

    def test_dirty_set_simplex_equals_full_basis_scan(self):
        rng = random.Random(11)
        atoms = [f"v{i}" for i in range(6)]
        outcomes = 0
        for _ in range(200):
            fast, ref = Simplex(), _FullBasisSimplex()
            for _ in range(rng.randrange(3, 14)):
                expr = LinExpr({v: rng.choice((-3, -2, -1, 1, 2, 3))
                                for v in rng.sample(atoms,
                                                    rng.randrange(1, 4))},
                               rng.randrange(-9, 10))
                kind = rng.choice(("upper", "lower", "upper", "lower",
                                   "probe"))
                reason = rng.randrange(1000)
                results = []
                for simplex in (fast, ref):
                    try:
                        if kind == "probe":
                            simplex.push()
                            try:
                                simplex.assert_upper(expr, reason)
                                results.append(("model", simplex.check()))
                            finally:
                                simplex.pop()
                        else:
                            getattr(simplex, "assert_" + kind)(expr, reason)
                            results.append(
                                ("model", simplex.check(max_pivots=50)))
                    except LiaConflict as exc:
                        results.append(("conflict", exc.reasons))
                    except LiaUnknown:
                        results.append(("unknown", None))
                    results.append(simplex.num_pivots)
                assert results[:2] == results[2:]
                outcomes += 1
                if results[0][0] == "conflict" and kind != "probe":
                    break
        assert outcomes > 1000
