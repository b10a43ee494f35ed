"""Static proving tier tests (repro.analysis.absint).

Three layers, mirroring the tier's soundness argument:

1. **domain lattices** — interval/constant/congruence algebra: join is
   an upper bound, meet is sound (never loses members of both sides),
   and the abstract arithmetic over-approximates the concrete
   arithmetic on sampled members;
2. **term-level differentials** — whenever ``entails`` claims an
   obligation, a fresh :class:`SmtSolver` on ``assumptions ∧ ¬goal``
   must answer UNSAT (the tier is a sound pre-filter, never a
   disagreeing oracle), fuzzed over randomized integer-fragment
   obligations; and the abstract value ``build_env`` gives a random
   composed term must contain the term's concrete value
   (:func:`repro.smt.compute.evaluate`) under any substitution drawn
   inside the assumed bounds;
3. **scheduler integration** — verdict signatures are byte-identical
   with triage on vs off, serial vs jobs=2, cold vs cache-warm; no
   static claim replays into a triage-off run; shadow mode actually runs
   the solver (or replays its cached verdict) and raises
   ``TriageDisagreement`` when a (fault-injected) tier claim meets a
   solver refutation.
"""

import random

import pytest

from repro.analysis.absint import (Triage, TriageDisagreement,
                                   triage_preview)
from repro.analysis.absint.domains import (BOT_VAL, TOP_VAL, Congruence,
                                           Const, Interval, Val, cmp_eq,
                                           cmp_le, cmp_lt)
from repro.analysis.absint.transfer import build_env, entails
from repro.api import Session, VerifyConfig
from repro.lang import *
from repro.smt import terms as T
from repro.smt.compute import evaluate
from repro.smt.solver import (SAT, UNSAT, SmtSolver,
                              total_solver_constructions)
from repro.smt.sorts import INT as SINT
from repro.vc.errors import PROVED

# ---------------------------------------------------------------------------
# 1. domain lattices
# ---------------------------------------------------------------------------

SAMPLES = [-7, -4, -1, 0, 1, 2, 3, 4, 5, 8, 12, 100]


def _members(itv, lo=-20, hi=20):
    return [v for v in range(lo, hi + 1) if itv.contains(v)]


def test_interval_join_upper_bound():
    rng = random.Random(7)
    for _ in range(200):
        a = Interval(rng.randint(-10, 5), rng.randint(-4, 15))
        b = Interval(rng.randint(-10, 5), rng.randint(-4, 15))
        j = a.join(b)
        # Finite bounds throughout: a non-empty input's bounds lie
        # within the join's.
        for itv in (a, b):
            if not itv.is_empty:
                assert j.lo <= itv.lo and itv.hi <= j.hi
        for v in _members(a) + _members(b):
            assert j.contains(v)


def test_interval_meet_exact():
    a, b = Interval(0, 10), Interval(5, None)
    m = a.meet(b)
    assert m == Interval(5, 10)
    assert Interval(0, 3).meet(Interval(5, 9)).is_empty


def test_interval_euclidean_mod_nonnegative():
    # Euclidean a mod b lands in [0, |b|-1] regardless of signs.
    m = Interval(-9, 9).mod(Interval(4, 4))
    for a in range(-9, 10):
        assert m.contains(a % 4)
    assert m.lo >= 0 and m.hi <= 3


def test_interval_mod_divisor_straddling_zero_is_top():
    # The solver's divmod axioms are guarded by b>=1 / b<=-1; a divisor
    # range containing 0 leaves mod uninterpreted, so the abstract
    # result must be top — never [0, max|b|-1].
    assert Interval(-9, 9).mod(Interval(0, 3)) == Interval()
    assert Interval(-9, 9).mod(Interval(-3, 3)) == Interval()
    assert Interval(-9, 9).mod(Interval(0, 0)) == Interval()
    assert Interval(-9, 9).mod(Interval(None, 3)) == Interval()
    assert Interval(-9, 9).mod(Interval(-3, None)) == Interval()
    assert Interval(-9, 9).mod(Interval(None, None)) == Interval()
    # Sign-fixed divisors stay bounded (and sound on members).
    assert Interval(-9, 9).mod(Interval(1, 3)) == Interval(0, 2)
    assert Interval(-9, 9).mod(Interval(2, None)) == Interval(0, None)
    m = Interval(-9, 9).mod(Interval(-5, -2))
    for a in range(-9, 10):
        for b in (-5, -4, -3, -2):
            assert m.contains(a % abs(b))
    assert m == Interval(0, 4)
    assert Interval(-9, 9).mod(Interval(None, -2)) == Interval(0, None)


def test_congruence_join_gcd_meet_crt():
    a, b = Congruence(4, 1), Congruence(6, 3)
    j = a.join(b)
    for v in range(-50, 50):
        if a.contains(v) or b.contains(v):
            assert j.contains(v)
    # CRT meet: x ≡ 1 mod 4 and x ≡ 3 mod 6 → x ≡ 9 mod 12.
    m = a.meet(b)
    for v in range(-50, 50):
        assert m.contains(v) == (v % 4 == 1 and v % 6 == 3)
    # Incompatible residues meet to bottom.
    assert Congruence(4, 1).meet(Congruence(4, 2)).is_bottom


def test_val_arithmetic_over_approximates():
    rng = random.Random(11)
    ops = [("add", lambda x, y: x + y),
           ("sub", lambda x, y: x - y),
           ("mul", lambda x, y: x * y)]
    for _ in range(300):
        xa, xb = sorted(rng.sample(range(-12, 13), 2))
        ya, yb = sorted(rng.sample(range(-12, 13), 2))
        av, bv = Val.range(xa, xb), Val.range(ya, yb)
        x, y = rng.randint(xa, xb), rng.randint(ya, yb)
        for name, conc in ops:
            out = getattr(av, name)(bv)
            got = conc(x, y)
            assert out.itv.contains(got), (name, x, y, out)
            assert out.cong.contains(got), (name, x, y, out)


def test_val_const_and_cmp_three_valued():
    assert Val.const(5).as_const() == 5
    assert cmp_le(Val.range(0, 3), Val.range(3, None)) is True
    assert cmp_lt(Val.range(0, 3), Val.range(4, None)) is True
    assert cmp_lt(Val.range(0, 3), Val.range(3, None)) is None
    assert cmp_eq(Val.const(2), Val.const(2)) is True
    assert cmp_eq(Val.const(2), Val.const(3)) is False
    # Bottom is vacuously anything.
    assert cmp_le(BOT_VAL, Val.const(0)) is True


def test_val_reduce_congruence_tightens_interval():
    # x in [1, 6] with x ≡ 0 mod 4 reduces to the constant 4.
    v = Val(Interval(1, 6), Const("top"), Congruence(4, 0)).reduce()
    assert v.as_const() == 4


# ---------------------------------------------------------------------------
# 2. term-level differentials: entails ⇒ solver UNSAT on ¬goal, and
#    abstract eval contains concrete eval
# ---------------------------------------------------------------------------

def _random_obligation(rng):
    """(assumptions, goal) over a couple of integer variables."""
    x = T.Var("x", SINT)
    y = T.Var("y", SINT)
    lo, hi = sorted(rng.sample(range(-8, 33), 2))
    k = rng.choice([2, 3, 4, 8])
    r = rng.randrange(k)
    assumptions = [T.Le(T.IntVal(lo), x), T.Lt(x, T.IntVal(hi))]
    if rng.random() < 0.6:
        assumptions.append(T.Eq(T.Mod(x, T.IntVal(k)), T.IntVal(r)))
    if rng.random() < 0.5:
        assumptions.append(T.Eq(y, T.Add(x, T.IntVal(rng.randint(0, 5)))))
    else:
        assumptions.append(T.Le(x, y))
    rng.shuffle(assumptions)
    goals = [
        T.Le(T.IntVal(lo), x),
        T.Lt(x, T.IntVal(hi + rng.randint(0, 3))),
        T.Le(T.IntVal(lo - rng.randint(0, 3)), y),
        T.And(T.Le(T.IntVal(lo), x), T.Lt(x, T.IntVal(hi))),
        T.Eq(T.Mod(x, T.IntVal(k)), T.IntVal(r)),
        T.Implies(T.Lt(x, T.IntVal(lo)), T.FALSE),
        # Variable divisor whose range may straddle 0 (mod is then
        # uninterpreted in the solver): claimable only when the
        # assumptions force y >= 1.
        T.Le(T.IntVal(0), T.Mod(x, y)),
        # Deliberately unprovable sometimes: tier must just decline.
        T.Lt(y, T.IntVal(rng.randint(-5, 5))),
        T.Eq(x, T.IntVal(rng.randint(lo, hi - 1))),
    ]
    return assumptions, rng.choice(goals)


def test_entails_never_disagrees_with_solver():
    rng = random.Random(1234)
    claimed = 0
    for _ in range(120):
        assumptions, goal = _random_obligation(rng)
        proved, _passes = entails(assumptions, goal)
        if not proved:
            continue
        claimed += 1
        s = SmtSolver()
        for a in assumptions:
            s.add(a)
        s.add(T.Not(goal))
        assert s.check() == UNSAT, (assumptions, goal)
    # The generator is tilted so a healthy share is actually provable;
    # a tier that never claims would vacuously pass the loop above.
    assert claimed >= 20


def test_entails_declines_falsifiable_goals():
    x = T.Var("x", SINT)
    proved, _ = entails([T.Le(T.IntVal(0), x)], T.Lt(x, T.IntVal(10)))
    assert not proved
    # ... and the solver confirms the negation is satisfiable.
    s = SmtSolver()
    s.add(T.Le(T.IntVal(0), x))
    s.add(T.Not(T.Lt(x, T.IntVal(10))))
    assert s.check() == SAT


def test_entails_declines_mod_with_divisor_straddling_zero():
    # Reviewer repro: with 0 <= b <= 3 the divisor may be 0, where the
    # solver's mod is uninterpreted — the tier must not claim
    # 0 <= a mod b, and the solver indeed finds a countermodel (b=0).
    a = T.Var("a", SINT)
    b = T.Var("b", SINT)
    assumptions = [T.Le(T.IntVal(0), b), T.Le(b, T.IntVal(3))]
    goal = T.Le(T.IntVal(0), T.Mod(a, b))
    proved, _ = entails(assumptions, goal)
    assert not proved
    s = SmtSolver()
    for t in assumptions:
        s.add(t)
    s.add(T.Not(goal))
    assert s.check() == SAT
    # Excluding 0 restores the guarded axiom, and the claim is sound.
    proved, _ = entails([T.Le(T.IntVal(1), b), T.Le(b, T.IntVal(3))], goal)
    assert proved
    s = SmtSolver()
    s.add(T.Le(T.IntVal(1), b))
    s.add(T.Le(b, T.IntVal(3)))
    s.add(T.Not(goal))
    assert s.check() == UNSAT


def test_entails_bottom_assumptions_prove_anything():
    x = T.Var("x", SINT)
    contradiction = [T.Le(T.IntVal(5), x), T.Lt(x, T.IntVal(5))]
    proved, _ = entails(contradiction, T.Eq(x, T.IntVal(777)))
    assert proved
    s = SmtSolver()
    for a in contradiction:
        s.add(a)
    assert s.check() == UNSAT


def test_build_env_congruence_refinement():
    x = T.Var("x", SINT)
    env, _passes = build_env([
        T.Le(T.IntVal(0), x),
        T.Lt(x, T.IntVal(64)),
        T.Eq(T.Mod(x, T.IntVal(8)), T.IntVal(0)),
    ])
    v = env.eval(x)
    # The reduced product snaps the upper bound to the largest multiple
    # of 8 below 64.
    assert v.itv.lo == 0 and v.itv.hi == 56
    assert v.cong.contains(56) and not v.cong.contains(57)


def _random_int_term(rng, xs, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return rng.choice(xs)
        return T.IntVal(rng.randint(-6, 6))
    a = _random_int_term(rng, xs, depth - 1)
    op = rng.choice(["add", "sub", "mul", "div", "mod", "ite"])
    if op in ("div", "mod"):
        # Nonzero literal divisors: the solver leaves division by zero
        # uninterpreted, so it has no concrete value to compare against.
        k = T.IntVal(rng.choice([2, 3, 4, 6, -3, -4, 5]))
        return T.Div(a, k) if op == "div" else T.Mod(a, k)
    b = _random_int_term(rng, xs, depth - 1)
    if op == "ite":
        c = rng.choice([T.Lt, T.Le, T.Eq])(
            _random_int_term(rng, xs, depth - 1),
            _random_int_term(rng, xs, depth - 1))
        return T.Ite(c, a, b)
    return {"add": T.Add, "sub": T.Sub, "mul": T.Mul}[op](a, b)


def test_env_eval_contains_concrete_value():
    rng = random.Random(99)
    xs = [T.Var(n, SINT) for n in ("p", "q", "r")]
    for _ in range(2000):
        t = _random_int_term(rng, xs, 3)
        assumptions, sub = [], {}
        for x in xs:
            lo, hi = sorted(rng.sample(range(-9, 10), 2))
            assumptions += [T.Le(T.IntVal(lo), x), T.Le(x, T.IntVal(hi))]
            sub[x] = T.IntVal(rng.randint(lo, hi))
        abstract = build_env(assumptions)[0].eval(t)
        concrete = evaluate(T.substitute(t, sub))
        assert concrete.kind == T.INT_CONST, (t, sub, concrete)
        got = concrete.payload
        assert abstract.itv.contains(got), (t, sub, abstract)
        assert abstract.cong.contains(got), (t, sub, abstract)
        if abstract.as_const() is not None:
            assert abstract.as_const() == got, (t, sub, abstract)


# ---------------------------------------------------------------------------
# 3. scheduler integration
# ---------------------------------------------------------------------------

def _case_module():
    """A module the tier can partially discharge: bounds + parity goals."""
    mod = Module("absint_sched")
    x = var("x", U64)
    r = var("res", U64)
    exec_fn(mod, "clamp", [("x", U64)], ret=("res", U64),
            requires=[x < lit(1000)],
            ensures=[r < lit(2000), r >= lit(0)],
            body=[ret(x + x)])
    exec_fn(mod, "step4", [("x", U64)], ret=("res", U64),
            requires=[x % lit(4) == lit(0), x < lit(100)],
            ensures=[r % lit(4) == lit(0)],
            body=[ret(x + lit(4))])
    return mod


def _signature(res):
    return [(f.name, o.label, o.kind, o.status)
            for f in res.functions for o in f.obligations]


def _verify(mod_builder, **cfg):
    with Session(VerifyConfig(**cfg)) as session:
        return session.verify_module(mod_builder())


def test_triage_discharges_and_matches_off():
    on = _verify(_case_module, triage="on")
    off = _verify(_case_module, triage="off")
    assert on.ok and off.ok
    assert _signature(on) == _signature(off)
    assert on.stats.get("static_proved", 0) >= 1
    assert (on.stats.get("solver_constructions_avoided", 0)
            == on.stats.get("static_proved", 0))
    # Static verdicts surface as PROVED, answered by the static tier.
    marked = [o for f in on.functions for o in f.obligations
              if o.answered_by == "static"]
    assert len(marked) == on.stats["static_proved"]
    assert all(o.status == PROVED for o in marked)


def test_triage_serial_vs_jobs2_identical():
    serial = _verify(_case_module, triage="on", jobs=1)
    par = _verify(_case_module, triage="on", jobs=2)
    assert _signature(serial) == _signature(par)
    assert (serial.stats.get("static_proved", 0)
            == par.stats.get("static_proved", 0) >= 1)


def test_triage_cache_warm_replays_static(tmp_path):
    cache = str(tmp_path / "pv_cache")
    cold = _verify(_case_module, triage="on", cache_dir=cache)
    before = total_solver_constructions()
    warm = _verify(_case_module, triage="on", cache_dir=cache)
    assert total_solver_constructions() == before  # zero solvers built
    assert _signature(cold) == _signature(warm)
    assert (warm.stats.get("static_proved", 0)
            == cold.stats.get("static_proved", 0) >= 1)


def test_static_cache_entry_is_miss_when_triage_off(tmp_path):
    cache = str(tmp_path / "pv_cache")
    cold = _verify(_case_module, triage="on", cache_dir=cache)
    n_static = cold.stats["static_proved"]
    assert n_static >= 1
    # Triage off must NOT replay a static claim (none is stored): the
    # solver proves those obligations (constructions observable), with
    # verdicts unchanged.
    before = total_solver_constructions()
    off = _verify(_case_module, triage="off", cache_dir=cache)
    assert total_solver_constructions() - before >= n_static
    assert _signature(off) == _signature(cold)
    assert off.stats.get("static_proved", 0) == 0
    # The solver verdicts were stored: a second off-run is a pure cache
    # replay.
    before = total_solver_constructions()
    off2 = _verify(_case_module, triage="off", cache_dir=cache)
    assert total_solver_constructions() == before
    assert _signature(off2) == _signature(cold)


def test_delta_replay_drops_static_provenance_when_triage_off(tmp_path):
    cache = str(tmp_path / "pv_cache")
    cold = _verify(_case_module, triage="on", cache_dir=cache, delta=True)
    assert cold.stats["static_proved"] >= 1
    # The delta digest keys on whether the static tier answers: a
    # triage-off run never replays a function no solver checked, and
    # reports exactly what a triage-off cold run would — no static
    # provenance.  Its own entries then replay into the next off run.
    off = _verify(_case_module, triage="off", cache_dir=cache, delta=True)
    assert off.stats.get("delta_skips", 0) == 0
    again = _verify(_case_module, triage="off", cache_dir=cache, delta=True)
    assert again.stats.get("delta_skips", 0) >= 1
    for run in (off, again):
        assert run.ok
        assert not any(o.answered_by == "static"
                       for f in run.functions for o in f.obligations)
    assert {o.answered_by for f in again.functions
            for o in f.obligations} == {"delta"}
    # An on-mode warm run replays the functions the on-mode run stored.
    on = _verify(_case_module, triage="on", cache_dir=cache, delta=True)
    assert on.stats.get("delta_skips", 0) >= 1
    assert _signature(on) == _signature(cold)


def test_race_does_not_replay_static_entries_when_triage_off(tmp_path):
    cache = str(tmp_path / "pv_cache")
    # A triage-on aggressive run claims obligations whose digests the
    # default profile's race candidate ("aggressive") uses.
    cold = _verify(_case_module, profile="aggressive", triage="on",
                   cache_dir=cache)
    assert cold.stats["static_proved"] >= 1
    # max_steps=1 leaves the primary discharges stubborn, so they race;
    # with triage off the race must solve, never adopt a static claim.
    off = _verify(_case_module, triage="off", max_steps=1, portfolio=1,
                  cache_dir=cache)
    assert off.stats.get("portfolio_races", 0) >= 1
    assert not any(o.answered_by == "static"
                   for f in off.functions for o in f.obligations)


def test_shadow_mode_runs_solver_and_agrees():
    before = total_solver_constructions()
    off = _verify(_case_module, triage="off")
    off_built = total_solver_constructions() - before
    before = total_solver_constructions()
    shadow = _verify(_case_module, triage="shadow")
    shadow_built = total_solver_constructions() - before
    assert shadow.ok
    assert shadow_built == off_built  # shadow never skips the solver
    assert shadow.stats.get("static_proved", 0) >= 1
    assert shadow.stats.get("solver_constructions_avoided", 0) == 0
    assert _signature(shadow) == _signature(off)


def test_shadow_mode_raises_on_forced_disagreement(monkeypatch):
    # Fault-inject the tier: claim every obligation, including ones the
    # solver refutes.  Shadow mode must catch the lie loudly.
    import repro.analysis.absint as absint
    monkeypatch.setattr(absint.Triage, "check",
                        lambda self, item: (True, 1))
    mod = Module("absint_lie")
    x = var("x", INT)
    exec_fn(mod, "bad", [("x", INT)], ret=("r", INT),
            ensures=[var("r", INT).eq(x + 1)],
            body=[ret(x)])
    with pytest.raises(TriageDisagreement) as exc:
        _verify(lambda: mod, triage="shadow")
    assert "bad" in str(exc.value)


def test_shadow_mode_checks_cache_warm_runs(monkeypatch, tmp_path):
    # Triage runs before the cache lookup, so a warm shadow run compares
    # each claim with the replayed solver verdict too.
    import repro.analysis.absint as absint
    mod = Module("absint_warm_lie")
    x = var("x", INT)
    exec_fn(mod, "bad", [("x", INT)], ret=("r", INT),
            ensures=[var("r", INT).eq(x + 1)],
            body=[ret(x)])
    cache = str(tmp_path / "pv_cache")
    cold = _verify(lambda: mod, triage="off", cache_dir=cache)
    assert not cold.ok
    monkeypatch.setattr(absint.Triage, "check",
                        lambda self, item: (True, 1))
    before = total_solver_constructions()
    with pytest.raises(TriageDisagreement):
        _verify(lambda: mod, triage="shadow", cache_dir=cache)
    assert total_solver_constructions() == before


def test_triage_preview_counts():
    preview = triage_preview(_case_module())
    assert preview["module"] == "absint_sched"
    assert preview["obligations"] >= preview["static_proved"] >= 1
    assert preview["plan_errors"] == 0
    assert 0.0 <= preview["rate"] <= 1.0
    assert {f["function"] for f in preview["functions"]} \
        == {"clamp", "step4"}


def test_triage_mode_validation():
    with pytest.raises(ValueError):
        Triage("sideways")
    for mode in ("on", "off", "shadow"):
        assert Triage(mode).mode == mode


def test_render_marks_static_obligations():
    from repro.diag.render import module_to_json
    on = _verify(_case_module, triage="on")
    payload = module_to_json(on)
    assert payload["schema_version"] == 3
    flags = [o["answered_by"] == "static" for f in payload["functions"]
             for o in f["obligations"]]
    assert any(flags)
    assert sum(flags) == on.stats["static_proved"]
