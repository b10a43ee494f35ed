"""Tests for #[epr_mode] (§3.2): checking + complete automation."""

import pytest

from repro.epr import EprError, check_epr_module, verify_epr_module
from repro.lang import *

Node = StructType("TENode")
State = StructType("TEState")


def _lock_module():
    mod = Module("te_lock", epr_mode=True)
    mod.add(Function("holds", "spec",
                     [Param("s", State), Param("n", Node)],
                     ("result", BOOL)))
    s, s2 = var("s", State), var("s2", State)
    n1, n2 = var("n1", Node), var("n2", Node)

    def inv(st):
        return forall([("a", Node), ("b", Node)],
                      and_all(call(mod, "holds", st, var("a", Node)),
                              call(mod, "holds", st, var("b", Node))
                              ).implies(var("a", Node).eq(var("b", Node))))

    step = and_all(
        call(mod, "holds", s, n1),
        call(mod, "holds", s2, n2),
        forall([("m", Node)],
               call(mod, "holds", s2, var("m", Node)).implies(
                   var("m", Node).eq(n2))))
    proof_fn(mod, "step_preserves_mutex",
             [("s", State), ("s2", State), ("n1", Node), ("n2", Node)],
             requires=[inv(s), step], ensures=[inv(s2)], body=[])
    return mod, inv, step


def test_lock_invariant_fully_automatic():
    mod, _, _ = _lock_module()
    res = verify_epr_module(mod)
    assert res.ok


def test_broken_invariant_fails():
    mod = Module("te_lock_bad", epr_mode=True)
    mod.add(Function("holds", "spec",
                     [Param("s", State), Param("n", Node)],
                     ("result", BOOL)))
    s, s2 = var("s", State), var("s2", State)
    n2 = var("n2", Node)
    # "step" that only adds a holder without removing others
    step = call(mod, "holds", s2, n2)

    def inv(st):
        return forall([("a", Node), ("b", Node)],
                      and_all(call(mod, "holds", st, var("a", Node)),
                              call(mod, "holds", st, var("b", Node))
                              ).implies(var("a", Node).eq(var("b", Node))))

    proof_fn(mod, "bad_step", [("s", State), ("s2", State), ("n2", Node)],
             requires=[inv(s), step], ensures=[inv(s2)], body=[])
    # Small budgets: the complete-instantiation loop finds the countermodel
    # quickly; the default allowance is for hard *provable* goals.
    from repro.smt.solver import SolverConfig
    from repro.vc.wp import VcConfig
    res = verify_epr_module(mod, VcConfig(
        mbqi=True, solver_config=SolverConfig(
            mbqi=True, max_rounds=40, max_instantiations=3000,
            mbqi_max_universe=8)))
    assert not res.ok


def test_arithmetic_rejected():
    mod = Module("te_arith", epr_mode=True)
    x = var("x", INT)
    proof_fn(mod, "p", [("x", INT)], requires=[x > 0], ensures=[x >= 1],
             body=[])
    violations = check_epr_module(mod)
    assert violations
    with pytest.raises(EprError):
        verify_epr_module(mod)


def test_seq_rejected():
    SeqT = SeqType(INT)
    mod = Module("te_seq", epr_mode=True)
    s = var("s", SeqT)
    proof_fn(mod, "p", [("s", SeqT)], ensures=[s.length() >= 0], body=[])
    assert check_epr_module(mod)


def test_record_update_values_checked_like_literal_fields():
    # A functional record update holds field values just as a struct
    # literal does; the EPR check must see arithmetic and integer
    # literals in either position.
    Rec = StructType("TERec").declare([("b", BOOL), ("c", BOOL)])
    one_lt_two = lit(1) < lit(2)

    def reasons(body):
        mod = Module("te_rec", epr_mode=True)
        spec_fn(mod, "f", [("x", Rec)], Rec, body)
        return sorted(v.reason for v in check_epr_module(mod))

    built = reasons(struct(Rec, b=one_lt_two, c=lit(True)))
    updated = reasons(struct_update(var("x", Rec), b=one_lt_two))
    assert any("arithmetic" in r for r in built)
    assert any("integer literal" in r for r in built)
    assert updated == built


def test_function_cycle_rejected():
    A_ = StructType("TEA")
    B_ = StructType("TEB")
    mod = Module("te_cycle", epr_mode=True)
    mod.add(Function("f", "spec", [Param("a", A_)], ("result", B_)))
    mod.add(Function("g", "spec", [Param("b", B_)], ("result", A_)))
    violations = check_epr_module(mod)
    assert any("cycle" in v.reason for v in violations)


def test_quantifier_alternation_cycle():
    # forall a:A exists b:B ... in one fn, forall b:B exists a:A in another.
    A_ = StructType("TEA2")
    B_ = StructType("TEB2")
    mod = Module("te_qcycle", epr_mode=True)
    mod.add(Function("r", "spec", [Param("a", A_), Param("b", B_)],
                     ("result", BOOL)))
    f1 = forall([("a", A_)],
                exists([("b", B_)],
                       call(mod, "r", var("a", A_), var("b", B_))))
    f2 = forall([("b", B_)],
                exists([("a", A_)],
                       call(mod, "r", var("a", A_), var("b", B_))))
    proof_fn(mod, "p", [], requires=[f1, f2], ensures=[lit(True)], body=[])
    violations = check_epr_module(mod)
    assert any("cycle" in v.reason for v in violations)


def test_single_alternation_direction_allowed():
    A_ = StructType("TEA3")
    B_ = StructType("TEB3")
    mod = Module("te_qok", epr_mode=True)
    mod.add(Function("r", "spec", [Param("a", A_), Param("b", B_)],
                     ("result", BOOL)))
    f1 = forall([("a", A_)],
                exists([("b", B_)],
                       call(mod, "r", var("a", A_), var("b", B_))))
    proof_fn(mod, "p", [], requires=[f1], ensures=[lit(True)], body=[])
    assert check_epr_module(mod) == []


def test_transitivity_total_order_proof():
    # A totally ordered abstraction (how the delegation map abstracts keys).
    K = StructType("TEKey")
    mod = Module("te_order", epr_mode=True)
    mod.add(Function("lte", "spec", [Param("a", K), Param("b", K)],
                     ("result", BOOL)))
    a, b, c = var("a", K), var("b", K), var("c", K)

    def lte(x, y):
        return call(mod, "lte", x, y)

    total_order = [
        forall([("a", K), ("b", K), ("c", K)],
               and_all(lte(var("a", K), var("b", K)),
                       lte(var("b", K), var("c", K))).implies(
                   lte(var("a", K), var("c", K)))),
        forall([("a", K), ("b", K)],
               and_all(lte(var("a", K), var("b", K)),
                       lte(var("b", K), var("a", K))).implies(
                   var("a", K).eq(var("b", K)))),
        forall([("a", K), ("b", K)],
               or_all(lte(var("a", K), var("b", K)),
                      lte(var("b", K), var("a", K)))),
    ]
    proof_fn(mod, "antisym_consequence", [("a", K), ("b", K)],
             requires=total_order + [lte(a, b), lte(b, a)],
             ensures=[a.eq(b)], body=[])
    res = verify_epr_module(mod)
    assert res.ok
