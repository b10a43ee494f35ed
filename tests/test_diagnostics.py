"""Tests for the diagnostics engine (repro.diag) and vc.errors.

Covers: the failure taxonomy (one deliberately broken module per
class), counterexample witnesses, assert/ensures splitting, the QI
profiler, determinism of diagnostics across serial / parallel /
cache-warm runs, deterministic failure ordering, and the result/report
plumbing in repro.vc.errors.
"""

import os

import pytest

from repro.diag import (Diagnostic, VerusErrorType, classify,
                        split_goal, top_instantiations)
from repro.diag.model import pretty_name
from repro.diag.profile import profile_table
from repro.lang import (BOOL, INT, U64, Module, VerificationFailure, and_all,
                        assert_, assign, exec_fn, forall, if_, let_,
                        lit, proof_fn, ret, spec_fn, var, while_)
from tests.helpers import diagnose, verify, verify_module
from repro.smt import terms as T
from repro.vc.ast import Span
from repro.vc.errors import (FAILED, PROVED, TIMEOUT, FunctionResult,
                             ModuleResult, Obligation)
from repro.api import Session
from repro.vc.wp import VcGen


# ---------------------------------------------------------------------------
# Broken-module builders (one per taxonomy class)
# ---------------------------------------------------------------------------

def _broken_postcond():
    mod = Module("bad_post")
    x = var("x", U64)
    exec_fn(mod, "inc", [("x", U64)], ret=("r", U64),
            requires=[x < lit(100)],
            ensures=[var("r", U64).eq(x + lit(2))],   # off by one
            body=[ret(x + lit(1))])
    return mod


def _broken_precond():
    mod = Module("bad_pre")
    x = var("x", U64)
    exec_fn(mod, "needs_pos", [("x", U64)],
            requires=[x >= lit(1)], body=[])
    from repro.lang import call_stmt
    exec_fn(mod, "caller", [],
            body=[call_stmt("needs_pos", [lit(0)])])
    return mod


def _broken_assert_conjunctive():
    mod = Module("bad_assert")
    x = var("x", U64)
    exec_fn(mod, "check", [("x", U64)],
            requires=[x < lit(10)],
            body=[assert_(and_all(x < lit(10), x >= lit(1)))])
    return mod


def _broken_inv_front():
    mod = Module("bad_inv_front")
    i = var("i", U64)
    n = var("n", U64)
    exec_fn(mod, "loop", [("n", U64)],
            body=[let_("i", lit(0)),
                  while_(i < n, invariants=[i >= lit(1)],  # false on entry
                         body=[assign("i", i + lit(1))])])
    return mod


def _broken_inv_end():
    mod = Module("bad_inv_end")
    i = var("i", U64)
    n = var("n", U64)
    exec_fn(mod, "loop", [("n", U64)],
            requires=[n < lit(100)],
            body=[let_("i", lit(0)),
                  while_(i < n, invariants=[i <= n],
                         body=[assign("i", i + lit(2))])])  # skips past n
    return mod


def _broken_overflow():
    mod = Module("bad_overflow")
    x = var("x", U64)
    exec_fn(mod, "bump", [("x", U64)],
            body=[let_("y", x + lit(1))])   # no bound on x
    return mod


def _broken_decreases():
    mod = Module("bad_dec")
    i = var("i", U64)
    n = var("n", U64)
    exec_fn(mod, "loop", [("n", U64)],
            requires=[n < lit(100)],
            body=[let_("i", lit(0)),
                  while_(i < n, invariants=[i <= n],
                         body=[assign("i", i + lit(1))],
                         decreases=n)])   # n never decreases
    return mod


# ---------------------------------------------------------------------------
# Taxonomy
# ---------------------------------------------------------------------------

class TestTaxonomy:
    def test_classify_table(self):
        assert classify("requires") is VerusErrorType.PRE_COND_FAIL
        assert classify("ensures") is VerusErrorType.POST_COND_FAIL
        assert classify("invariant", "loop invariant #0 on entry") \
            is VerusErrorType.INV_FAIL_FRONT
        assert classify("invariant", "loop invariant #0 preserved") \
            is VerusErrorType.INV_FAIL_END
        assert classify("assert") is VerusErrorType.ASSERT_FAIL
        assert classify("overflow") is VerusErrorType.ARITH_OVERFLOW
        assert classify("bounds") is VerusErrorType.BOUNDS_FAIL
        assert classify("termination") is VerusErrorType.DECREASES_FAIL
        # The kind wins even when the solver gave up...
        assert classify("assert", status=TIMEOUT) \
            is VerusErrorType.ASSERT_FAIL
        # ...RlimitExceeded is for obligations with no better class.
        assert classify("mystery", status=TIMEOUT) \
            is VerusErrorType.RLIMIT_EXCEEDED
        assert classify("mystery") is VerusErrorType.UNKNOWN_FAIL

    @pytest.mark.parametrize("builder,expected", [
        (_broken_postcond, "PostCondFail"),
        (_broken_precond, "PreCondFail"),
        (_broken_assert_conjunctive, "SplitAssertFail"),
        (_broken_inv_front, "InvFailFront"),
        (_broken_inv_end, "InvFailEnd"),
        (_broken_overflow, "ArithmeticOverflow"),
        (_broken_decreases, "DecreasesFail"),
    ])
    def test_broken_module_classification(self, builder, expected):
        res = diagnose(builder())
        assert not res.ok
        types = [o.error_type for _, o in res.failures()]
        assert expected in types, f"{expected} not in {types}"
        for _, o in res.failures():
            assert o.diag is not None
            assert o.diag.error_type == o.error_type

    def test_diagnostic_roundtrip(self):
        d = Diagnostic("AssertFail", "f: assert", "assert", span="x.py:3",
                       witness=[{"name": "x", "value": "7", "term": "x"}],
                       conjuncts=[{"index": 0, "text": "(< x 1)",
                                   "status": FAILED}],
                       qi_profile=[{"quantifier": "q", "trigger": "t",
                                    "count": 3, "mechanism": "e-matching"}],
                       notes=["n"])
        assert Diagnostic.from_dict(d.to_dict()) == d


# ---------------------------------------------------------------------------
# Witness / splitting / profiler
# ---------------------------------------------------------------------------

class TestWitness:
    def test_postcond_witness_names_inputs(self):
        res = diagnose(_broken_postcond())
        (_, o), = res.failures()
        names = {row["name"] for row in o.diag.witness}
        assert "x" in names          # pretty name, not "inc!x"
        # The witness is a genuine counterexample: r != x + 2.
        vals = {row["name"]: int(row["value"]) for row in o.diag.witness
                if row["value"].lstrip("-").isdigit()}
        if "x" in vals and "r" in vals:
            assert vals["r"] != vals["x"] + 2

    def test_pretty_name(self):
        assert pretty_name("inc!x", "inc") == "x"
        assert pretty_name("havoc!i!3") == "i"
        assert pretty_name("plain") == "plain"
        assert pretty_name("callee!ret!7", "caller") == "callee.ret"


class TestSplitting:
    def test_split_goal_flattens(self):
        from repro.smt.sorts import INT as SINT
        x = T.Var("x", SINT)
        g = T.And(T.Le(x, T.IntVal(1)), T.Le(T.IntVal(0), x),
                  T.Lt(x, T.IntVal(5)))
        assert len(split_goal(g)) == 3

    def test_split_implies_distributes(self):
        from repro.smt.sorts import INT as SINT
        x = T.Var("x", SINT)
        g = T.Implies(T.Le(T.IntVal(0), x),
                      T.And(T.Le(x, T.IntVal(1)), T.Lt(x, T.IntVal(5))))
        parts = split_goal(g)
        assert len(parts) == 2
        assert all(p.kind == T.IMPLIES for p in parts)

    def test_split_atom_unchanged(self):
        from repro.smt.sorts import INT as SINT
        x = T.Var("x", SINT)
        g = T.Le(x, T.IntVal(1))
        assert split_goal(g) == [g]

    def test_exact_failing_conjunct_identified(self):
        res = diagnose(_broken_assert_conjunctive())
        (_, o), = res.failures()
        assert o.error_type == "SplitAssertFail"
        failing = o.diag.failing_conjuncts()
        assert len(failing) == 1
        # x < 10 holds (it's the precondition); x >= 1 is the bad one.
        assert failing[0]["index"] == 1
        statuses = [c["status"] for c in o.diag.conjuncts]
        assert statuses == [PROVED, FAILED]


class TestProfiler:
    def test_top_instantiations_ranks_and_tags(self):
        prof = {"q1": {"trigA": 5, "<mbqi>": 2}, "q2": {"trigB": 9}}
        rows = top_instantiations(prof, k=2)
        assert rows[0] == {"quantifier": "q2", "trigger": "trigB",
                           "count": 9, "mechanism": "e-matching"}
        assert rows[1]["count"] == 5
        all_rows = top_instantiations(prof, k=10)
        mechs = {(r["quantifier"], r["mechanism"]) for r in all_rows}
        assert ("q1", "mbqi") in mechs
        assert "mbqi" in profile_table(all_rows)

    def test_quantified_failure_has_profile(self):
        mod = Module("quantfail")
        s = var("s", INT)
        spec_fn(mod, "f", [("x", INT)], INT, body=var("x", INT) + lit(1))
        from repro.lang import rec_call
        proof_fn(mod, "claim", [("s", INT)],
                 requires=[forall([("k", INT)],
                                  rec_call("f", INT, var("k", INT))
                                  > var("k", INT))],
                 ensures=[rec_call("f", INT, s) > s + lit(1)],  # false
                 body=[])
        res = diagnose(mod)
        assert not res.ok
        (_, o), = res.failures()
        # The hypothesis quantifier was instantiated during the re-solve.
        assert isinstance(o.diag.qi_profile, list)
        # Module-level profile aggregated through the scheduler stats.
        assert "inst_profile" in res.stats

    def test_solver_inst_profile_counts_match(self):
        from repro.smt.solver import SmtSolver
        from repro.smt.sorts import INT as SINT
        f = T.FuncDecl("f", [SINT], SINT)
        k = T.Var("k", SINT)
        solver = SmtSolver()
        solver.add(T.ForAll((k,), T.Lt(k, f(k)), triggers=((f(k),),)))
        solver.add(T.Le(f(T.IntVal(0)), T.IntVal(0)))
        assert solver.check() == "unsat"
        total = sum(n for per in solver.stats.inst_profile.values()
                    for n in per.values())
        assert total == solver.stats.instantiations > 0


# ---------------------------------------------------------------------------
# Determinism: serial vs parallel vs cache-warm
# ---------------------------------------------------------------------------

def _diag_signature(result):
    return [(fn, o.label, o.kind, o.status, o.seq,
             str(o.span), o.error_type,
             o.diag.to_dict() if o.diag else None)
            for fn, o in result.failures()]


class TestDeterminism:
    def _mixed_module(self):
        mod = Module("mixed")
        x = var("x", U64)
        exec_fn(mod, "bad_a", [("x", U64)], ret=("r", U64),
                requires=[x < lit(50)],
                ensures=[var("r", U64) > x + lit(1)],
                body=[ret(x + lit(1))])
        exec_fn(mod, "bad_b", [("x", U64)],
                requires=[x < lit(10)],
                body=[assert_(and_all(x < lit(10), x > lit(3)))])
        exec_fn(mod, "good", [("x", U64)],
                requires=[x < lit(5)],
                body=[assert_(x < lit(6))])
        return mod

    def test_serial_vs_parallel_diagnostics_identical(self):
        serial = diagnose(self._mixed_module(), jobs=1, cache=False)
        para = diagnose(self._mixed_module(), jobs=4, cache=False)
        assert not serial.ok and not para.ok
        assert _diag_signature(serial) == _diag_signature(para)

    def test_cold_vs_warm_diagnostics_identical(self, tmp_path):
        cache = str(tmp_path / "cache")
        cold = diagnose(self._mixed_module(), cache=cache)
        warm = diagnose(self._mixed_module(), cache=cache)
        assert warm.stats["cache_misses"] == 0
        assert _diag_signature(cold) == _diag_signature(warm)
        # Warm diagnostics came from the cache payload, not a re-solve.
        assert all(o.diag is not None for _, o in warm.failures())

    def test_prediag_cache_entries_upgraded(self, tmp_path):
        cache = str(tmp_path / "cache")
        # Cold run WITHOUT diagnostics: failures cached verdict-only.
        plain = verify_module(self._mixed_module(), cache=cache)
        assert not plain.ok
        assert all(o.diag is None for _, o in plain.failures())
        # Warm run WITH diagnostics must not serve the bare entries for
        # failures — it re-solves them and upgrades the cache.
        withd = diagnose(self._mixed_module(), cache=cache)
        assert all(o.diag is not None for _, o in withd.failures())
        assert withd.stats["cache_misses"] == len(withd.failures())
        # Third run: everything (including diagnostics) served warm.
        warm = diagnose(self._mixed_module(), cache=cache)
        assert warm.stats["cache_misses"] == 0
        assert _diag_signature(withd) == _diag_signature(warm)

    def test_failure_order_is_emission_order(self):
        mod = Module("order")
        x = var("x", U64)
        exec_fn(mod, "f", [("x", U64)],
                requires=[x < lit(10)],
                body=[assert_(x > lit(5), label="first"),
                      assert_(x > lit(6), label="second"),
                      assert_(x > lit(7), label="third")])
        for jobs in (1, 4):
            res = verify_module(mod, jobs=jobs, cache=False)
            labels = [o.label for _, o in res.failures()]
            assert labels == ["f: first", "f: second", "f: third"]
            assert [o.seq for _, o in res.failures()] \
                == sorted(o.seq for _, o in res.failures())


# ---------------------------------------------------------------------------
# vc.errors coverage
# ---------------------------------------------------------------------------

class TestErrorsModule:
    def _result(self):
        res = ModuleResult("m")
        f = FunctionResult("f")
        ok = Obligation("f: assert", "assert")
        ok.status = PROVED
        bad = Obligation("f: ensures #0", "ensures")
        bad.status = FAILED
        bad.seq = 1
        bad.span = Span("/tmp/demo.py", 42)
        f.obligations = [ok, bad]
        res.functions = [f]
        return res

    def test_first_failure_and_ok(self):
        res = self._result()
        assert not res.ok
        fn, o = res.first_failure()
        assert fn == "f" and o.label == "f: ensures #0"
        assert ModuleResult("empty").first_failure() is None
        assert ModuleResult("empty").ok

    def test_report_formatting(self):
        rep = self._result().report()
        assert "module m: FAILED" in rep
        assert "✗ f" in rep
        assert "FAILED: f: ensures #0 [PostCondFail] @ demo.py:42" in rep

    def test_report_includes_diag_sections(self):
        res = self._result()
        _, o = res.first_failure()
        o.diag = Diagnostic("PostCondFail", o.label, o.kind,
                            witness=[{"name": "x", "value": "3",
                                      "term": "x"}],
                            notes=["hello"])
        rep = res.report()
        assert "counterexample:" in rep
        assert "x = 3" in rep
        assert "note: hello" in rep
        bare = res.report(diagnostics=False)
        assert "counterexample:" not in bare

    def test_to_json_shape(self):
        res = self._result()
        j = res.to_json()
        assert j["module"] == "m" and j["ok"] is False
        assert j["failures"][0]["error_type"] == "PostCondFail"
        assert j["failures"][0]["span"] == "demo.py:42"
        obls = j["functions"][0]["obligations"]
        assert [o["status"] for o in obls] == [PROVED, FAILED]
        assert obls[0]["error_type"] is None

    def test_verification_failure_carries_result(self):
        mod = _broken_postcond()
        with pytest.raises(VerificationFailure) as exc:
            verify(mod, cache=False)
        assert exc.value.result.first_failure() is not None
        assert "FAILED" in str(exc.value)

    def test_span_roundtrip_and_str(self):
        s = Span("/a/b/file.py", 7)
        assert str(s) == "file.py:7"
        assert Span.from_dict(s.to_dict()) == s
        assert Span.from_dict(None) is None

    def test_spans_point_into_this_file(self):
        res = diagnose(_broken_assert_conjunctive())
        (_, o), = res.failures()
        assert o.span is not None
        assert str(o.span).startswith(os.path.basename(__file__))


# ---------------------------------------------------------------------------
# Scheduler integration details
# ---------------------------------------------------------------------------

class TestSchedulerIntegration:
    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIAG", "1")
        assert Session().scheduler().diagnostics
        monkeypatch.setenv("REPRO_DIAG", "0")
        assert not Session().scheduler().diagnostics
        monkeypatch.delenv("REPRO_DIAG")
        assert not Session().scheduler().diagnostics

    def test_diagnostics_off_attaches_nothing(self):
        res = verify_module(_broken_postcond(), cache=False)
        assert all(o.diag is None for _, o in res.failures())
        # Taxonomy class still shows in the report (it's free).
        assert "[PostCondFail]" in res.report()

    def test_idiom_obligation_gets_taxonomy_only_diag(self):
        mod = Module("bvbad")
        from repro.lang import BY_BIT_VECTOR
        x = var("x", U64)
        exec_fn(mod, "f", [("x", U64)],
                body=[assert_((x & lit(1)).eq(lit(2)), by=BY_BIT_VECTOR)])
        res = diagnose(mod)
        fails = res.failures()
        assert fails
        for _, o in fails:
            assert o.diag is not None
            assert o.diag.witness == [] and o.diag.conjuncts == []
            assert any("idiom" in n for n in o.diag.notes)
