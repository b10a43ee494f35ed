"""Static-analysis tests: the five passes, the scheduler gate, and the
satellite plumbing (trigger-fallback counting, EprViolation adapters,
JSON/text rendering, retired lang-shim absence).

The negative fixtures are seeded so each yields exactly the expected
finding; the sweep at the bottom asserts every shipped case-study and
millibench module analyzes clean (zero error-severity findings) — the
repo-wide invariant the CI ``analyze`` step enforces.
"""

import importlib

import pytest

from repro.analysis import (ERROR, INFO, WARNING, AnalysisReport, Finding,
                            analyze_module)
from repro.api import ANALYZE_ENV, Session, VerifyConfig
from repro.epr import EprViolation
from repro.lang import *
from repro.smt import terms as T
from repro.smt.quant import (BROAD, CONSERVATIVE,
                             FALLBACK_MULTI_PATTERN, select_triggers)
from repro.smt.solver import SmtSolver, Stats
from repro.smt.sorts import uninterpreted
from repro.vc.scheduler import Scheduler
from repro.vc.wp import VcGen


# ---------------------------------------------------------------------------
# Seeded negative fixtures — one expected finding each
# ---------------------------------------------------------------------------

def _mode_violation_module() -> Module:
    """A spec function whose body calls an exec function."""
    mod = Module("mode_bad")
    x = var("x", INT)
    exec_fn(mod, "helper", [("x", INT)], ret=("r", INT), body=[ret(x)])
    spec_fn(mod, "bad_spec", [("x", INT)], INT,
            body=rec_call("helper", INT, x))
    return mod


def _no_decreases_module() -> Module:
    """A recursive spec function without a decreases measure, plus an
    exec caller so the scheduler would actually plan obligations."""
    mod = Module("rec_bad")
    n = var("n", INT)
    spec_fn(mod, "count", [("n", INT)], INT,
            body=ite(n <= 0, lit(0), rec_call("count", INT, n - 1) + 1))
    exec_fn(mod, "use_count", [],
            body=[assert_(call(mod, "count", lit(0)).eq(0))])
    return mod


def _matching_loop_module() -> Module:
    """The classic two-axiom loop: g(f(x)) == x and f(g(y)) == y.

    Each axiom's (conservative) trigger is the inner application; each
    instantiation creates the other symbol's application over a strictly
    larger term — f -> g -> f with growing edges."""
    mod = Module("loopy")
    mod.add(Function("f", "spec", [Param("x", INT)], ("result", INT)))
    mod.add(Function("g", "spec", [Param("y", INT)], ("result", INT)))
    x, y = var("x", INT), var("y", INT)
    proof_fn(mod, "uses_axioms", [],
             requires=[
                 forall([("x", INT)],
                        call(mod, "g", call(mod, "f", x)).eq(x)),
                 forall([("y", INT)],
                        call(mod, "f", call(mod, "g", y)).eq(y)),
             ],
             body=[])
    return mod


ADV = StructType("AdvisorSort")


def _epr_eligible_module() -> Module:
    """A default-mode module whose vocabulary already fits EPR."""
    mod = Module("epr_ready")  # note: NOT epr_mode
    mod.add(Function("rel", "spec", [Param("a", ADV), Param("b", ADV)],
                     ("result", BOOL)))
    va, vb = var("a", ADV), var("b", ADV)
    proof_fn(mod, "uses_rel", [("x", ADV)],
             requires=[forall([("a", ADV), ("b", ADV)],
                              call(mod, "rel", va, vb).implies(
                                  call(mod, "rel", va, vb)))],
             body=[])
    return mod


def _dead_spec_module() -> Module:
    """A spec function no exec/proof function ever reaches."""
    mod = Module("deadweight")
    x = var("x", INT)
    spec_fn(mod, "used", [("x", INT)], INT, body=x + 1)
    spec_fn(mod, "never_used", [("x", INT)], INT, body=x + 2)
    exec_fn(mod, "go", [("x", INT)], ret=("r", INT),
            ensures=[var("r", INT).eq(call(mod, "used", x))],
            body=[ret(x + 1)])
    return mod


class TestPasses:
    def test_mode_checker_flags_spec_calling_exec(self):
        report = analyze_module(_mode_violation_module())
        errs = report.errors()
        assert len(errs) == 1
        assert errs[0].pass_id == "modes"
        assert "helper" in errs[0].message
        assert "mode_bad.bad_spec" == errs[0].where

    def test_mode_checker_flags_ghost_result_in_exec(self):
        mod = Module("ghost_leak")
        x = var("x", INT)
        proof_fn(mod, "lemma", [("x", INT)], ret=("r", INT), body=[ret(x)])
        exec_fn(mod, "leak", [("x", INT)],
                body=[call_stmt("lemma", [x], binds=["gr"])])
        report = analyze_module(mod)
        errs = report.errors()
        assert any(e.pass_id == "modes" and "ghost result" in e.message
                   for e in errs)

    def test_termination_flags_missing_decreases(self):
        report = analyze_module(_no_decreases_module())
        errs = report.errors()
        assert len(errs) == 1
        assert errs[0].pass_id == "termination"
        assert errs[0].where == "rec_bad.count"
        assert "decreases" in errs[0].message

    def test_termination_accepts_decreases(self):
        mod = Module("rec_ok")
        n = var("n", INT)
        spec_fn(mod, "count", [("n", INT)], INT,
                body=ite(n <= 0, lit(0), rec_call("count", INT, n - 1) + 1),
                decreases=n)
        assert analyze_module(mod).by_pass("termination") == []

    def test_matching_loop_two_axiom_cycle(self):
        report = analyze_module(_matching_loop_module())
        errs = report.errors()
        assert len(errs) == 1
        assert errs[0].pass_id == "matching-loop"
        assert "f" in errs[0].message and "g" in errs[0].message

    def test_matching_loop_ignores_bounded_cycles(self):
        # has/get invariant shape: a has<->get cycle whose edges never
        # grow the instantiation — must NOT be flagged.
        mod = Module("benign")
        M = StructType("BMap")
        mod.add(Function("has", "spec", [Param("m", M), Param("k", INT)],
                         ("result", BOOL)))
        mod.add(Function("get", "spec", [Param("m", M), Param("k", INT)],
                         ("result", INT)))
        m, k = var("m", M), var("k", INT)
        proof_fn(mod, "inv", [("m", M)],
                 requires=[forall([("k", INT)],
                                  call(mod, "has", m, k).implies(
                                      call(mod, "get", m, k) >= 0))],
                 body=[])
        assert analyze_module(mod).errors() == []

    def test_epr_advisor_flags_eligible_module(self):
        report = analyze_module(_epr_eligible_module())
        assert report.errors() == []
        infos = report.by_pass("epr")
        assert len(infos) == 1
        assert infos[0].severity == INFO
        assert "epr_mode" in infos[0].message

    def test_epr_advisor_errors_on_bad_epr_module(self):
        mod = Module("epr_broken", epr_mode=True)
        x = var("x", INT)
        spec_fn(mod, "plus", [("x", INT)], INT, body=x + 1)
        report = analyze_module(mod)
        assert report.has_errors
        assert all(f.pass_id == "epr" for f in report.errors())

    def test_pruning_advisor_flags_dead_spec(self):
        report = analyze_module(_dead_spec_module())
        assert report.errors() == []
        prun = report.by_pass("pruning")
        assert [f.where for f in prun] == ["deadweight.never_used"]
        assert prun[0].severity == INFO


# ---------------------------------------------------------------------------
# The scheduler gate: reject before any solver exists
# ---------------------------------------------------------------------------

class _NoSolver:
    """Poisoned SmtSolver constructor: any instantiation fails the test."""

    def __init__(self, *a, **k):
        raise AssertionError("SmtSolver constructed during a gated run")


class TestSchedulerGate:
    @pytest.mark.parametrize("builder", [_no_decreases_module,
                                         _matching_loop_module])
    def test_rejects_without_smt_query(self, builder, monkeypatch):
        monkeypatch.setattr(SmtSolver, "__init__", _NoSolver.__init__)
        sched = Scheduler(VerifyConfig.from_env(analyze=True))
        result = VcGen(builder()).verify_module(sched)
        assert result.rejected
        assert not result.ok
        assert result.functions == []          # nothing was even planned
        assert result.query_bytes == 0
        assert result.analysis is not None and result.analysis.has_errors
        assert "REJECTED" in result.report()

    def test_clean_module_passes_through_gate(self):
        mod = Module("gate_ok")
        x = var("x", INT)
        exec_fn(mod, "ident", [("x", INT)], ret=("r", INT),
                ensures=[var("r", INT).eq(x)], body=[ret(x)])
        # Triage off: the trivial obligation must reach the solver so
        # query_bytes actually witnesses a solve.
        result = VcGen(mod).verify_module(Scheduler(
            VerifyConfig.from_env(analyze=True, triage="off")))
        assert result.ok and not result.rejected
        assert result.analysis is not None
        assert result.query_bytes > 0          # it really verified

    def test_gate_off_by_default(self):
        result = VcGen(_no_decreases_module()).verify_module(
            Scheduler(VerifyConfig.from_env()))
        assert not result.rejected
        assert result.analysis is None

    def test_env_knob_read_once_in_from_env(self, monkeypatch):
        monkeypatch.setenv(ANALYZE_ENV, "1")
        assert VerifyConfig.from_env().analyze is True
        assert Session().scheduler().analyze is True
        monkeypatch.setenv(ANALYZE_ENV, "0")
        assert VerifyConfig.from_env().analyze is False
        assert Session().scheduler().analyze is False

    def test_session_analyze_verb(self):
        report = Session().analyze(_dead_spec_module())
        assert isinstance(report, AnalysisReport)
        assert report.ok


# ---------------------------------------------------------------------------
# Satellite: trigger-fallback counting
# ---------------------------------------------------------------------------

_S = uninterpreted("TFS")
_p = T.FuncDecl("tf_p", [_S], T.BoolVal(True).sort)


class TestTriggerFallbacks:
    def _multi_pattern_quant(self):
        x, y = T.Var("x", _S), T.Var("y", _S)
        return T.ForAll([x, y],
                        T.Implies(T.And(_p(x), _p(y)), T.Eq(x, y)))

    def test_on_fallback_callback_fires(self):
        seen = []
        select_triggers(self._multi_pattern_quant(), CONSERVATIVE,
                        on_fallback=seen.append)
        assert seen == [FALLBACK_MULTI_PATTERN]

    def test_stats_field_and_snapshot(self):
        stats = Stats()
        assert stats.trigger_fallbacks == 0
        assert "trigger_fallbacks" in stats.snapshot()

    def test_solver_counts_fallbacks(self):
        solver = SmtSolver()
        solver.add(self._multi_pattern_quant())
        solver.add(_p(T.Const("c0", _S)))
        solver.check()
        assert solver.stats.trigger_fallbacks >= 1
        assert solver.stats.snapshot()["trigger_fallbacks"] >= 1


# ---------------------------------------------------------------------------
# Satellite: EprViolation span + to_finding adapter
# ---------------------------------------------------------------------------

class TestEprViolationAdapter:
    def test_to_finding_defaults(self):
        v = EprViolation("m.f", "arithmetic is outside EPR")
        f = v.to_finding()
        assert isinstance(f, Finding)
        assert (f.pass_id, f.severity) == ("epr", ERROR)
        assert f.where == "m.f" and f.span is None

    def test_check_epr_module_threads_spans(self):
        mod = Module("span_epr", epr_mode=True)
        x = var("x", INT)
        spec_fn(mod, "plus", [("x", INT)], INT, body=x + 1)
        from repro.epr import check_epr_module
        violations = check_epr_module(mod)
        fn_level = [v for v in violations if "." in v.where]
        assert fn_level
        # function-level violations carry the function's span; the
        # module-level sort-cycle one legitimately has none
        assert all(v.span is not None for v in fn_level)
        assert all(v.to_finding().span is v.span for v in violations)


# ---------------------------------------------------------------------------
# Rendering: text and JSON through the diag machinery
# ---------------------------------------------------------------------------

class TestRendering:
    def test_report_text(self):
        report = analyze_module(_no_decreases_module())
        text = report.report()
        assert "1 error(s)" in text
        assert "ERROR [termination] rec_bad.count" in text
        assert "hint:" in text

    def test_analysis_json(self):
        report = analyze_module(_no_decreases_module())
        js = report.to_json()
        assert js["module"] == "rec_bad"
        assert js["ok"] is False and js["errors"] == 1
        assert js["passes"] == ["modes", "termination", "matching-loop",
                                "epr", "pruning"]
        [finding] = [f for f in js["findings"] if f["severity"] == ERROR]
        assert finding["pass"] == "termination"
        assert finding["span"] is not None

    def test_module_json_carries_analysis(self, monkeypatch):
        sched = Scheduler(VerifyConfig.from_env(analyze=True))
        result = VcGen(_no_decreases_module()).verify_module(sched)
        js = result.to_json()
        assert js["rejected"] is True and js["ok"] is False
        assert js["analysis"]["errors"] == 1
        assert js["query_bytes"] == 0

    def test_finding_to_dict_roundtrip_keys(self):
        f = Finding("modes", WARNING, "m.f", "msg", suggestion="do x")
        d = f.to_dict()
        assert d == {"pass": "modes", "severity": "warning", "where": "m.f",
                     "message": "msg", "span": None, "suggestion": "do x"}

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            Finding("modes", "fatal", "m", "msg")


# ---------------------------------------------------------------------------
# Satellite: the deprecated lang shims are gone for good
# ---------------------------------------------------------------------------

class TestDeprecationShims:
    def test_legacy_shims_removed(self):
        """The deprecated ``lang.verify``/``verify_module``/``diagnose``
        shims were retired; verification goes through repro.api.Session
        (and the module neither exports nor defines the old names)."""
        import repro.lang as lang
        for name in ("verify", "verify_module", "diagnose"):
            assert not hasattr(lang, name)
            assert name not in lang.__all__


# ---------------------------------------------------------------------------
# The repo-wide invariant: every shipped module analyzes clean
# ---------------------------------------------------------------------------

SHIPPED_BUILDERS = [
    "repro.systems.ironkv.delegation_map.build_default_module",
    "repro.systems.ironkv.delegation_map_epr.build_epr_model",
    "repro.systems.ironkv.marshal_verified.build_u64_roundtrip_module",
    "repro.systems.nr.model.build_nr_core_module",
    "repro.systems.pagetable.view_verified.build_view_module",
    "repro.systems.pagetable.entry_verified.build_entry_module",
    "repro.systems.mimalloc.verified.build_bit_tricks_module",
    "repro.systems.mimalloc.verified.build_disjointness_module",
    "repro.systems.plog.crc_verified.build_crc_table_module",
    "repro.millibench.lists.build_singly_linked_module",
    "repro.millibench.lists.build_doubly_linked_module",
    "repro.millibench.distlock.build_default_module",
    "repro.millibench.distlock.build_epr_module",
    "repro.lang.stdlib.build_stdlib",
]


class TestShippedModulesClean:
    @pytest.mark.parametrize("dotted", SHIPPED_BUILDERS)
    def test_zero_error_findings(self, dotted):
        module_path, fn = dotted.rsplit(".", 1)
        mod = getattr(importlib.import_module(module_path), fn)()
        report = analyze_module(mod)
        assert report.errors() == [], report.report()

    def test_memory_reasoning_clean(self):
        from repro.millibench.lists import build_memory_reasoning_module
        report = analyze_module(build_memory_reasoning_module(4))
        assert report.errors() == [], report.report()
