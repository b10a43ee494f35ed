"""Re-verification: solver reuse, cache-warm reruns, delta, repro.api.

Every obligation is discharged on a fresh solver, so the acceptance bar
for each path that skips the solver is *differential*: verdicts, failure
sets, diagnostics, and the machine-readable report (modulo timing fields
and aggregate solver-effort counters) must be identical between a cold
run and a cache-warm rerun — across every broken-module fixture of the
diagnostics suite and a couple of fully verified modules — and between
the in-process and worker-process paths.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

from repro.api import Session, VerifyConfig
from repro.cache.store import ProofCache
from repro.lang import (BOOL, INT, U64, Module, and_all, assert_, assign,
                        call, call_stmt, exec_fn, forall, let_, lit, ret,
                        spec_fn, var, while_)
from tests.helpers import verify_module
from repro.smt import terms as T
from repro.smt.solver import (SAT, SmtSolver, SolverConfig, UNSAT,
                              solver_constructions)
from repro.vc.errors import PROVED, TIMEOUT

from tests.test_diagnostics import (_broken_assert_conjunctive,
                                    _broken_decreases, _broken_inv_end,
                                    _broken_inv_front, _broken_overflow,
                                    _broken_postcond, _broken_precond,
                                    _diag_signature)

BROKEN_BUILDERS = [_broken_postcond, _broken_precond,
                   _broken_assert_conjunctive, _broken_inv_front,
                   _broken_inv_end, _broken_overflow, _broken_decreases]


def _verified_module():
    mod = Module("inc_ok")
    x, n, i = var("x", U64), var("n", U64), var("i", U64)
    exec_fn(mod, "inc", [("x", U64)], ret=("r", U64),
            requires=[x < lit(1000)],
            ensures=[var("r", U64).eq(x + lit(1))],
            body=[ret(x + lit(1))])
    exec_fn(mod, "count_to", [("n", U64)], ret=("res", U64),
            ensures=[var("res", U64).eq(n)],
            body=[let_("i", lit(0, U64)),
                  while_(i < n, invariants=[i <= n],
                         body=[assign("i", i + 1)], decreases=n - i),
                  ret(i)])
    return mod


def _quantified_module():
    """Spec-function context with a quantified well-formedness axiom."""
    mod = Module("inc_quant")
    x = var("x", U64)
    spec_fn(mod, "above", [("x", INT)], BOOL,
            body=var("x", INT) >= lit(10))
    exec_fn(mod, "use_spec", [("x", U64)],
            requires=[call(mod, "above", x)],
            body=[assert_(x >= lit(10)),
                  assert_(x + lit(1) >= lit(11))])
    return mod


def _normalize(payload: dict) -> dict:
    """Strip timing fields, aggregate effort counters and each
    obligation's ``answered_by`` (the layer that answered in *this* run:
    a warm run replays what a cold run solved) from to_json().

    Everything else — statuses, labels, seqs, spans, error types, diag
    payloads, query_bytes — must match byte-for-byte.
    """
    payload = json.loads(json.dumps(payload))
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


# ---------------------------------------------------------------------------
# SMT layer: one solver checked again after more assertions
# ---------------------------------------------------------------------------

class TestSolverScopes:
    def test_randomized_differential(self):
        rng = random.Random(20260806)
        ivars = [T.Var(f"v{i}", T.INT) for i in range(5)]
        bvars = [T.Var(f"b{i}", T.BOOL) for i in range(3)]
        g = T.FuncDecl("g", [T.INT], T.INT)

        def atom():
            k = rng.randrange(6)
            a, b = rng.choice(ivars), rng.choice(ivars)
            if k == 0:
                return T.Le(a, T.IntVal(rng.randrange(-5, 6)))
            if k == 1:
                return T.Eq(a, b)
            if k == 2:
                return T.Eq(T.App(g, a), T.App(g, b))
            if k == 3:
                return rng.choice(bvars)
            if k == 4:
                return T.Lt(T.Add(a, b), T.IntVal(rng.randrange(-3, 8)))
            return T.Not(T.Eq(a, T.IntVal(rng.randrange(-4, 5))))

        def formula(depth=2):
            if depth == 0:
                return atom()
            k = rng.randrange(4)
            if k == 0:
                return T.And(formula(depth - 1), formula(depth - 1))
            if k == 1:
                return T.Or(formula(depth - 1), formula(depth - 1))
            if k == 2:
                return T.Not(formula(depth - 1))
            return atom()

        # One solver checked after each batch of assertions keeps the
        # learned clauses, lemmas and instances of its earlier checks; its
        # verdicts must still be those of a fresh solver on each prefix.
        for _ in range(25):
            batches = [[formula() for _ in range(rng.randrange(1, 3))]
                       for _ in range(rng.randrange(2, 5))]
            fresh = []
            for k in range(1, len(batches) + 1):
                s = SmtSolver()
                for batch in batches[:k]:
                    for a in batch:
                        s.add(a)
                fresh.append(s.check())
            reused_solver = SmtSolver()
            reused = []
            for batch in batches:
                for a in batch:
                    reused_solver.add(a)
                reused.append(reused_solver.check())
            assert reused == fresh

    def test_instantiation_budget_is_per_check(self):
        """A second check on one solver gets the whole
        ``max_instantiations`` budget, as a fresh solver does, however
        much the first check used."""
        xq = T.Var("xq", T.INT)
        g = T.FuncDecl("g", [T.INT], T.INT)
        ax = T.ForAll([xq], T.Ge(T.App(g, xq), xq),
                      triggers=[[T.App(g, xq)]])
        cs = [T.Var(f"c{i}", T.INT) for i in range(8)]
        goal1 = T.Ge(T.Add(*[T.App(g, c) for c in cs]), T.IntVal(0))
        abc = [T.Var(n, T.INT) for n in "abc"]
        goal2 = T.Lt(T.Add(*[T.App(g, v) for v in abc]), T.Add(*abc))
        cfg = SolverConfig(max_instantiations=10)
        fresh = SmtSolver(cfg)
        fresh.add(ax)
        fresh.add(goal2)
        assert fresh.check() == UNSAT
        reused = SmtSolver(cfg)
        reused.add(ax)
        reused.add(goal1)     # eight instances: most of the budget
        assert reused.check() != UNSAT
        assert reused.stats.instantiations == 8
        reused.add(goal2)     # needs three more
        assert reused.check() == UNSAT
        assert not reused.last_resource_out

    def test_check_timeout_sets_flag(self):
        x = T.Var("x", T.INT)
        s = SmtSolver()
        s.add(T.Ge(x, T.IntVal(0)))
        assert s.check(timeout=0.0) == "unknown"
        assert s.last_deadline_exceeded
        # A later un-timed check clears the flag and solves normally.
        assert s.check() == SAT
        assert not s.last_deadline_exceeded


# ---------------------------------------------------------------------------
# Cold runs vs cache-warm reruns and worker runs: the differential guarantee
# ---------------------------------------------------------------------------

class TestWarmDifferential:
    @pytest.mark.parametrize("builder", BROKEN_BUILDERS,
                             ids=lambda b: b.__name__)
    def test_broken_fixture_identical(self, builder, tmp_path):
        cfg = VerifyConfig(diagnostics=True, cache_dir=str(tmp_path))
        cold = Session(cfg).verify_module(builder())
        before = solver_constructions()
        warm = Session(cfg).verify_module(builder())
        assert not cold.ok and not warm.ok
        assert solver_constructions() == before
        assert warm.stats.get("cache_misses", 0) == 0
        assert _diag_signature(cold) == _diag_signature(warm)
        assert _normalize(cold.to_json()) == _normalize(warm.to_json())

    @pytest.mark.parametrize("builder", [_verified_module,
                                         _quantified_module],
                             ids=lambda b: b.__name__)
    def test_verified_module_identical(self, builder, tmp_path):
        cfg = VerifyConfig(cache_dir=str(tmp_path), triage="off")
        cold = Session(cfg).verify_module(builder())
        before = solver_constructions()
        warm = Session(cfg).verify_module(builder())
        assert cold.ok and warm.ok
        assert solver_constructions() == before
        assert cold.query_bytes == warm.query_bytes
        assert _normalize(cold.to_json()) == _normalize(warm.to_json())

    def test_warm_composes_with_cache(self, tmp_path):
        """A delta run over a proof cache that a plain run filled plans
        every function (no function entries yet) and replays every
        obligation; the next delta run skips the functions outright."""
        plain = Session(VerifyConfig(cache_dir=str(tmp_path)))
        r1 = plain.verify_module(_verified_module())
        assert r1.ok and r1.stats.get("cache_hits", 0) == 0
        cfg = VerifyConfig(cache_dir=str(tmp_path), delta=True)
        r2 = Session(cfg).verify_module(_verified_module())
        assert r2.ok and not r2.stats.get("delta_skips")
        assert r2.stats.get("cache_misses", 0) == 0
        r3 = Session(cfg).verify_module(_verified_module())
        assert r3.ok and r3.stats.get("delta_skips") == 2
        assert _normalize(r1.to_json()) == _normalize(r2.to_json()) \
            == _normalize(r3.to_json())

    def test_warm_and_fresh_share_cache_digests(self, tmp_path):
        """In-process and worker discharges key the same cache entries:
        each run hits every entry the other stored."""
        for first, second in ((1, 2), (2, 1)):
            cache = str(tmp_path / f"cache{first}")
            cold = Session(VerifyConfig(cache_dir=cache, jobs=first,
                                        triage="off"))
            r1 = cold.verify_module(_verified_module())
            warm = Session(VerifyConfig(cache_dir=cache, jobs=second,
                                        triage="off"))
            r2 = warm.verify_module(_verified_module())
            assert r1.ok and r2.ok
            assert r2.stats.get("cache_misses", 0) == 0
            assert _normalize(r1.to_json()) == _normalize(r2.to_json())


# ---------------------------------------------------------------------------
# Serial soft deadline (REPRO_JOB_TIMEOUT regression)
# ---------------------------------------------------------------------------

class TestSerialDeadline:
    @pytest.fixture(autouse=True)
    def _isolate_env(self, monkeypatch):
        # These are regression tests for the REPRO_JOB_TIMEOUT path
        # specifically; ambient CI knobs (a shared proof cache would
        # answer obligations before any deadline is consulted) must not
        # leak in.
        for name in ("REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_DIAG",
                     "REPRO_JOB_TIMEOUT", "REPRO_DELTA"):
            monkeypatch.delenv(name, raising=False)
        # The static proving tier would discharge these obligations
        # before any solver deadline is consulted; force them all onto
        # the solver path the deadline actually guards.
        monkeypatch.setenv("REPRO_TRIAGE", "0")

    def test_serial_run_honors_job_timeout_env(self, monkeypatch):
        # A zero deadline trips deterministically at the first wall-clock
        # check; a small-but-positive one may lose the race against a
        # fast obligation.
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "0.0")
        result = verify_module(_verified_module())  # jobs=1: serial path
        assert not result.ok
        for fn in result.functions:
            for ob in fn.obligations:
                assert ob.status == TIMEOUT
                assert ob.stats.get("deadline_exceeded") == 1

    def test_deadline_verdicts_never_cached(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "0.0")
        timed = Session(VerifyConfig.from_env(cache_dir=str(tmp_path)))
        assert timed.config.job_timeout == 0.0
        r1 = timed.verify_module(_verified_module())
        assert not r1.ok
        monkeypatch.delenv("REPRO_JOB_TIMEOUT")
        clean = Session(VerifyConfig(cache_dir=str(tmp_path)))
        r2 = clean.verify_module(_verified_module())
        assert r2.ok  # no stale TIMEOUT entries were replayed
        assert r2.stats.get("cache_hits", 0) == 0

    def test_workers_honour_job_timeout(self, tmp_path, monkeypatch):
        """jobs=2: each worker enforces the soft deadline inside its own
        solver, so slow obligations come back as TIMEOUT on time instead
        of holding the pool open, and no TIMEOUT verdict is cached."""
        real_loop = SmtSolver._check_loop

        def slow_loop(solver, deadline):
            # Five seconds of search that polls the deadline like the
            # real CDCL loop does (workers fork, so they inherit this).
            end = time.monotonic() + 5.0
            while time.monotonic() < end:
                solver._poll_deadline()
            return real_loop(solver, deadline)

        monkeypatch.setattr(SmtSolver, "_check_loop", slow_loop)
        cache = str(tmp_path / "cache")
        cfg = VerifyConfig(jobs=2, job_timeout=0.2, triage="off",
                           cache_dir=cache)
        t0 = time.perf_counter()
        result = Session(cfg).verify_module(_verified_module())
        wall = time.perf_counter() - t0
        obligations = [o for f in result.functions for o in f.obligations]
        assert len(obligations) > 2
        assert {o.status for o in obligations} == {TIMEOUT}
        assert all(o.stats.get("deadline_exceeded") for o in obligations)
        # One check that ran to completion would alone take 5 s.
        assert wall < 5.0
        monkeypatch.undo()
        assert not list(ProofCache(cache).iter_entries())
        clean = Session(VerifyConfig(cache_dir=cache, triage="off"))
        rerun = clean.verify_module(_verified_module())
        assert rerun.ok
        assert rerun.stats.get("cache_hits", 0) == 0


# ---------------------------------------------------------------------------
# Delta re-verification
# ---------------------------------------------------------------------------

class TestDelta:
    def test_unchanged_function_skipped(self, tmp_path):
        cfg = VerifyConfig(cache_dir=str(tmp_path), delta=True)
        r1 = Session(cfg).verify_module(_verified_module())
        assert r1.ok and not r1.stats.get("delta_skips")
        r2 = Session(cfg).verify_module(_verified_module())
        assert r2.ok
        assert r2.stats.get("delta_skips") == 2
        assert _normalize(r1.to_json()) == _normalize(r2.to_json())
        for fn in r2.functions:
            for ob in fn.obligations:
                assert ob.answered_by == "delta"

    def test_changed_function_reverified(self, tmp_path):
        cfg = VerifyConfig(cache_dir=str(tmp_path), delta=True)

        def build(bound):
            mod = Module("delta_demo")
            x = var("x", U64)
            exec_fn(mod, "inc", [("x", U64)], ret=("r", U64),
                    requires=[x < lit(bound)],
                    ensures=[var("r", U64).eq(x + lit(1))],
                    body=[ret(x + lit(1))])
            return mod

        assert Session(cfg).verify_module(build(1000)).ok
        r2 = Session(cfg).verify_module(build(500))  # contract changed
        assert r2.ok
        assert not r2.stats.get("delta_skips")

    def test_spec_dependency_change_invalidates(self, tmp_path):
        cfg = VerifyConfig(cache_dir=str(tmp_path), delta=True)

        def build(threshold):
            mod = Module("delta_spec")
            x = var("x", U64)
            spec_fn(mod, "above", [("x", INT)], BOOL,
                    body=var("x", INT) >= lit(threshold))
            exec_fn(mod, "use_spec", [("x", U64)],
                    requires=[call(mod, "above", x)],
                    body=[assert_(x >= lit(threshold))])
            return mod

        assert Session(cfg).verify_module(build(10)).ok
        r2 = Session(cfg).verify_module(build(10))
        assert r2.stats.get("delta_skips") == 1
        r3 = Session(cfg).verify_module(build(7))  # spec body changed
        assert r3.ok
        assert not r3.stats.get("delta_skips")

    def test_spec_edit_propagates_to_callers(self, tmp_path):
        """A spec-fn edit invalidates every (transitive) caller, even when
        the caller's own AST is byte-identical across the edit and only
        sees the spec through a callee's contract."""
        cfg = VerifyConfig(cache_dir=str(tmp_path), delta=True)

        def build(threshold):
            mod = Module("delta_chain")
            x = var("x", U64)
            spec_fn(mod, "big", [("x", INT)], BOOL,
                    body=var("x", INT) >= lit(threshold))
            # check's AST never mentions `threshold`: it depends on the
            # edit only through big's definition.
            exec_fn(mod, "check", [("x", U64)], ret=("r", U64),
                    requires=[call(mod, "big", x)],
                    ensures=[var("r", U64).eq(x)],
                    body=[ret(x)])
            # caller's AST is also threshold-independent; big is reachable
            # only through check's contract.
            exec_fn(mod, "caller", [("x", U64)],
                    requires=[x >= lit(10)],
                    body=[call_stmt("check", [x], binds=["y"]),
                          assert_(var("y", U64).eq(x))])
            return mod

        assert Session(cfg).verify_module(build(10)).ok
        r2 = Session(cfg).verify_module(build(10))
        assert r2.stats.get("delta_skips") == 2
        r3 = Session(cfg).verify_module(build(7))  # only big's body changed
        assert r3.ok
        assert not r3.stats.get("delta_skips"), \
            "spec edit must re-verify both direct and transitive callers"

    def test_budget_change_invalidates(self, tmp_path):
        """The delta digest keys the scheduler-*effective* solver config:
        a PROVED under one max_steps budget must not replay under
        another (the proof cache already keys budgets; the function
        cache has to agree)."""
        cfg = VerifyConfig(cache_dir=str(tmp_path), delta=True)
        assert Session(cfg).verify_module(_verified_module()).ok
        r2 = Session(cfg.replace(max_steps=50)).verify_module(
            _verified_module())
        assert not r2.stats.get("delta_skips"), \
            "a tighter step budget must force re-verification"
        r3 = Session(cfg).verify_module(_verified_module())
        assert r3.stats.get("delta_skips") == 2  # original budget still warm

    def test_decreases_spec_dependency_invalidates(self, tmp_path):
        """A spec fn referenced only from a function-level decreases
        clause is still a dependency: editing it must invalidate."""
        from repro.vc import ast as A

        cfg = VerifyConfig(cache_dir=str(tmp_path), delta=True)

        def build(weight):
            mod = Module("delta_dec")
            n = var("n", U64)
            spec_fn(mod, "measure", [("n", INT)], INT,
                    body=var("n", INT) * lit(weight))
            fn = exec_fn(mod, "work", [("n", U64)],
                         body=[assert_(n + lit(1) >= lit(1))])
            fn.decreases = A.coerce(call(mod, "measure", n))
            return mod

        assert Session(cfg).verify_module(build(2)).ok
        r2 = Session(cfg).verify_module(build(2))
        assert r2.stats.get("delta_skips") == 1
        r3 = Session(cfg).verify_module(build(3))  # measure's body changed
        assert r3.ok
        assert not r3.stats.get("delta_skips"), \
            "decreases-only spec dependencies must participate in digests"

    def test_failures_never_recorded(self, tmp_path):
        cfg = VerifyConfig(cache_dir=str(tmp_path), delta=True,
                           diagnostics=True)
        r1 = Session(cfg).verify_module(_broken_postcond())
        assert not r1.ok
        r2 = Session(cfg).verify_module(_broken_postcond())
        assert not r2.ok and not r2.stats.get("delta_skips")
        # The re-run still carries full diagnostics.
        assert _diag_signature(r1) == _diag_signature(r2)

    def test_digests_do_not_depend_on_checkout_path(self, tmp_path):
        """Two copies of ``src/`` at different paths build the delegation
        map with different absolute span files; its function digests
        must still agree, or a delta cache written from one checkout
        would never serve the other."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        probe = (
            "import json\n"
            "from repro.systems.ironkv.delegation_map import "
            "build_default_module\n"
            "from repro.vc.delta import function_dependency_digest\n"
            "from repro.vc.wp import VcGen\n"
            "gen = VcGen(build_default_module())\n"
            "fns = [f for f in gen.module.functions.values()\n"
            "       if f.mode in ('exec', 'proof') and f.body is not None]\n"
            "print(json.dumps({f.name: function_dependency_digest(gen, f)\n"
            "                  for f in fns}))\n")
        digests = []
        for copy in ("a", "b/nested"):
            root = tmp_path / copy
            shutil.copytree(src, root / "src",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, PYTHONPATH=str(root / "src"))
            out = subprocess.run([sys.executable, "-c", probe], env=env,
                                 cwd=str(tmp_path), capture_output=True,
                                 text=True, check=True)
            digests.append(json.loads(out.stdout))
        assert digests[0] and digests[0] == digests[1]


# ---------------------------------------------------------------------------
# The repro.api front door
# ---------------------------------------------------------------------------

class TestApi:
    def test_from_env_is_single_reader(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_DIAG", "1")
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "2.5")
        monkeypatch.setenv("REPRO_DELTA", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/pvcache-test")
        cfg = VerifyConfig.from_env()
        assert cfg == VerifyConfig(jobs=3, cache_dir="/tmp/pvcache-test",
                                   diagnostics=True, job_timeout=2.5,
                                   delta=True)

    def test_from_env_garbage_tolerant(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "junk")
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "junk")
        cfg = VerifyConfig.from_env()
        assert cfg.jobs == 1
        assert cfg.job_timeout is None

    def test_overrides_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        cfg = VerifyConfig.from_env(jobs=2, delta=True)
        assert cfg.jobs == 2 and cfg.delta

    def test_config_is_frozen(self):
        cfg = VerifyConfig()
        with pytest.raises(Exception):
            cfg.jobs = 5
        with pytest.raises(TypeError):
            cfg.replace(bogus=1)
        # Warm solver contexts are gone: the knob is an unknown field.
        with pytest.raises(TypeError):
            cfg.replace(incremental=True)

    def test_session_verify_raises_on_failure(self):
        from repro.vc.errors import VerificationFailure
        session = Session(VerifyConfig())
        session.verify(_verified_module())
        with pytest.raises(VerificationFailure):
            session.verify(_broken_postcond())

    def test_session_diagnose_forces_diagnostics(self):
        result = Session(VerifyConfig()).diagnose(_broken_postcond())
        assert not result.ok
        _, ob = result.first_failure()
        assert ob.diag is not None

    def test_legacy_shims_removed(self):
        import repro.lang as lang
        for name in ("verify", "verify_module", "diagnose"):
            assert not hasattr(lang, name)

    def test_schema_version_present(self):
        payload = Session(VerifyConfig()).verify_module(
            _verified_module()).to_json()
        assert payload["schema_version"] == 3
        # v2's per-obligation fields are present (and None on an
        # un-raced default run); v3's answered_by replaced "static".
        ob = payload["functions"][0]["obligations"][0]
        assert "profile" in ob and "portfolio" in ob
        assert ob["profile"] is None and ob["portfolio"] is None
        assert ob["answered_by"] is not None and "static" not in ob
