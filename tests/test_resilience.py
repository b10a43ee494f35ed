"""Resilient-pipeline tests: fault injection, resource guards, retry
escalation, crash resume from the proof cache, and the chaos acceptance
gate.

The contract under test: with a deterministic seeded FaultPlan injecting
worker crashes, cache I/O errors, and forced resource-out verdicts, the
pipeline's recovery machinery (quarantine, escalation ladder, in-process
fallback, cache resume) must converge to verdicts *byte-identical* to a
fault-free run — faults may cost time, never answers.
"""

import glob
import importlib
import json
import os

import pytest

from repro.api import Session, VerifyConfig
from repro.lang import *
from repro.resilience.faults import (FAULT_POINTS, FaultPlan, InjectedCrash,
                                     active, install, maybe_fault, uninstall)
from repro.smt.solver import SmtSolver
from repro.cache.store import ProofCache
from repro.vc.errors import FAILED, PROVED, RESOURCE_OUT
from repro.vc.scheduler import Scheduler
from repro.vc.wp import VcGen


@pytest.fixture(autouse=True)
def _hermetic_env(monkeypatch):
    """Strip ambient cache knobs (e.g. the shared $REPRO_CACHE_DIR that
    scripts/verify_tier1.sh exports): a warm proof cache would replay
    verdicts without ever reaching the solver/worker code paths the
    fault points of this suite live in.  Tests that want a cache pass
    one to Scheduler explicitly."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_DELTA", raising=False)
    # Likewise the static proving tier: it would discharge the cheap
    # fixture obligations before the solver/worker fault points fire.
    monkeypatch.setenv("REPRO_TRIAGE", "0")


def _mk_module(name="resil_demo"):
    """A module with several cheap, offloadable obligations."""
    mod = Module(name)
    a = var("a", U64)
    r = var("res", U64)
    exec_fn(mod, "bump", [("a", U64)], ret=("res", U64),
            requires=[a < lit(100)],
            ensures=[r >= a, r <= a + lit(5)],
            body=[ret(a + 1)])
    exec_fn(mod, "twice", [("a", U64)], ret=("res", U64),
            requires=[a < lit(100)],
            ensures=[r.eq(a + a)],
            body=[ret(a + a)])
    return mod


def _mk_failing_module():
    mod = Module("resil_fail")
    x = var("x", INT)
    r = var("r", INT)
    exec_fn(mod, "wrong_post", [("x", INT)], ret=("r", INT),
            ensures=[r.eq(x + 1)],
            body=[ret(x)])
    return mod


def _signature(res):
    return [(f.name, o.label, o.kind, o.status)
            for f in res.functions for o in f.obligations]


# ---------------------------------------------------------------------------
# Fault-plan grammar + determinism
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_round_trip(self):
        text = ("seed=7; pool.worker:crash@1; net.send:drop%0.25x3; "
                "solver.check:resource_out@2x2")
        plan = FaultPlan.from_string(text)
        again = FaultPlan.from_string(plan.to_string())
        assert plan.to_string() == again.to_string()
        assert [s.clause() for s in plan.specs] == \
            [s.clause() for s in again.specs]
        assert plan.seed == again.seed == 7

    def test_empty_is_none(self):
        assert FaultPlan.from_string("") is None
        assert FaultPlan.from_string("  ;  , ") is None
        assert FaultPlan.from_string("seed=3") is None

    @pytest.mark.parametrize("bad", [
        "nowhere:crash@1",              # unknown point
        "solver.check:drop@1",          # kind not supported at point
        "solver.check:crash",           # missing trigger
        "solver.check@1",               # missing kind separator
        "solver.check:crash@0",         # @count is 1-based
        "net.send:drop%1.5",            # probability out of range
        "cache.net:drop@1",             # no network cache tier
    ])
    def test_bad_clauses_raise(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.from_string(bad)

    def test_counted_clause_fires_once_at_nth(self):
        plan = FaultPlan.from_string("solver.check:resource_out@3")
        fired = [plan.arm("solver.check") is not None for _ in range(6)]
        assert fired == [False, False, True, False, False, False]
        assert plan.total_fired == 1

    def test_counted_window_xm(self):
        plan = FaultPlan.from_string("solver.check:resource_out@2x2")
        fired = [plan.arm("solver.check") is not None for _ in range(5)]
        assert fired == [False, True, True, False, False]

    def test_points_count_independently(self):
        plan = FaultPlan.from_string(
            "solver.check:crash@2; cache.store:io@1")
        assert plan.arm("cache.store") is not None     # 1st store arming
        assert plan.arm("solver.check") is None        # 1st check arming
        assert plan.arm("solver.check") is not None    # 2nd check arming

    def test_probabilistic_is_seed_deterministic(self):
        def pattern(seed):
            plan = FaultPlan.from_string(f"seed={seed}; net.send:drop%0.5")
            return [plan.arm("net.send") is not None for _ in range(64)]
        assert pattern(11) == pattern(11)
        assert pattern(11) != pattern(12)
        assert any(pattern(11)) and not all(pattern(11))

    def test_install_restore(self):
        plan = FaultPlan.from_string("cache.store:io@1")
        assert active() is None
        prev = install(plan)
        try:
            assert prev is None
            assert active() is plan
            assert maybe_fault("cache.store") is not None
        finally:
            assert install(prev) is plan
        assert active() is None
        assert maybe_fault("cache.store") is None      # no plan, no-op
        uninstall()

    def test_kind_with_x_parses(self):
        # 'exit' contains an 'x'; the xM suffix parser must not eat it.
        plan = FaultPlan.from_string("pool.worker:exit@1")
        assert plan.specs[0].kind == "exit"
        assert plan.specs[0].at == 1


# ---------------------------------------------------------------------------
# Resource guards: budgets become structured RESOURCE_OUT verdicts
# ---------------------------------------------------------------------------

class TestResourceGuards:
    def test_max_steps_yields_resource_out(self):
        sched = Scheduler(VerifyConfig.from_env(max_steps=1))
        res = VcGen(_mk_module()).verify_module(sched)
        statuses = {o.status for f in res.functions for o in f.obligations}
        assert RESOURCE_OUT in statuses
        assert not res.ok
        assert res.stats["resource_outs"] >= 1

    def test_resource_out_classified_in_taxonomy(self):
        from repro.diag.taxonomy import VerusErrorType, classify
        # The obligation kind wins when it has a specific class ...
        assert (classify("ensures", "f: ensures#0", RESOURCE_OUT)
                is VerusErrorType.POST_COND_FAIL)
        # ... ResourceOut is for obligations with no more specific one.
        assert (classify("", "", RESOURCE_OUT)
                is VerusErrorType.RESOURCE_OUT)
        # The diagnostics pass tags budget-exhausted jobs explicitly.
        sched = Scheduler(
            VerifyConfig.from_env(max_steps=1, diagnostics=True))
        res = VcGen(_mk_module()).verify_module(sched)
        ro = [o for f in res.functions for o in f.obligations
              if o.status == RESOURCE_OUT]
        assert ro and all(o.error_type == "ResourceOut" for o in ro)

    def test_resource_out_never_cached(self, tmp_path):
        cachedir = str(tmp_path / "pc")
        sched = Scheduler(VerifyConfig.from_env(max_steps=1),
                          cache=ProofCache(cachedir))
        res = VcGen(_mk_module()).verify_module(sched)
        n_ro = sum(o.status == RESOURCE_OUT
                   for f in res.functions for o in f.obligations)
        assert n_ro >= 1
        for path in glob.glob(str(tmp_path / "pc" / "*" / "*.json")):
            assert json.load(open(path))["status"] != RESOURCE_OUT
        # A second identical run must re-solve (and re-exhaust) them.
        sched2 = Scheduler(VerifyConfig.from_env(max_steps=1),
                           cache=ProofCache(cachedir))
        res2 = VcGen(_mk_module()).verify_module(sched2)
        assert res2.stats["resource_outs"] == n_ro
        assert _signature(res) == _signature(res2)

    def test_ample_budget_changes_nothing(self):
        clean = VcGen(_mk_module()).verify_module()
        budgeted = VcGen(_mk_module()).verify_module(
            Scheduler(VerifyConfig.from_env(max_steps=10_000_000)))
        assert clean.ok and budgeted.ok
        assert _signature(clean) == _signature(budgeted)


# ---------------------------------------------------------------------------
# Injection at each fault point
# ---------------------------------------------------------------------------

class TestInjection:
    def test_solver_check_resource_out(self):
        clean = VcGen(_mk_module()).verify_module()
        sched = Scheduler(
            VerifyConfig.from_env(fault_plan="solver.check:resource_out@1"))
        res = VcGen(_mk_module()).verify_module(sched)
        assert res.stats["faults_injected"] == 1
        assert res.stats["resource_outs"] == 1
        diffs = [(c, f) for c, f in zip(_signature(clean), _signature(res))
                 if c != f]
        assert len(diffs) == 1
        assert diffs[0][1][3] == RESOURCE_OUT

    def test_solver_check_crash_escapes_without_retries(self):
        # Serial runs have no worker boundary to absorb the crash: it
        # takes the whole run down, exactly like a SIGKILL (a re-run over
        # the same cache directory resumes it; see TestJournalResume).
        sched = Scheduler(
            VerifyConfig.from_env(jobs=1, fault_plan="solver.check:crash@1"))
        with pytest.raises(InjectedCrash):
            VcGen(_mk_module()).verify_module(sched)
        assert active() is None        # plan uninstalled despite the crash

    def test_cache_lookup_io_quarantines(self, tmp_path):
        cachedir = str(tmp_path / "pc")
        r1 = Session(cache_dir=cachedir).verify_module(_mk_module())
        sched = Scheduler(
            VerifyConfig.from_env(
                fault_plan="cache.lookup:io@1; cache.lookup:corrupt@2"),
            cache=ProofCache(cachedir))
        r2 = VcGen(_mk_module()).verify_module(sched)
        assert r2.ok and _signature(r1) == _signature(r2)
        assert sched.cache.corrupt == 2     # both injected lookups
        assert sched.cache.stores == 2      # quarantined entries rewritten
        r3 = Session(cache_dir=cachedir).verify_module(_mk_module())
        assert r3.stats["cache_misses"] == 0

    def test_cache_store_io_skips_entry(self, tmp_path):
        cachedir = str(tmp_path / "pc")
        sched = Scheduler(VerifyConfig.from_env(fault_plan="cache.store:io@1"),
                          cache=ProofCache(cachedir))
        r1 = VcGen(_mk_module()).verify_module(sched)
        assert r1.ok
        assert sched.cache.stores == sched.cache.misses - 1
        sched2 = Scheduler(VerifyConfig.from_env(), cache=ProofCache(cachedir))
        r2 = VcGen(_mk_module()).verify_module(sched2)
        assert r2.ok and _signature(r1) == _signature(r2)
        assert sched2.cache.misses == 1     # only the skipped entry

    def test_worker_crash_cause_recorded(self):
        clean = VcGen(_mk_module()).verify_module()
        sched = Scheduler(
            VerifyConfig.from_env(jobs=2,
                                  fault_plan="pool.worker:crash@1"))
        res = VcGen(_mk_module()).verify_module(sched)
        assert res.ok and _signature(clean) == _signature(res)
        assert res.stats["pool_failures"] == 1
        causes = [o.stats.get("pool_failure")
                  for f in res.functions for o in f.obligations
                  if o.stats.get("pool_failure")]
        assert len(causes) == 1
        assert causes[0].startswith("InjectedCrash:")

    def test_net_send_drop(self):
        from repro.runtime.network import Network
        net = Network()
        a, b = net.endpoint("a"), net.endpoint("b")
        prev = install(FaultPlan.from_string("net.send:drop@2"))
        try:
            a.send("b", b"one")
            a.send("b", b"two")       # injected drop
            a.send("b", b"three")
        finally:
            install(prev)
        assert [p for _, p in iter(b.try_recv, None)] == [b"one", b"three"]
        assert net.stats["injected_drops"] == 1


# ---------------------------------------------------------------------------
# Retry escalation ladder
# ---------------------------------------------------------------------------

class TestRetryLadder:
    def test_ladder_order(self):
        """The lineup is race candidates, then at most ``retries`` rungs:
        escalated budgets, then escalated budgets per conjunct (unless
        the profile vetoes splitting)."""
        gen = VcGen(_mk_module())

        def names(**kw):
            sched = Scheduler(VerifyConfig(**kw))
            configs = gen.solver_configs(sched._solver_config(gen))
            return [(name, split, race) for name, _, split, race
                    in sched._lineup(gen, configs)]

        assert names() == []
        assert names(retries=1) == [("escalate", False, False)]
        assert names(retries=3) == [("escalate", False, False),
                                    ("split", True, False)]
        assert names(profile="frugal", retries=3) == \
            [("escalate", False, False)]
        assert names(portfolio=1, retries=2) == [
            ("aggressive", False, True), ("escalate", False, False),
            ("split", True, False)]

    def test_resource_out_recovered(self):
        clean = VcGen(_mk_module()).verify_module()
        sched = Scheduler(VerifyConfig.from_env(
            fault_plan="solver.check:resource_out@1", retries=3))
        res = VcGen(_mk_module()).verify_module(sched)
        assert res.ok and _signature(clean) == _signature(res)
        assert res.stats["retries"] == 1
        assert res.stats["retry_recoveries"] == 1
        trails = [o.stats.get("escalation")
                  for f in res.functions for o in f.obligations
                  if o.stats.get("escalation")]
        assert trails == [["escalate"]]

    def test_worker_crash_recovered_in_process(self):
        """A crashed worker's task takes the in-process fallback whatever
        ``retries`` is; the ladder then sees only its verdict."""
        clean = VcGen(_mk_module()).verify_module()
        sched = Scheduler(VerifyConfig.from_env(
            jobs=2, retries=2, fault_plan="pool.worker:crash@1"))
        res = VcGen(_mk_module()).verify_module(sched)
        assert res.ok and _signature(clean) == _signature(res)
        assert res.stats["retry_recoveries"] == 0
        assert res.stats["retries"] == 0
        assert res.stats["pool_failures"] == 1

    def test_genuine_failure_stays_failed(self):
        sched = Scheduler(VerifyConfig.from_env(retries=1))
        res = VcGen(_mk_failing_module()).verify_module(sched)
        assert not res.ok
        assert res.stats["retry_recoveries"] == 0
        assert res.stats["retries"] >= 1
        failed = [o for f in res.functions for o in f.obligations
                  if o.status == FAILED]
        assert failed and failed[0].stats.get("escalation") == ["escalate"]

    def test_every_rung_honours_the_run_budgets(self, monkeypatch):
        """Every rung solves under a step-budgeted config and the run's
        soft deadline."""
        checks = []
        real_check = SmtSolver.check

        def spy(solver, timeout=None):
            checks.append((solver.config.max_steps, timeout))
            return real_check(solver, timeout=timeout)

        monkeypatch.setattr(SmtSolver, "check", spy)
        cfg = VerifyConfig(profile="frugal", max_steps=7, job_timeout=0.5,
                           retries=4, triage="off")
        res = Session(cfg).verify_module(_mk_failing_module())
        assert not res.ok
        trails = [o.stats.get("escalation")
                  for f in res.functions for o in f.obligations]
        assert ["escalate"] in trails
        assert checks
        assert all(steps is not None and timeout == 0.5
                   for steps, timeout in checks)

    def test_retries_off_by_default(self):
        assert Session().scheduler().retries == 0


# ---------------------------------------------------------------------------
# Ladder rungs are keyed, replayed and stored like race candidates
# ---------------------------------------------------------------------------

# The Fig 7a doubly-linked list under a 20-step budget: 11 of its 23
# obligations run out of budget, and every one proves on the escalate rung.
_TIGHT = {"jobs": 1, "max_steps": 20, "triage": "off"}


def _tight_run(**kw):
    from repro.millibench.lists import build_doubly_linked_module
    from repro.smt.solver import total_solver_constructions
    built0 = total_solver_constructions()
    res = Session(VerifyConfig(**_TIGHT, **kw)).verify_module(
        build_doubly_linked_module())
    return res, total_solver_constructions() - built0


def _trails(res):
    return [(o.label, o.status, o.stats.get("escalation"))
            for f in res.functions for o in f.obligations]


def _records(res):
    return [(o.label, o.status, o.stats.get("escalation"),
             o.stats.get("retries"), o.stats.get("portfolio"))
            for f in res.functions for o in f.obligations]


class TestLadderReplay:
    @pytest.mark.parametrize("delta", [False, True], ids=["cache", "delta"])
    def test_rescue_does_not_replay_into_a_run_without_the_ladder(
            self, tmp_path, delta):
        cold, _ = _tight_run(retries=0)
        assert not cold.ok
        assert sum(o.status == RESOURCE_OUT for f in cold.functions
                   for o in f.obligations) == 11
        cdir = str(tmp_path / "pc")
        rescued, _ = _tight_run(retries=2, cache_dir=cdir, delta=delta)
        assert rescued.ok
        again, _ = _tight_run(retries=0, cache_dir=cdir, delta=delta)
        assert not again.ok
        assert _signature(again) == _signature(cold)
        assert again.stats.get("delta_skips", 0) == 0

    def test_cold_ladder_spends_one_rung_per_resource_out(self):
        res, built = _tight_run(retries=2)
        assert res.ok and built <= 34
        assert res.stats["retries"] == res.stats["retry_recoveries"] == 11
        assert {tuple(o.stats["escalation"]) for f in res.functions
                for o in f.obligations if "escalation" in o.stats} \
            == {("escalate",)}

    def test_warm_rerun_replays_the_ladder(self, tmp_path):
        cdir = str(tmp_path / "pc")
        cold, _ = _tight_run(retries=2, cache_dir=cdir)
        warm, built = _tight_run(retries=2, cache_dir=cdir)
        assert warm.ok and _trails(warm) == _trails(cold)
        # Only the main pass re-solves: a resource-out is never cached.
        # Every rung replays its own entry.
        assert built == warm.stats["retries"] == 11
        assert warm.stats["cache_hits"] == 23

    def test_delta_replay_keeps_the_escalation_record(self, tmp_path):
        cdir = str(tmp_path / "pc")
        cold, _ = _tight_run(retries=2, cache_dir=cdir, delta=True)
        warm, built = _tight_run(retries=2, cache_dir=cdir, delta=True)
        assert warm.ok and built == 0 and warm.stats["delta_skips"] > 0
        assert _records(warm) == _records(cold)
        assert any(escalation for _, _, escalation, _, _ in _records(cold))

    @pytest.mark.parametrize("portfolio", [0, 2])
    def test_delta_replay_keeps_the_escalation_counters(self, tmp_path,
                                                        portfolio):
        cdir = str(tmp_path / "pc")
        keys = ("retries", "retry_recoveries", "portfolio_races",
                "portfolio_wins")
        cold, _ = _tight_run(retries=2, portfolio=portfolio,
                             cache_dir=cdir, delta=True)
        warm, _ = _tight_run(retries=2, portfolio=portfolio,
                             cache_dir=cdir, delta=True)
        assert warm.stats["delta_skips"] > 0
        assert cold.stats["retry_recoveries"] == 11
        assert cold.stats["portfolio_races"] == (11 if portfolio else 0)
        assert {k: warm.stats[k] for k in keys} \
            == {k: cold.stats[k] for k in keys}


# ---------------------------------------------------------------------------
# Acceptance: kill mid-run, resume from the proof cache
# ---------------------------------------------------------------------------

def _count_solver_builds(monkeypatch):
    counts = {"n": 0}
    orig = SmtSolver.__init__

    def counting(self, *a, **k):
        counts["n"] += 1
        orig(self, *a, **k)
    monkeypatch.setattr(SmtSolver, "__init__", counting)
    return counts


class TestJournalResume:
    def test_killed_run_resumes_without_resolving(self, tmp_path,
                                                  monkeypatch):
        from repro.systems.ironkv.delegation_map import build_default_module
        cdir = str(tmp_path / "pc")

        clean = Session(jobs=1).verify_module(build_default_module())
        total = sum(len(f.obligations) for f in clean.functions)

        # "Kill" the run at the 4th solver check: the injected crash
        # escapes verify_module exactly like a SIGKILL would, leaving
        # the cache with the 3 already-discharged goals.
        chaos = Session(jobs=1, fault_plan="solver.check:crash@4",
                        cache_dir=cdir)
        with pytest.raises(RuntimeError):
            chaos.verify_module(build_default_module())
        assert len(list(ProofCache(cdir).iter_entries())) == 3

        counts = _count_solver_builds(monkeypatch)
        resumed = Session(jobs=1, cache_dir=cdir).verify_module(
            build_default_module())
        assert resumed.ok
        assert _signature(resumed) == _signature(clean)
        assert resumed.stats["cache_hits"] == 3
        assert counts["n"] == total - 3    # only unfinished goals re-solved

        # The resumed run stored what it solved: a third pass over the
        # same cache replays everything and builds no solver at all.
        counts["n"] = 0
        replayed = Session(jobs=1, cache_dir=cdir).verify_module(
            build_default_module())
        assert replayed.ok and _signature(replayed) == _signature(clean)
        assert replayed.stats["cache_hits"] == total
        assert counts["n"] == 0


# ---------------------------------------------------------------------------
# Acceptance: chaos runs converge to fault-free verdicts, all systems
# ---------------------------------------------------------------------------

# (name, module path, builder, min faults expected to fire).  The
# mimalloc module is all by(bit_vector) idiom proofs (one solver arming,
# no standard-path cache stores) and plog is all by(compute) — ground
# evaluation, no solver at all — so the plan legitimately fires fewer
# (or zero) times there; the byte-identical-verdicts bar still applies.
CASE_STUDIES = [
    ("ironkv", "repro.systems.ironkv.delegation_map",
     "build_default_module", 2),
    ("nr", "repro.systems.nr.model", "build_nr_core_module", 2),
    ("pagetable", "repro.systems.pagetable.view_verified",
     "build_view_module", 2),
    ("mimalloc", "repro.systems.mimalloc.verified",
     "build_bit_tricks_module", 1),
    ("plog", "repro.systems.plog.crc_verified",
     "build_crc_table_module", 0),
]

CHAOS_PLAN = "seed=5; solver.check:resource_out@2; cache.store:io@1"


class TestChaosAcceptance:
    @pytest.mark.parametrize("name,modpath,builder,min_fired", CASE_STUDIES,
                             ids=[c[0] for c in CASE_STUDIES])
    def test_chaos_verdicts_identical(self, tmp_path, name, modpath,
                                      builder, min_fired):
        build = getattr(importlib.import_module(modpath), builder)
        clean = Session(jobs=1).verify_module(build())
        chaos = Session(jobs=1, retries=3, fault_plan=CHAOS_PLAN,
                        cache_dir=str(tmp_path / "pc"))
        res = chaos.verify_module(build())
        assert res.ok == clean.ok
        assert _signature(res) == _signature(clean)
        assert res.stats["faults_injected"] >= min_fired
        if min_fired >= 2:
            # The forced resource-out was recovered by the retry ladder.
            assert res.stats["retry_recoveries"] >= 1

    def test_parallel_chaos_with_worker_crash(self, tmp_path):
        from repro.systems.ironkv.delegation_map import build_default_module
        clean = Session(jobs=1).verify_module(build_default_module())
        plan = ("seed=5; pool.worker:crash@1; cache.store:io@1; "
                "solver.check:resource_out@2")
        chaos = Session(jobs=2, retries=3, fault_plan=plan,
                        cache_dir=str(tmp_path / "pc"))
        res = chaos.verify_module(build_default_module())
        assert res.ok and _signature(res) == _signature(clean)
        assert res.stats["pool_failures"] == 1
        assert res.stats["faults_injected"] >= 3
