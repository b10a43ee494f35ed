"""Obligation scheduler + content-addressed proof cache tests.

Covers the verification scheduler layer (repro.vc.scheduler): term
fingerprinting/serialization for cross-process jobs, cache hit/miss/
invalidation semantics, corrupted-entry recovery, idiom-engine caching,
and serial-vs-parallel determinism on the Fig 9 case-study modules.
"""

import glob
import os

import pytest

from repro.api import Session, VerifyConfig
from repro.cache.store import CACHE_DIR_ENV, ProofCache
from repro.lang import *
from repro.smt import terms as T
from repro.smt.fingerprint import (deserialize_terms, idiom_digest,
                                   obligation_digest, serialize_terms,
                                   solver_config_key)
from repro.smt.solver import SolverConfig, Stats
from repro.smt.sorts import INT as SINT
from repro.smt.sorts import bv, uninterpreted
from repro.vc.errors import PROVED
from repro.vc.scheduler import JOBS_ENV, Scheduler, default_jobs
from repro.vc.wp import VcConfig, VcGen
from tests.helpers import verify_module


def _mk_module(bound=5, name="sched_demo"):
    """A small module with several cheap SMT obligations."""
    mod = Module(name)
    a = var("a", U64)
    r = var("res", U64)
    exec_fn(mod, "bump", [("a", U64)], ret=("res", U64),
            requires=[a < lit(100)],
            ensures=[r >= a, r <= a + lit(bound)],
            body=[ret(a + 1)])
    exec_fn(mod, "twice", [("a", U64)], ret=("res", U64),
            requires=[a < lit(100)],
            ensures=[r.eq(a + a)],
            body=[ret(a + a)])
    return mod


def _mk_failing_module():
    """Two functions with distinct failing obligations (stable labels)."""
    mod = Module("sched_fail")
    x = var("x", INT)
    r = var("r", INT)
    exec_fn(mod, "wrong_post", [("x", INT)], ret=("r", INT),
            ensures=[r.eq(x + 1)],
            body=[ret(x)])
    exec_fn(mod, "bad_assert", [("x", INT)], ret=("r", INT),
            body=[assert_(x >= 0, label="nonneg"), ret(x)])
    return mod


def _signature(res):
    return [(f.name, o.label, o.kind, o.status)
            for f in res.functions for o in f.obligations]


# ---------------------------------------------------------------------------
# Fingerprinting / serialization
# ---------------------------------------------------------------------------

class TestFingerprint:
    def test_roundtrip_identity(self):
        S = uninterpreted("RT")
        s1, s2 = T.Var("s1", S), T.Var("s2", S)
        f = T.FuncDecl("frt", [S], S)
        x, y = T.Var("x", SINT), T.Var("y", SINT)
        b = T.Var("b8", bv(8))
        u = T.Var("u", S)
        roots = [
            T.And(T.Lt(x, y), T.Eq(f(s1), s2)),
            T.Ite(T.Le(x, T.IntVal(0)), T.BoolVal(True), T.Lt(y, x)),
            T.Eq(T.BvAnd(b, T.BVVal(0x0F, 8)), T.BVVal(3, 8)),
            T.ForAll([u], T.Eq(f(u), u), [(f(u),)]),
            T.Not(T.Eq(T.Add(x, T.Mul(y, T.IntVal(2))), T.IntVal(7))),
        ]
        rebuilt = deserialize_terms(serialize_terms(roots))
        # Hash-consing makes identity the strongest possible check.
        assert all(a is b for a, b in zip(roots, rebuilt))

    def test_shared_subterms_emitted_once(self):
        x = T.Var("x", SINT)
        shared = T.Add(x, T.IntVal(1))
        nodes, _, _ = serialize_terms([T.Lt(shared, T.IntVal(5)),
                                       T.Le(shared, T.IntVal(9))])
        adds = [n for n in nodes if n[0] == "o" and n[1] == T.ADD]
        assert len(adds) == 1

    def test_digest_sensitive_to_config(self):
        x = T.Var("x", SINT)
        assertions = [T.Lt(x, T.IntVal(0))]
        k1 = solver_config_key(SolverConfig(trigger_policy=CONSERVATIVE))
        k2 = solver_config_key(SolverConfig(trigger_policy=BROAD))
        assert (obligation_digest(assertions, k1)
                != obligation_digest(assertions, k2))

    def test_digest_sensitive_to_strategy(self):
        x = T.Var("x", SINT)
        assertions = [T.Lt(x, T.IntVal(0))]
        key = solver_config_key(SolverConfig())
        assert (obligation_digest(assertions, key, "VcGen")
                != obligation_digest(assertions, key, "FStarVcGen"))

    def test_idiom_digest_engine_scoped(self):
        b = T.Var("vb", bv(64))
        formula = T.Eq(T.BvAnd(b, T.BVVal(1, 64)), T.BVVal(0, 64))
        assert (idiom_digest("bit_vector", [formula])
                != idiom_digest("nonlinear_arith", [formula]))
        assert (idiom_digest("bit_vector", [formula])
                == idiom_digest("bit_vector", [formula]))


# ---------------------------------------------------------------------------
# Proof cache semantics
# ---------------------------------------------------------------------------

class TestProofCache:
    def test_hit_on_identical_reverify(self, tmp_path):
        cache = str(tmp_path / "pc")
        r1 = verify_module(_mk_module(), cache=cache)
        r2 = verify_module(_mk_module(), cache=cache)
        assert r1.ok and r2.ok
        assert _signature(r1) == _signature(r2)
        assert r1.stats["cache_hits"] == 0
        assert r1.stats["cache_misses"] > 0
        assert r2.stats["cache_misses"] == 0
        assert r2.stats["cache_hits"] == r1.stats["cache_misses"]

    def test_miss_after_postcondition_change(self, tmp_path):
        cache = str(tmp_path / "pc")
        verify_module(_mk_module(bound=5), cache=cache)
        r2 = verify_module(_mk_module(bound=6), cache=cache)
        # The mutated function re-solves; the untouched one still hits.
        assert r2.stats["cache_misses"] > 0
        assert r2.stats["cache_hits"] > 0

    def test_miss_after_solver_knob_change(self, tmp_path):
        cache = str(tmp_path / "pc")
        verify_module(_mk_module(), VcConfig(trigger_policy=CONSERVATIVE),
                      cache=cache)
        r2 = verify_module(_mk_module(), VcConfig(trigger_policy=BROAD),
                           cache=cache)
        assert r2.stats["cache_hits"] == 0
        assert r2.stats["cache_misses"] > 0

    def test_corrupted_entries_recovered(self, tmp_path):
        cachedir = tmp_path / "pc"
        r1 = verify_module(_mk_module(), cache=str(cachedir))
        entries = glob.glob(str(cachedir / "*" / "*.json"))
        assert entries
        for path in entries:
            with open(path, "w") as fh:
                fh.write("{not json")
        sched = Scheduler(VerifyConfig.from_env(),
                          cache=ProofCache(str(cachedir)))
        r2 = VcGen(_mk_module()).verify_module(sched)
        assert r2.ok and _signature(r1) == _signature(r2)
        assert sched.cache.corrupt == len(entries)
        assert sched.cache.stores == len(entries)  # rewritten
        # Third run: everything hits again.
        r3 = verify_module(_mk_module(), cache=str(cachedir))
        assert r3.stats["cache_misses"] == 0

    def test_failed_verdicts_cached_too(self, tmp_path):
        cache = str(tmp_path / "pc")
        r1 = verify_module(_mk_failing_module(), cache=cache)
        r2 = verify_module(_mk_failing_module(), cache=cache)
        assert not r1.ok and not r2.ok
        assert _signature(r1) == _signature(r2)
        assert r2.stats["cache_misses"] == 0

    def test_env_default_and_explicit_disable(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "envpc"))
        assert Session().scheduler().cache is not None
        assert Scheduler(VerifyConfig.from_env()).cache is None
        monkeypatch.delenv(CACHE_DIR_ENV)
        assert Session().scheduler().cache is None

    def test_lookup_rejects_digest_mismatch(self, tmp_path):
        cache = ProofCache(str(tmp_path / "pc"))
        cache.store("ab" * 32, "proved", {}, 0, label="x")
        # Entry stored under a different digest must not be served.
        path = cache._path("ab" * 32)
        os.makedirs(os.path.dirname(cache._path("cd" * 32)), exist_ok=True)
        os.replace(path, cache._path("cd" * 32))
        assert cache.lookup("cd" * 32) is None


class TestCacheQuarantine:
    """Damaged entries are evicted (quarantined) and the run proceeds
    with a fresh solve — never a wrong replay, never a crash."""

    def _poison(self, cachedir, mutate):
        entries = glob.glob(str(cachedir / "*" / "*.json"))
        assert entries
        for path in entries:
            mutate(path)
        return entries

    def _assert_recovers(self, cachedir, entries, r1):
        sched = Scheduler(VerifyConfig.from_env(),
                          cache=ProofCache(str(cachedir)))
        r2 = VcGen(_mk_module()).verify_module(sched)
        assert r2.ok and _signature(r1) == _signature(r2)
        assert sched.cache.hits == 0
        assert sched.cache.corrupt == len(entries)
        assert sched.cache.stores == len(entries)   # rewritten fresh
        r3 = verify_module(_mk_module(), cache=str(cachedir))
        assert r3.stats["cache_misses"] == 0        # healthy again

    def test_truncated_json_quarantined(self, tmp_path):
        cachedir = tmp_path / "pc"
        r1 = verify_module(_mk_module(), cache=str(cachedir))

        def truncate(path):
            data = open(path, "rb").read()
            with open(path, "wb") as fh:
                fh.write(data[:len(data) // 2])
        entries = self._poison(cachedir, truncate)
        self._assert_recovers(cachedir, entries, r1)

    def test_digest_mismatch_quarantined(self, tmp_path):
        cachedir = tmp_path / "pc"
        r1 = verify_module(_mk_module(), cache=str(cachedir))

        def tamper(path):
            import json as J
            entry = J.load(open(path))
            entry["digest"] = "f" * 64   # valid JSON, wrong identity
            with open(path, "w") as fh:
                J.dump(entry, fh)
        entries = self._poison(cachedir, tamper)
        self._assert_recovers(cachedir, entries, r1)

    def test_bogus_status_quarantined(self, tmp_path):
        cachedir = tmp_path / "pc"
        r1 = verify_module(_mk_module(), cache=str(cachedir))

        def bogus(path):
            import json as J
            entry = J.load(open(path))
            entry["status"] = "maybe-proved"
            with open(path, "w") as fh:
                J.dump(entry, fh)
        entries = self._poison(cachedir, bogus)
        self._assert_recovers(cachedir, entries, r1)

    def test_eviction_removes_the_file(self, tmp_path):
        cache = ProofCache(str(tmp_path / "pc"))
        cache.store("ab" * 32, "proved", {}, 0, label="x")
        path = cache._path("ab" * 32)
        with open(path, "w") as fh:
            fh.write("{torn")
        assert cache.lookup("ab" * 32) is None
        assert not os.path.exists(path)              # quarantined
        assert cache.corrupt == 1

    def test_resource_out_never_stored(self, tmp_path):
        from repro.vc.errors import RESOURCE_OUT
        cache = ProofCache(str(tmp_path / "pc"))
        cache.store("ab" * 32, RESOURCE_OUT, {}, 0, label="x")
        assert cache.stores == 0
        assert not os.path.exists(cache._path("ab" * 32))
        assert cache.lookup("ab" * 32) is None


class TestTieredCacheQuarantine:
    """Cross-tier quarantine: the flat-cache guarantees extend to the
    tiered front — a damaged entry at *any* tier boundary is rejected,
    counted, and re-solved, never replayed as a verdict."""

    def test_poisoned_disk_behind_tiered_front_recovers(self, tmp_path):
        from repro.cache import TieredProofCache
        cachedir = tmp_path / "pc"
        r1 = verify_module(_mk_module(), cache=str(cachedir))
        entries = glob.glob(str(cachedir / "*" / "*.json"))
        assert entries
        for path in entries:
            data = open(path, "rb").read()
            with open(path, "wb") as fh:
                fh.write(data[: len(data) // 2])
        tc = TieredProofCache(str(cachedir))
        sched = Scheduler(VerifyConfig.from_env(), cache=tc)
        r2 = VcGen(_mk_module()).verify_module(sched)
        assert r2.ok and _signature(r1) == _signature(r2)
        assert tc.hits == 0
        assert tc.corrupt == len(entries)
        assert tc.quarantined == len(entries)
        assert tc.stores == len(entries)            # rewritten fresh
        r3 = verify_module(_mk_module(), cache=str(cachedir))
        assert r3.stats["cache_misses"] == 0        # healthy again


# ---------------------------------------------------------------------------
# Idiom-engine caching (§3.3 by(...) verdicts)
# ---------------------------------------------------------------------------

class TestEntryKinds:
    """Verdict and function entries share one directory and one path
    scheme; a read of one kind never answers with another.  Neither does
    an entry of a kind this build no longer writes (``tuner`` records
    from an older build's auto-tuner)."""

    FN = "f1" * 32
    TUNER = "7e" * 32
    VERDICT = "ab" * 32

    def _plant(self, root):
        from repro.vc.delta import DeltaCache
        from repro.vc.errors import FunctionResult, Obligation
        result = FunctionResult("f")
        ob = Obligation("f: ensures#0", "ensures")
        ob.status = PROVED
        result.obligations.append(ob)
        delta = DeltaCache(root)
        delta.store(self.FN, "f", result)
        cache = ProofCache(root)
        cache.write({"digest": self.TUNER, "kind": "tuner",
                     "profile": "epr", "status": PROVED, "wins": 1})
        cache.store(self.VERDICT, PROVED, {}, 0, label="x")
        return cache, delta

    def test_function_and_tuner_entries_never_answer_verdicts(self,
                                                              tmp_path):
        cache, _ = self._plant(str(tmp_path))
        assert cache.lookup(self.FN) is None
        assert cache.lookup(self.TUNER) is None
        assert (cache.hits, cache.misses, cache.corrupt) == (0, 2, 0)
        assert [e["digest"] for e in cache.iter_entries()] == [self.VERDICT]
        # Another kind's entry is a plain miss, not corruption: kept.
        assert os.path.exists(cache._path(self.FN))
        assert os.path.exists(cache._path(self.TUNER))

    def test_verdict_entry_never_answers_views(self, tmp_path):
        cache, delta = self._plant(str(tmp_path))
        assert delta.lookup(self.VERDICT) is None
        assert delta.lookup(self.TUNER) is None
        assert delta.misses == 2
        assert cache.corrupt == 0 and os.path.exists(cache._path(self.TUNER))
        assert cache.lookup(self.VERDICT)["status"] == PROVED
        # The view still reads its own entries.
        assert delta.lookup(self.FN)["function"] == "f"

    def test_truncated_function_entries_evicted(self, tmp_path):
        cache, delta = self._plant(str(tmp_path))
        path = cache._path(self.FN)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[:len(data) // 2])
        assert delta.lookup(self.FN) is None
        assert delta.misses == 1
        assert not os.path.exists(path)

    def test_tier_hits_count_only_admitted_entries(self, tmp_path):
        """A triage-off run over a triage-on cache rejects the static
        entries; no tier may count them as hits."""
        from repro.systems.ironkv.delegation_map import build_default_module
        cfg = VerifyConfig(cache_dir=str(tmp_path / "pc"),
                           cache_tiers="mem,disk", triage="on")
        cold = Session(cfg).verify_module(build_default_module())
        assert cold.stats["static_proved"] >= 1
        off = Session(cfg.replace(triage="off")).verify_module(
            build_default_module())
        assert off.stats["cache_misses"] >= cold.stats["static_proved"]
        assert (off.stats["mem_hits"] + off.stats["disk_hits"]
                == off.stats["cache_hits"])


class TestIdiomCache:
    def _bv_module(self):
        mod = Module("t_bv_cache")
        x = var("x", U64)
        exec_fn(mod, "mask_is_mod", [("x", U64)], ret=("r", U64),
                ensures=[var("r", U64).eq(x % 512)],
                body=[
                    assert_((x & lit(511)).eq(x % 512), by=BY_BIT_VECTOR),
                    ret(x & lit(511)),
                ])
        return mod

    def test_bit_vector_verdict_cached(self, tmp_path):
        cache = str(tmp_path / "pc")
        r1 = verify_module(self._bv_module(), cache=cache)
        r2 = verify_module(self._bv_module(), cache=cache)
        assert r1.ok and r2.ok
        assert _signature(r1) == _signature(r2)
        assert r2.stats["cache_misses"] == 0
        assert r2.stats["cache_hits"] == r1.stats["cache_misses"]

    def test_failing_bit_vector_cached(self, tmp_path):
        mod = Module("t_bv_bad_cache")
        x = var("x", U64)

        def build():
            m = Module("t_bv_bad_cache")
            xx = var("x", U64)
            exec_fn(m, "bad", [("x", U64)],
                    body=[assert_((xx & lit(3)).eq(xx % 8),
                                  by=BY_BIT_VECTOR)])
            return m

        cache = str(tmp_path / "pc")
        r1 = verify_module(build(), cache=cache)
        r2 = verify_module(build(), cache=cache)
        assert not r1.ok and not r2.ok
        assert _signature(r1) == _signature(r2)
        assert r2.stats["cache_misses"] == 0

    def test_no_cache_attached_is_passthrough(self):
        r = verify_module(self._bv_module(), cache=False)
        assert r.ok and r.stats["cache_hits"] == 0
        assert r.stats["cache_misses"] == 0


# ---------------------------------------------------------------------------
# Serial vs parallel determinism (satellite: IronKV + pagetable)
# ---------------------------------------------------------------------------

class TestDeterminism:
    def _compare(self, build):
        serial = VcGen(build()).verify_module(
            Scheduler(VerifyConfig.from_env(jobs=1)))
        parallel = VcGen(build()).verify_module(
            Scheduler(VerifyConfig.from_env(jobs=4)))
        assert _signature(serial) == _signature(parallel)
        assert serial.ok == parallel.ok
        return serial, parallel

    def test_ironkv_delegation_map(self):
        from repro.systems.ironkv.delegation_map import build_default_module
        serial, _ = self._compare(build_default_module)
        assert serial.ok

    def test_ironkv_marshal(self):
        from repro.systems.ironkv.marshal_verified import (
            build_u64_roundtrip_module)
        serial, _ = self._compare(build_u64_roundtrip_module)
        assert serial.ok

    def test_pagetable_entries(self):
        from repro.systems.pagetable.entry_verified import build_entry_module
        serial, _ = self._compare(build_entry_module)
        assert serial.ok

    def test_failure_labels_identical(self):
        serial, parallel = self._compare(_mk_failing_module)
        assert not serial.ok
        assert ([(f, o.label) for f, o in serial.failures()]
                == [(f, o.label) for f, o in parallel.failures()])


# ---------------------------------------------------------------------------
# Stats plumbing
# ---------------------------------------------------------------------------

class TestStatsPlumbing:
    def test_module_stats_snapshot(self, tmp_path):
        res = verify_module(_mk_module(), cache=str(tmp_path / "pc"))
        assert res.stats["obligations"] == sum(
            len(f.obligations) for f in res.functions)
        assert res.stats["wall_seconds"] > 0

    def test_report_mentions_cache(self, tmp_path):
        cache = str(tmp_path / "pc")
        verify_module(_mk_module(), cache=cache)
        res = verify_module(_mk_module(), cache=cache)
        assert "proof cache" in res.report()
        assert "100% hit rate" in res.report()

    def test_stats_merge_ignores_non_numeric(self):
        s = Stats()
        s.merge({"conflicts": 3, "cache_hit": True, "note": "x"})
        s.merge({"conflicts": 2})
        assert s.conflicts == 5
        assert not hasattr(s, "note")

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert default_jobs() == 3
        monkeypatch.setenv(JOBS_ENV, "junk")
        assert default_jobs() == 1
        monkeypatch.delenv(JOBS_ENV)
        assert default_jobs() == 1
