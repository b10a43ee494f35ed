"""Tiered proof cache tests (repro.cache): memory → disk.

Covers the LRU memory tier, cross-tier quarantine of tampered entries,
byte-identical verdicts whether the cache is clean or its disk tier
tears lookups and drops writes, and the config/scheduler/daemon
wiring.
"""

import hashlib
import json

import pytest

from repro.api import Session, VerifyConfig
from repro.cache import (ProofCache, TieredProofCache, make_entry,
                         parse_tiers)
from repro.lang import *
from tests.helpers import verify_module


def _digest(tag) -> str:
    return hashlib.sha256(str(tag).encode()).hexdigest()


def _entries(n, start=0):
    return [make_entry(_digest(i), "proved", {"i": i}, 7, f"g{i}")
            for i in range(start, start + n)]


def _mk_module(bound=5, name="tiers_demo"):
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


def _signature(res):
    return [(f.name, o.label, o.kind, o.status)
            for f in res.functions for o in f.obligations]


def _tiered(tmp_path, name="c", **kw):
    return TieredProofCache(str(tmp_path / name), **kw)


def _tamper_disk(cache, digest, **fields) -> None:
    """Overwrite the on-disk copy of ``digest`` with altered fields."""
    path = cache.disk._path(digest)
    with open(path) as fh:
        entry = json.load(fh)
    entry.update(fields)
    with open(path, "w") as fh:
        json.dump(entry, fh)


# ---------------------------------------------------------------------------
# Tiered lookup/store mechanics
# ---------------------------------------------------------------------------

class TestTieredCache:
    def test_parse_tiers(self):
        assert parse_tiers(None) == ("mem", "disk")
        assert parse_tiers("disk, mem") == ("mem", "disk")
        assert parse_tiers("disk") == ("disk",)
        for bad in ("mem,disk,tape", "mem,disk,net"):
            with pytest.raises(ValueError):
                parse_tiers(bad)

    def test_lookup_walks_mem_then_disk(self, tmp_path):
        tc = _tiered(tmp_path)
        d = _digest("a")
        tc.store(d, "proved", {"s": 1}, 5, "lbl")
        assert tc.lookup(d)["status"] == "proved"
        assert tc.mem_hits == 1 and tc.disk_hits == 0
        tc2 = _tiered(tmp_path)                    # cold memory, same disk
        assert tc2.lookup(d)["status"] == "proved"
        assert tc2.disk_hits == 1
        assert tc2.lookup(d)["status"] == "proved"
        assert tc2.mem_hits == 1                   # promoted on disk hit

    def test_mem_budget_evicts_lru(self, tmp_path):
        entry = make_entry(_digest("x"), "proved", {}, 0, "l")
        from repro.cache.store import entry_nbytes
        budget = entry_nbytes(entry) * 2 + 10
        tc = _tiered(tmp_path, mem_budget=budget)
        digests = [_digest(i) for i in range(4)]
        for d in digests:
            tc.store(d, "proved", {}, 0, "l")
        assert len(tc._mem) <= 2                   # budget enforced
        assert tc.lookup(digests[0])["digest"] == digests[0]
        assert tc.disk_hits == 1                   # evicted -> disk served

    def test_mem_disabled_without_mem_tier(self, tmp_path):
        tc = TieredProofCache(str(tmp_path / "d"), tiers="disk")
        tc.store(_digest("y"), "proved", {}, 0, "l")
        assert tc.lookup(_digest("y")) is not None
        assert tc.mem_hits == 0 and tc.disk_hits == 1

    def test_uncacheable_status_not_stored(self, tmp_path):
        from repro.vc.errors import RESOURCE_OUT
        tc = _tiered(tmp_path)
        tc.store(_digest("r"), RESOURCE_OUT, {}, 0, "l")
        assert tc.stores == 0 and tc.lookup(_digest("r")) is None


class TestCrossTierQuarantine:
    def test_corrupt_mem_entry_quarantined_falls_through_to_disk(
            self, tmp_path):
        tc = _tiered(tmp_path)
        d = _digest("m")
        tc.store(d, "proved", {"s": 1}, 5, "lbl")
        tc._mem[d][0]["status"] = "maybe-proved"    # tamper in memory
        entry = tc.lookup(d)
        assert entry is not None and entry["status"] == "proved"
        assert tc.quarantined == 1 and tc.corrupt == 1
        assert tc.mem_hits == 0 and tc.disk_hits == 1
        # The tampered copy was dropped and the valid disk copy promoted.
        assert tc._mem[d][0]["status"] == "proved"

    def test_resolved_verdict_overwrites_rot_via_store(self, tmp_path):
        good = _entries(1)[0]
        d = good["digest"]
        tc = _tiered(tmp_path)
        tc.store(d, good["status"], good["stats"], good["query_bytes"],
                 good["label"])
        _tamper_disk(tc, d, status="maybe-proved")
        tc2 = _tiered(tmp_path)                    # cold memory, same disk
        assert tc2.lookup(d) is None               # quarantine, miss
        assert tc2.quarantined == 1 and tc2.misses == 1
        assert d not in tc2._mem                   # rot never promoted
        # "Re-solve" and store: the write replaces the evicted rot.
        tc2.store(d, good["status"], good["stats"], good["query_bytes"],
                  good["label"])
        assert ProofCache(tc2.root).lookup(d) == good


# ---------------------------------------------------------------------------
# Graceful degradation: byte-identical verdicts under disk-tier faults
# ---------------------------------------------------------------------------

class TestDegradationByteIdentity:
    def _run(self, tmp_path, name, fault_plan=None, jobs=1):
        """Cold then warm run over one disk root; both signatures."""
        results = []
        for _phase in ("cold", "warm"):
            tc = _tiered(tmp_path, name=name)
            cfg = VerifyConfig(jobs=jobs, fault_plan=fault_plan)
            with Session(cfg, cache=tc) as session:
                results.append(_signature(
                    session.verify_module(_mk_module())))
        return results

    def test_all_cache_states_verdict_identical(self, tmp_path):
        baseline = None
        scenarios = [
            ("clean", None),
            ("torn-lookups", "seed=3; cache.lookup:corrupt%1"),
            ("dropped-writes", "seed=3; cache.store:io%1"),
        ]
        for name, plan in scenarios:
            for jobs in (1, 2):
                cold, warm = self._run(tmp_path, f"{name}-j{jobs}",
                                       fault_plan=plan, jobs=jobs)
                if baseline is None:
                    baseline = cold
                assert cold == baseline, f"{name} jobs={jobs} cold diverged"
                assert warm == baseline, f"{name} jobs={jobs} warm diverged"


# ---------------------------------------------------------------------------
# Scheduler / Session / config wiring
# ---------------------------------------------------------------------------

class TestWiring:
    def test_env_knobs_parsed(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "pc"))
        monkeypatch.setenv("REPRO_CACHE_TIERS", "mem,disk")
        monkeypatch.setenv("REPRO_CACHE_MEM_BUDGET", "1024")
        cfg = VerifyConfig.from_env()
        assert cfg.cache_tiers == "mem,disk"
        assert cfg.cache_mem_budget == 1024
        cache = Session().cache
        assert isinstance(cache, TieredProofCache)
        assert cache.mem_budget == 1024

    def test_env_rejects_unknown_tier_at_config_time(self, monkeypatch,
                                                     tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "pc"))
        monkeypatch.setenv("REPRO_CACHE_TIERS", "mem,disk,net")
        with pytest.raises(ValueError, match="net"):
            VerifyConfig.from_env()

    def test_env_without_tiers_stays_flat(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "pc"))
        monkeypatch.delenv("REPRO_CACHE_TIERS", raising=False)
        cache = Session().cache
        assert isinstance(cache, ProofCache)
        assert not isinstance(cache, TieredProofCache)

    def test_session_builds_tiered_cache(self, tmp_path):
        cfg = VerifyConfig(cache_dir=str(tmp_path / "pc"),
                           cache_tiers="mem,disk")
        with Session(cfg) as session:
            assert isinstance(session.cache, TieredProofCache)
            result = session.verify_module(_mk_module())
        assert result.ok
        assert result.stats["mem_hits"] + result.stats["disk_hits"] == 0
        with Session(cfg) as session:
            warm = session.verify_module(_mk_module())
        assert warm.stats["cache_hits"] > 0
        # Per-tier counters flow through scheduler stats: a fresh
        # session has a cold memory tier, so warm hits come from disk.
        assert warm.stats["disk_hits"] == warm.stats["cache_hits"]

    def test_scheduler_merges_tier_counters(self, tmp_path):
        tc = _tiered(tmp_path)
        verify_module(_mk_module(), cache=tc)
        r = verify_module(_mk_module(), cache=tc)
        assert r.ok
        # Same instance: the second run is served by the memory tier.
        assert r.stats["mem_hits"] == r.stats["cache_hits"] > 0
        assert r.stats["disk_hits"] == 0 and r.stats["quarantined"] == 0

    def test_quarantine_counter_reaches_module_stats(self, tmp_path):
        # Learn the run's digests via a clean tiered run, tamper every
        # disk copy, then re-run over a cold memory tier: each lookup
        # quarantines, the verdicts re-solve identically, and the
        # re-solved stores repair the disk tier.
        tc = _tiered(tmp_path)
        r1 = verify_module(_mk_module(), cache=tc)
        digests = [e["digest"] for e in tc.disk.iter_entries()]
        assert digests
        for d in digests:
            _tamper_disk(tc, d, status="maybe-proved")
        tc2 = _tiered(tmp_path)
        r2 = verify_module(_mk_module(), cache=tc2)
        assert _signature(r1) == _signature(r2)
        assert r2.stats["quarantined"] == len(digests)
        assert r2.stats["cache_hits"] == 0
        repaired = [e["digest"] for e in tc2.disk.iter_entries()]
        assert sorted(repaired) == sorted(digests)


# ---------------------------------------------------------------------------
# Daemon wiring
# ---------------------------------------------------------------------------

class TestDaemonWiring:
    def test_status_reports_tier_counters(self, tmp_path):
        from repro.server.config import ServerConfig
        from tests.test_server import MODULE_V1, _Daemon
        cfg = VerifyConfig(cache_dir=str(tmp_path / "pc"),
                           cache_tiers="mem,disk", triage="off")
        with _Daemon(ServerConfig(port=0, workers=1), cfg) as d, \
                d.client("tiers") as c:
            for _ in range(2):
                # Delta off, so the repeat request reaches the cache.
                reply = c.verify(source=MODULE_V1, builder="build",
                                 config={"delta": False})
                assert reply["status"] == "ok" and reply["result"]["ok"]
            cache = c.status()["result"]["cache"]
        assert cache["tiers"] == "mem,disk"
        assert "replica" not in cache
        counters = cache["tier_counters"]
        assert set(counters) == {"mem_hits", "disk_hits", "quarantined"}
        # Each request opens its own Session cache with a cold memory
        # tier, so the second request's hits are all disk hits.
        assert counters["disk_hits"] > 0 and counters["mem_hits"] == 0


# ---------------------------------------------------------------------------
# perf_summary rendering
# ---------------------------------------------------------------------------

def test_perf_summary_renders_tier_counters():
    from repro.diag.profile import PERF_COUNTERS, perf_summary
    tier_rows = {name for name, note in PERF_COUNTERS
                 if note.startswith("cache ")}
    assert tier_rows == {"mem_hits", "disk_hits", "quarantined"}
    text = perf_summary({"mem_hits": 3, "disk_hits": 2, "quarantined": 4})
    assert "mem_hits" in text and "disk_hits" in text
    assert "quarantined" in text
