"""Tiered proof cache tests (repro.cache): memory → disk → network.

Covers the Merkle index and anti-entropy convergence (with transfer
counts), the circuit breaker's trip/half-open/close cycle, cross-tier
quarantine of tampered entries, the ``cache.net``/``cache.replica``
fault points, graceful degradation (a partitioned or corrupting replica
set behaves exactly like disk-only operation, byte-identically), and
the config/daemon wiring.
"""

import hashlib
import time

import pytest

from repro.api import Session, VerifyConfig
from repro.cache import (CacheReplica, CircuitBreaker, MerkleIndex,
                         ProofCache, ReplicaClient, TieredProofCache,
                         diff_shards, entry_is_sound, make_entry,
                         parse_tiers, seal_entry)
from repro.cache.breaker import CLOSED, HALF_OPEN, OPEN
from repro.cache.store import entry_checksum
from repro.lang import *
from repro.resilience import faults
from repro.resilience.faults import FaultPlan
from repro.runtime.network import Network
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


@pytest.fixture
def net():
    return Network()


@pytest.fixture
def replica(net):
    rep = CacheReplica("cache0", net, poll=0.01).start()
    yield rep
    rep.stop()


def _tiered(tmp_path, net=None, name="c", root=None, **kw):
    kw.setdefault("net_timeout", 0.02)
    kw.setdefault("tiers", "mem,disk,net" if net is not None else "mem,disk")
    return TieredProofCache(str(tmp_path / (root or name)), network=net,
                            replica_name="cache0",
                            client_name=f"cli-{name}", **kw)


# ---------------------------------------------------------------------------
# Merkle index
# ---------------------------------------------------------------------------

class TestMerkle:
    def test_empty_roots_agree(self):
        assert MerkleIndex().root() == MerkleIndex().root()

    def test_put_changes_root_remove_restores(self):
        idx = MerkleIndex()
        empty = idx.root()
        idx.put(_digest(1), "c1")
        assert idx.root() != empty
        idx.remove(_digest(1))
        assert idx.root() == empty

    def test_insertion_order_irrelevant(self):
        a, b = MerkleIndex(), MerkleIndex()
        for i in range(40):
            a.put(_digest(i), f"c{i}")
        for i in reversed(range(40)):
            b.put(_digest(i), f"c{i}")
        assert a.root() == b.root()

    def test_diff_localizes_to_touched_shards(self):
        a, b = MerkleIndex(), MerkleIndex()
        for i in range(40):
            a.put(_digest(i), f"c{i}")
            b.put(_digest(i), f"c{i}")
        d = _digest("extra")
        b.put(d, "cx")
        differing = diff_shards(a.shard_hashes(), b.shard_hashes())
        assert differing == [d[:2]]
        assert d in b.leaves(d[:2])

    def test_checksum_change_same_key_detected(self):
        a, b = MerkleIndex(), MerkleIndex()
        d = _digest(1)
        a.put(d, "good")
        b.put(d, "rotten")
        assert diff_shards(a.shard_hashes(), b.shard_hashes()) == [d[:2]]


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------

class TestBreaker:
    def test_trip_halfopen_close_cycle(self):
        clock = [0.0]
        br = CircuitBreaker(threshold=3, cooldown=5.0,
                            clock=lambda: clock[0])
        assert br.state == CLOSED
        assert not br.record_failure()
        assert not br.record_failure()
        assert br.record_failure()          # third consecutive: trips
        assert br.state == OPEN and br.trips == 1
        assert not br.allow()               # cooldown not elapsed
        clock[0] = 5.1
        assert br.allow()                   # the single half-open probe
        assert br.state == HALF_OPEN
        assert not br.allow()               # no second probe in flight
        assert br.record_success()          # probe ok -> closed + flush cue
        assert br.state == CLOSED
        assert br.allow()

    def test_failed_probe_reopens_without_new_trip(self):
        clock = [0.0]
        br = CircuitBreaker(threshold=1, cooldown=2.0,
                            clock=lambda: clock[0])
        br.record_failure()
        assert br.trips == 1
        clock[0] = 2.5
        assert br.allow()
        br.record_failure()                 # probe failed
        assert br.state == OPEN and br.trips == 1
        assert not br.allow()               # new cooldown started
        clock[0] = 5.0
        assert br.allow()

    def test_success_resets_consecutive_count(self):
        br = CircuitBreaker(threshold=2, clock=lambda: 0.0)
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == CLOSED           # never two *consecutive*


# ---------------------------------------------------------------------------
# Replica store + anti-entropy
# ---------------------------------------------------------------------------

class TestReplicaStore:
    def test_resolve_put_rejects_bad_checksum(self, replica):
        entry = seal_entry(_entries(1)[0])
        entry["stats"] = {"tampered": True}       # sum now stale
        assert not replica.store.resolve_put(entry)
        assert replica.store.quarantined == 1
        assert len(replica.store) == 0

    def test_valid_repairs_planted_corruption(self, replica):
        good = seal_entry(_entries(1)[0])
        rotten = dict(good)
        rotten["stats"] = {"rot": 1}              # body != claimed sum
        replica.store.plant(rotten)
        assert not entry_is_sound(replica.store.get(good["digest"]),
                                  good["digest"])
        assert replica.store.resolve_put(good)    # valid beats invalid
        assert replica.store.get(good["digest"]) == good

    def test_conflict_rule_symmetric(self):
        e = _entries(1)[0]
        a = seal_entry(dict(e, stats={"run": "a"}))
        b = seal_entry(dict(e, stats={"run": "b"}))
        from repro.cache.replica import ReplicaStore
        s1, s2 = ReplicaStore(), ReplicaStore()
        s1.resolve_put(a), s1.resolve_put(b)
        s2.resolve_put(b), s2.resolve_put(a)
        assert s1.get(e["digest"]) == s2.get(e["digest"])
        assert s1.index.root() == s2.index.root()


class TestAntiEntropy:
    def test_disjoint_halves_converge_with_counted_transfers(self, net):
        r1 = CacheReplica("r1", net, poll=0.01).start()
        r2 = CacheReplica("r2", net, poll=0.01).start()
        try:
            entries = _entries(20)
            assert r1.seed(entries[:10]) == 10
            assert r2.seed(entries[10:]) == 10
            assert r1.store.root() != r2.store.root()
            counts = r1.sync_with("r2")
            # Only the differing entries ship — each side's half, once.
            assert counts["pulled"] == 10
            assert counts["pushed"] == 10
            assert counts["quarantined"] == 0
            assert len(r1.store) == len(r2.store) == 20
            assert r1.store.root() == r2.store.root()
            again = r1.sync_with("r2")
            assert again["in_sync"]
            assert again["pulled"] == again["pushed"] == 0
            assert again["shards_walked"] == 0
        finally:
            r1.stop(), r2.stop()

    def test_sync_walks_only_differing_shards(self, net):
        r1 = CacheReplica("s1", net, poll=0.01).start()
        r2 = CacheReplica("s2", net, poll=0.01).start()
        try:
            shared = _entries(30)
            r1.seed(shared), r2.seed(shared)
            extra = make_entry(_digest("only-r2"), "failed", {}, 3, "g")
            r2.seed([extra])
            counts = r1.sync_with("s2")
            assert counts["shards_walked"] == 1
            assert counts["pulled"] == 1 and counts["pushed"] == 0
            assert r1.store.root() == r2.store.root()
        finally:
            r1.stop(), r2.stop()

    def test_sync_quarantines_planted_rot_then_repairs_peer(self, net):
        r1 = CacheReplica("q1", net, poll=0.01).start()
        r2 = CacheReplica("q2", net, poll=0.01).start()
        try:
            good = seal_entry(_entries(1)[0])
            digest = good["digest"]
            rotten = dict(good, stats={"rot": 1})
            r1.seed(_entries(1))                   # r1 holds the truth
            r2.store.plant(rotten)                 # r2 holds bit-rot
            counts = r2.sync_with("q1")
            # The rotten copy loses to the valid one; nothing rotten
            # survives on either side.
            assert counts["pulled"] == 1
            assert r2.store.get(digest) == good
            assert r1.store.get(digest) == good
            assert r1.store.root() == r2.store.root()
        finally:
            r1.stop(), r2.stop()

    def test_unreachable_peer_reported(self, net):
        r1 = CacheReplica("u1", net, poll=0.01).start()
        try:
            r1.seed(_entries(2))
            client = ReplicaClient(net, "nobody", "u1#sync",
                                   timeout=0.01, retries=0)
            counts = r1.sync_with("nobody", client=client)
            assert not counts["reachable"]
        finally:
            r1.stop()


# ---------------------------------------------------------------------------
# Tiered lookup/store mechanics
# ---------------------------------------------------------------------------

class TestTieredCache:
    def test_parse_tiers(self):
        assert parse_tiers(None) == ("mem", "disk")
        assert parse_tiers("net, mem") == ("mem", "disk", "net")
        assert parse_tiers("disk") == ("disk",)
        with pytest.raises(ValueError):
            parse_tiers("mem,disk,tape")

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

    def test_net_hit_promotes_to_local_tiers(self, tmp_path, net, replica):
        replica.seed(_entries(1))
        tc = _tiered(tmp_path, net)
        d = _digest(0)
        assert tc.lookup(d)["status"] == "proved"
        assert tc.net_hits == 1
        # Promoted: a fresh instance over the same disk never asks the
        # network again, and this instance serves memory.
        assert tc.lookup(d)["status"] == "proved"
        assert tc.mem_hits == 1
        tc2 = _tiered(tmp_path, net, name="c-again", root="c")
        requests0 = tc2.client.requests
        assert tc2.lookup(d)["status"] == "proved"
        assert tc2.disk_hits == 1 and tc2.client.requests == requests0

    def test_store_writes_through_to_replica(self, tmp_path, net, replica):
        tc = _tiered(tmp_path, net)
        d = _digest("w")
        tc.store(d, "failed", {"k": 1}, 9, "lbl")
        deadline = time.monotonic() + 2.0
        while replica.store.get(d) is None and time.monotonic() < deadline:
            time.sleep(0.005)
        stored = replica.store.get(d)
        assert stored is not None and entry_is_sound(stored, d)

    def test_uncacheable_status_not_stored(self, tmp_path):
        from repro.vc.errors import RESOURCE_OUT
        tc = _tiered(tmp_path)
        tc.store(_digest("r"), RESOURCE_OUT, {}, 0, "l")
        assert tc.stores == 0 and tc.lookup(_digest("r")) is None


class TestCrossTierQuarantine:
    def test_corrupt_net_entry_rejected_and_not_promoted(
            self, tmp_path, net, replica):
        good = _entries(1)[0]
        d = good["digest"]
        rotten = seal_entry(good)
        rotten["stats"] = {"rot": True}           # breaks the checksum
        replica.store.plant(rotten)
        tc = _tiered(tmp_path, net)
        assert tc.lookup(d) is None               # quarantined = a miss
        assert tc.quarantined == 1 and tc.corrupt == 1
        assert tc.misses == 1 and tc.net_hits == 0
        # Never promoted: disk has no file, memory has no entry.
        import os
        assert not os.path.exists(tc.disk._path(d))
        assert d not in tc._mem

    def test_resolved_verdict_overwrites_rot_via_store(
            self, tmp_path, net, replica):
        good = _entries(1)[0]
        d = good["digest"]
        rotten = seal_entry(good)
        rotten["query_bytes"] = 999999            # stale sum
        replica.store.plant(rotten)
        tc = _tiered(tmp_path, net)
        assert tc.lookup(d) is None               # quarantine, miss
        # "Re-solve" and store: the write-through put beats the rotten
        # incumbent (valid beats invalid) — the replica is repaired.
        tc.store(d, good["status"], good["stats"],
                 good["query_bytes"], good["label"])
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            held = replica.store.get(d)
            if held is not None and entry_is_sound(held, d):
                break
            time.sleep(0.005)
        assert entry_is_sound(replica.store.get(d), d)

    def test_rot_also_repaired_by_anti_entropy_round(self, net, replica):
        good = _entries(1)[0]
        d = good["digest"]
        rotten = seal_entry(good)
        rotten["label"] = "tampered"              # stale sum
        replica.store.plant(rotten)
        peer = CacheReplica("peer", net, poll=0.01).start()
        try:
            peer.seed([good])
            counts = replica.sync_with("peer")
            assert counts["pulled"] == 1
            assert entry_is_sound(replica.store.get(d), d)
            assert replica.store.root() == peer.store.root()
        finally:
            peer.stop()


# ---------------------------------------------------------------------------
# Fault envelope: deadlines, retries, breaker, fault points
# ---------------------------------------------------------------------------

class TestFaultEnvelope:
    def test_partitioned_replica_times_out_and_retries(self, tmp_path):
        lossy = Network(drop_rate=1.0)
        CacheReplica("cache0", lossy, poll=0.01).start().stop()  # exists
        tc = _tiered(tmp_path, lossy, net_timeout=0.01)
        assert tc.lookup(_digest("z")) is None
        assert tc.net_timeouts >= 1
        assert tc.net_retries_used >= 1

    def test_breaker_trips_and_stops_constructing_requests(
            self, tmp_path, net, replica):
        replica.crash()
        tc = _tiered(tmp_path, net, net_timeout=0.01,
                     breaker_threshold=2)
        for i in range(4):
            tc.lookup(_digest(i))
        assert tc.breaker_trips >= 1
        assert tc.breaker.state == OPEN
        requests0 = tc.client.requests
        for i in range(4, 10):
            tc.lookup(_digest(i))
        # Steady state after the trip: lookups fall through to local
        # tiers without constructing a single network request.
        assert tc.client.requests == requests0

    def test_stores_queue_while_open_and_flush_on_probe(
            self, tmp_path, net, replica):
        clock = [0.0]
        tc = _tiered(tmp_path, net, net_timeout=0.01, breaker_threshold=1)
        tc.breaker = CircuitBreaker(threshold=1, cooldown=1.0,
                                    clock=lambda: clock[0])
        replica.crash()
        tc.lookup(_digest("warmup"))              # trips the breaker
        assert tc.breaker.state == OPEN
        d = _digest("queued")
        tc.store(d, "proved", {}, 0, "l")
        assert tc.pending_stores == 1             # queued, not lost
        replica.revive()
        clock[0] = 1.5                            # cooldown elapsed
        assert tc.lookup(_digest("probe")) is None  # half-open probe, ok
        assert tc.breaker.state == CLOSED
        assert tc.pending_stores == 0             # flushed on close
        deadline = time.monotonic() + 2.0
        while replica.store.get(d) is None and time.monotonic() < deadline:
            time.sleep(0.005)
        assert replica.store.get(d) is not None

    def test_cache_net_fault_kinds(self, tmp_path, net, replica):
        replica.seed(_entries(3))
        for kind, counter in (("drop", "net_timeouts"),
                              ("timeout", "net_timeouts"),
                              ("corrupt", None)):
            tc = _tiered(tmp_path, net, name=f"f-{kind}", net_timeout=0.01)
            plan = FaultPlan.from_string(f"cache.net:{kind}@1")
            prev = faults.install(plan)
            try:
                entry = tc.lookup(_digest(0))
            finally:
                faults.install(prev)
            # One attempt is sabotaged; the retry ladder still lands the
            # verdict, so the fault costs latency, never an answer.
            assert entry is not None and entry["status"] == "proved"
            assert plan.total_fired == 1
            if counter:
                assert getattr(tc, counter) >= 1
            else:
                assert tc.client.corrupt >= 1

    def test_cache_replica_crash_fault_point(self, tmp_path, net, replica):
        replica.seed(_entries(1))
        tc = _tiered(tmp_path, net, net_timeout=0.01)
        plan = FaultPlan.from_string("cache.replica:crash@1")
        prev = faults.install(plan)
        try:
            assert tc.lookup(_digest(0)) is None  # replica died mid-serve
        finally:
            faults.install(prev)
        assert replica.crashed
        replica.revive()
        tc2 = _tiered(tmp_path, net, name="after-revive")
        assert tc2.lookup(_digest(0)) is not None


# ---------------------------------------------------------------------------
# Graceful degradation: byte-identical verdicts in every net-tier state
# ---------------------------------------------------------------------------

class TestDegradationByteIdentity:
    def _run(self, tmp_path, name, network, fault_plan=None, jobs=1):
        """Cold then warm run over a fresh disk root; both signatures."""
        results = []
        for _phase in ("cold", "warm"):
            tc = _tiered(tmp_path, network, name=name,
                         net_timeout=0.01, breaker_threshold=2)
            cfg = VerifyConfig(jobs=jobs, fault_plan=fault_plan)
            with Session(cfg, cache=tc) as session:
                results.append(_signature(
                    session.verify_module(_mk_module())))
        return results

    def test_all_net_states_verdict_identical(self, tmp_path, net, replica):
        healthy = Network()
        healthy_rep = CacheReplica("cache0", healthy, poll=0.01).start()
        partitioned = Network(drop_rate=1.0)
        baseline = None
        scenarios = [
            ("absent", None, None),
            ("healthy", healthy, None),
            ("partitioned", partitioned, None),
            ("corrupting", net, "seed=3; cache.net:corrupt%1"),
        ]
        try:
            for name, network, plan in scenarios:
                for jobs in (1, 2):
                    cold, warm = self._run(tmp_path, f"{name}-j{jobs}",
                                           network, fault_plan=plan,
                                           jobs=jobs)
                    if baseline is None:
                        baseline = cold
                    assert cold == baseline, \
                        f"{name} jobs={jobs} cold diverged"
                    assert warm == baseline, \
                        f"{name} jobs={jobs} warm diverged"
        finally:
            healthy_rep.stop()


# ---------------------------------------------------------------------------
# Scheduler / Session / config wiring
# ---------------------------------------------------------------------------

class TestWiring:
    def test_env_knobs_parsed(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "pc"))
        monkeypatch.setenv("REPRO_CACHE_TIERS", "mem,disk,net")
        monkeypatch.setenv("REPRO_CACHE_MEM_BUDGET", "1024")
        monkeypatch.setenv("REPRO_CACHE_NET_TIMEOUT", "0.25")
        cfg = VerifyConfig.from_env()
        assert cfg.cache_tiers == "mem,disk,net"
        assert cfg.cache_mem_budget == 1024
        assert cfg.cache_net_timeout == 0.25
        cache = Session().cache
        assert isinstance(cache, TieredProofCache)
        assert cache.mem_budget == 1024
        assert cache.client is None              # inert until attached

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

    def test_scheduler_merges_tier_counters(self, tmp_path, net, replica):
        tc = _tiered(tmp_path, net)
        verify_module(_mk_module(), cache=tc)
        replica.crash()
        tc2 = _tiered(tmp_path / "other", net, name="deg",
                      net_timeout=0.01, breaker_threshold=1)
        r = verify_module(_mk_module(), cache=tc2)
        assert r.ok
        assert r.stats["net_timeouts"] >= 1
        assert r.stats["breaker_trips"] == 1
        replica.revive()

    def test_quarantine_counter_reaches_module_stats(
            self, tmp_path, net, replica):
        # Learn the run's digests via a clean tiered run, tamper every
        # replica copy, then re-run over fresh local tiers: each lookup
        # quarantines, the verdicts re-solve identically, and the
        # write-through repairs the replica.
        tc = _tiered(tmp_path, net)
        r1 = verify_module(_mk_module(), cache=tc)
        deadline = time.monotonic() + 2.0
        while len(replica.store) < tc.stores and time.monotonic() < deadline:
            time.sleep(0.005)
        digests = replica.store.digests()
        assert digests
        for d in digests:
            rotten = dict(replica.store.get(d))
            rotten["stats"] = {"rot": True}       # stale sum
            replica.store.plant(rotten)
        tc2 = _tiered(tmp_path / "fresh", net, name="fresh")
        r2 = verify_module(_mk_module(), cache=tc2)
        assert _signature(r1) == _signature(r2)
        assert r2.stats["quarantined"] == len(digests)
        assert r2.stats["net_hits"] == 0
        for d in digests:
            assert entry_is_sound(replica.store.get(d), d)  # repaired


# ---------------------------------------------------------------------------
# Daemon residency
# ---------------------------------------------------------------------------

class TestDaemonWiring:
    def test_status_reports_tiers_and_seeded_replica(self, tmp_path):
        disk = ProofCache(str(tmp_path / "pc"))
        for e in _entries(3):
            disk.store_entry(e)
        from repro.server.config import ServerConfig
        from repro.server.daemon import VerifyServer
        cfg = VerifyConfig(cache_dir=str(tmp_path / "pc"),
                           cache_tiers="mem,disk,net")
        server = VerifyServer(ServerConfig(workers=1), verify_config=cfg)
        try:
            assert server.replica is not None
            assert len(server.replica.store) == 3    # warmed from disk
            status = server.status()
            cache = status["cache"]
            assert cache["tiers"] == "mem,disk,net"
            assert cache["replica"]["entries"] == 3
            assert cache["replica"]["merkle_root"]
            assert set(cache["tier_counters"]) == {
                "mem_hits", "disk_hits", "net_hits", "net_timeouts",
                "net_retries", "breaker_trips", "quarantined"}
            rc = server._request_cache(cfg)
            assert isinstance(rc, TieredProofCache)
            assert rc.client is not None
            rc2 = server._request_cache(cfg)
            assert (rc2.client.endpoint.name
                    != rc.client.endpoint.name)      # private endpoints
        finally:
            server.executor.shutdown(wait=False)

    def test_no_replica_without_net_tier(self, tmp_path):
        from repro.server.config import ServerConfig
        from repro.server.daemon import VerifyServer
        cfg = VerifyConfig(cache_dir=str(tmp_path / "pc"),
                           cache_tiers="mem,disk")
        server = VerifyServer(ServerConfig(workers=1), verify_config=cfg)
        try:
            assert server.replica is None
            assert server._request_cache(cfg) is None
        finally:
            server.executor.shutdown(wait=False)


# ---------------------------------------------------------------------------
# perf_summary rendering
# ---------------------------------------------------------------------------

def test_perf_summary_renders_tier_counters():
    from repro.diag.profile import perf_summary
    text = perf_summary({"mem_hits": 3, "net_timeouts": 2,
                         "breaker_trips": 1, "quarantined": 4})
    assert "mem_hits" in text and "breaker_trips" in text
    assert "quarantined" in text
