"""The tiered proof cache: memory → disk → networked replicas.

:class:`TieredProofCache` is drop-in compatible with the flat
:class:`~repro.cache.store.ProofCache` the scheduler has always used —
same ``lookup``/``store``/``snapshot`` surface, same ``root`` attribute
(the delta engine keys off it) — but layers the lookup path:

1. **Memory**: an LRU dict under a byte budget.  Free hits for the hot
   working set; promoted into on every lower-tier hit.
2. **Disk**: the existing atomic content-addressed store, unchanged.
3. **Network**: a :class:`~repro.cache.replica.CacheReplica` reached
   through a :class:`~repro.cache.replica.ReplicaClient` — deadline per
   request, retry ladder, and a per-replica circuit breaker so a dead
   replica costs a few timeouts and then *nothing*.

Every tier boundary re-verifies the entry before trusting it: memory
entries are structurally revalidated, disk entries pass the store's
digest/status checks, and network entries must additionally match their
``sum`` content checksum.  Anything that fails is quarantined — counted,
dropped, treated as a miss — and never promoted upward, so a corrupt
replica can cost latency but can never change a verdict.

Degradation is the design center, not an afterthought: a breaker-open
(or absent, or fully partitioned) network tier makes lookups fall
through to local tiers and queues stores for a later flush, which is
*exactly* ``REPRO_CACHE_DIR``-only behavior.  Verdicts are therefore
byte-identical whether the replica set is healthy, flaky, or gone.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional, Tuple

from .breaker import CircuitBreaker
from .replica import (DEFAULT_RETRIES, DEFAULT_TIMEOUT, ReplicaClient,
                      entry_is_sound, seal_entry, unseal_entry)
from .store import (ProofCache, entry_nbytes, make_entry, validate_entry)

DEFAULT_TIERS = "mem,disk"
DEFAULT_MEM_BUDGET = 4 * 1024 * 1024     # bytes of entry JSON in memory
PENDING_LIMIT = 512                      # queued stores while degraded

_KNOWN_TIERS = ("mem", "disk", "net")


def parse_tiers(spec: Optional[str]) -> Tuple[str, ...]:
    """Normalize a ``"mem,disk,net"`` spec; disk is always present."""
    names = []
    for raw in (spec or DEFAULT_TIERS).replace(";", ",").split(","):
        name = raw.strip().lower()
        if not name:
            continue
        if name not in _KNOWN_TIERS:
            raise ValueError(f"unknown cache tier {name!r} "
                             f"(expected one of {_KNOWN_TIERS})")
        if name not in names:
            names.append(name)
    if "disk" not in names:
        names.insert(0, "disk")
    return tuple(n for n in _KNOWN_TIERS if n in names)


class TieredProofCache:
    """ProofCache-compatible tiered lookup/store with fault tolerance."""

    def __init__(self, root: str, tiers: Optional[str] = None,
                 mem_budget: Optional[int] = None,
                 network=None, replica_name: str = "cache0",
                 client_name: str = "cache-client",
                 net_timeout: Optional[float] = None,
                 net_retries: int = DEFAULT_RETRIES,
                 breaker_threshold: int = 3,
                 breaker_cooldown: float = 5.0):
        self.tiers = parse_tiers(tiers)
        self.disk = ProofCache(root)
        self.root = self.disk.root
        budget = DEFAULT_MEM_BUDGET if mem_budget is None else int(mem_budget)
        self.mem_budget = budget if "mem" in self.tiers else 0
        self._mem: OrderedDict = OrderedDict()
        self._mem_bytes = 0
        self.net_timeout = (DEFAULT_TIMEOUT if net_timeout is None
                            else float(net_timeout))
        self.net_retries = net_retries
        self.breaker = CircuitBreaker(threshold=breaker_threshold,
                                      cooldown=breaker_cooldown)
        self.client: Optional[ReplicaClient] = None
        self._pending: list = []
        if "net" in self.tiers and network is not None:
            self.attach_network(network, replica_name, client_name)
        # Aggregate counters (the surface the scheduler diffs) ...
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        # ... and the per-tier breakdown behind them.
        self.mem_hits = 0
        self.disk_hits = 0
        self.net_hits = 0
        self.net_timeouts = 0
        self.net_retries_used = 0
        self.quarantined = 0

    def attach_network(self, network, replica_name: str,
                       client_name: str) -> None:
        """Wire (or rewire) the network tier onto a live fabric."""
        if "net" not in self.tiers:
            self.tiers = parse_tiers(",".join(self.tiers) + ",net")
        self.client = ReplicaClient(network, replica_name, client_name,
                                    timeout=self.net_timeout,
                                    retries=self.net_retries)

    # ------------------------------------------------------------ mem tier

    def _mem_get(self, digest: str) -> Optional[dict]:
        hit = self._mem.get(digest)
        if hit is None:
            return None
        self._mem.move_to_end(digest)
        return hit[0]

    def _mem_drop(self, digest: str) -> None:
        hit = self._mem.pop(digest, None)
        if hit is not None:
            self._mem_bytes -= hit[1]

    def _mem_put(self, digest: str, entry: dict) -> None:
        if self.mem_budget <= 0:
            return
        self._mem_drop(digest)
        nbytes = entry_nbytes(entry)
        if nbytes > self.mem_budget:
            return
        self._mem[digest] = (entry, nbytes)
        self._mem_bytes += nbytes
        while self._mem_bytes > self.mem_budget and self._mem:
            _, (_, evicted) = self._mem.popitem(last=False)
            self._mem_bytes -= evicted

    # ------------------------------------------------------------ net tier

    def _net_call(self, op: str, **fields) -> Optional[dict]:
        """One breaker-guarded client call; None when degraded/failed."""
        client = self.client
        if client is None or not self.breaker.allow():
            return None
        timeouts0 = client.timeouts
        retried0 = client.retried
        reply = client.call(op, **fields)
        self.net_timeouts += client.timeouts - timeouts0
        self.net_retries_used += client.retried - retried0
        if reply is None:
            self.breaker.record_failure()
            return None
        if self.breaker.record_success():
            self._flush_pending()
        return reply

    def _net_lookup(self, digest: str) -> Optional[dict]:
        reply = self._net_call("get", digest=digest)
        if reply is None:
            return None
        entry = reply.get("entry")
        if entry is None:
            return None                     # clean miss on the replica
        if not isinstance(entry, dict) or not entry_is_sound(entry, digest):
            # Tampered or torn payload: quarantined, treated as a miss,
            # never promoted into the local tiers.
            self.quarantined += 1
            self.corrupt += 1
            return None
        return unseal_entry(entry)

    def _net_store(self, sealed: dict) -> None:
        if self.client is None:
            return
        if not self.breaker.allow():
            self._queue_pending(sealed)
            return
        client = self.client
        timeouts0 = client.timeouts
        retried0 = client.retried
        reply = client.call("put", entry=sealed)
        self.net_timeouts += client.timeouts - timeouts0
        self.net_retries_used += client.retried - retried0
        if reply is None:
            self.breaker.record_failure()
            self._queue_pending(sealed)
            return
        if self.breaker.record_success():
            self._flush_pending()

    def _queue_pending(self, sealed: dict) -> None:
        """Remember a store the replica missed; bounded, oldest dropped
        (anti-entropy repairs whatever the queue sheds)."""
        self._pending.append(sealed)
        if len(self._pending) > PENDING_LIMIT:
            del self._pending[:len(self._pending) - PENDING_LIMIT]

    def _flush_pending(self) -> int:
        """Replay queued stores after the breaker closes; count flushed."""
        flushed = 0
        while self._pending:
            sealed = self._pending[0]
            if self.client is None or not self.breaker.allow():
                break
            reply = self.client.call("put", entry=sealed)
            if reply is None:
                self.breaker.record_failure()
                break
            self.breaker.record_success()
            self._pending.pop(0)
            flushed += 1
        return flushed

    # ------------------------------------------------------- cache surface

    def lookup(self, digest: str,
               admit: Optional[Callable[[dict], bool]] = None
               ) -> Optional[dict]:
        """First validated hit walking mem → disk → net; else a miss.

        ``admit`` is the caller's replay policy (see
        :meth:`ProofCache.lookup`): a tier whose entry it rejects counts
        no hit, promotes nothing, and the walk falls through.
        """
        entry = self._mem_get(digest)
        if entry is not None:
            if not validate_entry(entry, digest):
                # A memory entry that stopped validating (in-process
                # tampering) is quarantined and the walk falls through.
                self._mem_drop(digest)
                self.quarantined += 1
                self.corrupt += 1
            elif admit is None or admit(entry):
                self.mem_hits += 1
                self.hits += 1
                return entry
        corrupt0 = self.disk.corrupt
        entry = self.disk.lookup(digest, admit)
        disk_corrupt = self.disk.corrupt - corrupt0
        self.corrupt += disk_corrupt
        self.quarantined += disk_corrupt
        if entry is not None:
            self.disk_hits += 1
            self.hits += 1
            self._mem_put(digest, entry)
            return entry
        entry = self._net_lookup(digest)
        if entry is not None and (admit is None or admit(entry)):
            self.net_hits += 1
            self.hits += 1
            self.disk.store_entry(entry)     # promote for next time
            self._mem_put(digest, entry)
            return entry
        self.misses += 1
        return None

    def store(self, digest: str, status: str, stats: Optional[dict] = None,
              query_bytes: int = 0, label: str = "",
              diag: Optional[dict] = None,
              kind: Optional[str] = None) -> None:
        """Write through every tier (network best-effort, queued when
        degraded)."""
        entry = make_entry(digest, status, stats, query_bytes, label,
                           diag, kind)
        if entry is None:
            return
        if self.disk.store_entry(entry):
            self.stores += 1
        self._mem_put(digest, entry)
        if self.client is not None:
            self._net_store(seal_entry(entry))

    def flush(self) -> int:
        """Opportunistically replay queued network stores."""
        return self._flush_pending()

    def close(self) -> None:
        self._flush_pending()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def breaker_trips(self) -> int:
        return self.breaker.trips

    @property
    def pending_stores(self) -> int:
        return len(self._pending)

    def tier_snapshot(self) -> dict:
        """Per-tier counters, keyed exactly like the ``Stats`` attrs the
        scheduler merges them into."""
        return {"mem_hits": self.mem_hits,
                "disk_hits": self.disk_hits,
                "net_hits": self.net_hits,
                "net_timeouts": self.net_timeouts,
                "net_retries": self.net_retries_used,
                "breaker_trips": self.breaker.trips,
                "quarantined": self.quarantined}

    def snapshot(self) -> dict:
        snap = {"cache_hits": self.hits, "cache_misses": self.misses,
                "cache_stores": self.stores, "cache_corrupt": self.corrupt}
        snap.update(self.tier_snapshot())
        return snap

    def __repr__(self) -> str:
        tiers = ",".join(self.tiers)
        return (f"<TieredProofCache [{tiers}] {self.root}: "
                f"{self.hits} hits ({self.mem_hits}m/{self.disk_hits}d/"
                f"{self.net_hits}n), {self.misses} misses, "
                f"breaker={self.breaker.state}>")
