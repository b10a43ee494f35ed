"""The tiered proof cache: memory → disk.

:class:`TieredProofCache` is drop-in compatible with the flat
:class:`~repro.cache.store.ProofCache` the scheduler has always used —
same ``lookup``/``store``/``snapshot`` surface, same ``root`` attribute
(the delta engine keys off it) — but puts an LRU dict under a byte
budget in front of the disk store.  Memory holds the hot working set
and is promoted into on every disk hit; stores write through both.

Every tier boundary re-verifies the entry before trusting it: memory
entries are structurally revalidated and disk entries pass the store's
digest/status checks.  Anything that fails is quarantined — counted,
dropped, treated as a miss — and the walk falls through, so a tampered
entry can cost a re-solve but can never change a verdict.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional, Tuple

from .store import (ProofCache, entry_nbytes, make_entry, validate_entry)

DEFAULT_TIERS = "mem,disk"
DEFAULT_MEM_BUDGET = 4 * 1024 * 1024     # bytes of entry JSON in memory

_KNOWN_TIERS = ("mem", "disk")


def parse_tiers(spec: Optional[str]) -> Tuple[str, ...]:
    """Normalize a ``"mem,disk"`` spec; disk is always present."""
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
    """ProofCache-compatible memory → disk lookup/store."""

    def __init__(self, root: str, tiers: Optional[str] = None,
                 mem_budget: Optional[int] = None):
        self.tiers = parse_tiers(tiers)
        self.disk = ProofCache(root)
        self.root = self.disk.root
        budget = DEFAULT_MEM_BUDGET if mem_budget is None else int(mem_budget)
        self.mem_budget = budget if "mem" in self.tiers else 0
        self._mem: OrderedDict = OrderedDict()
        self._mem_bytes = 0
        # Aggregate counters (the surface the scheduler diffs) ...
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        # ... and the per-tier breakdown behind them.
        self.mem_hits = 0
        self.disk_hits = 0
        self.quarantined = 0

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

    # ------------------------------------------------------- cache surface

    def lookup(self, digest: str,
               admit: Optional[Callable[[dict], bool]] = None
               ) -> Optional[dict]:
        """First validated hit walking mem → disk; else a miss.

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
        self.misses += 1
        return None

    def store(self, digest: str, status: str, stats: Optional[dict] = None,
              query_bytes: int = 0, label: str = "",
              diag: Optional[dict] = None,
              kind: Optional[str] = None) -> None:
        """Write through both tiers."""
        entry = make_entry(digest, status, stats, query_bytes, label,
                           diag, kind)
        if entry is None:
            return
        if self.disk.store_entry(entry):
            self.stores += 1
        self._mem_put(digest, entry)

    def tier_snapshot(self) -> dict:
        """Per-tier counters, keyed exactly like the ``Stats`` attrs the
        scheduler merges them into."""
        return {"mem_hits": self.mem_hits,
                "disk_hits": self.disk_hits,
                "quarantined": self.quarantined}

    def snapshot(self) -> dict:
        snap = {"cache_hits": self.hits, "cache_misses": self.misses,
                "cache_stores": self.stores, "cache_corrupt": self.corrupt}
        snap.update(self.tier_snapshot())
        return snap

    def __repr__(self) -> str:
        tiers = ",".join(self.tiers)
        return (f"<TieredProofCache [{tiers}] {self.root}: "
                f"{self.hits} hits ({self.mem_hits}m/{self.disk_hits}d), "
                f"{self.misses} misses>")
