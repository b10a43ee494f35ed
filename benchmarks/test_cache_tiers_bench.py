"""Tiered proof cache bench: warm-hit latency per tier.

Emits ``BENCH_cache_tiers.json`` (repo root) with one row: average
warm-hit lookup latency for the in-memory LRU and for the on-disk
store.

Asserted acceptance (not just reported): a memory hit is cheaper than
a disk hit.
"""

import hashlib
import time

from conftest import FULL, banner, record_cache_tier, table
from repro.cache import TieredProofCache
from repro.vc.errors import PROVED

N = 200 if FULL else 50          # distinct cached entries
LOOKUPS = 2000 if FULL else 1000  # timed lookups (cycling the entries)
REPEAT = 5                        # best-of repeats per measurement


def _digest(i: int) -> str:
    return hashlib.sha256(b"tier-bench-%d" % i).hexdigest()


def _store_all(tc, n=N) -> None:
    for i in range(n):
        tc.store(_digest(i), PROVED, {"instantiations": i}, 64,
                 label=f"bench{i}")


def _avg_lookup_us(tc, n=N, lookups=LOOKUPS, repeat=REPEAT) -> float:
    """Best-of average per-lookup latency in microseconds."""
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        for j in range(lookups):
            assert tc.lookup(_digest(j % n)) is not None
        per = (time.perf_counter() - t0) / lookups * 1e6
        best = per if best is None else min(best, per)
    return best


def test_warm_hit_latency_per_tier(tmp_path):
    # Memory tier: everything resident in the LRU.
    tmem = TieredProofCache(str(tmp_path / "local"), tiers="mem,disk")
    _store_all(tmem)
    mem_us = _avg_lookup_us(tmem)
    assert tmem.mem_hits >= LOOKUPS

    # Disk tier: same files, no memory tier in front.
    tdisk = TieredProofCache(str(tmp_path / "local"), tiers="disk")
    disk_us = _avg_lookup_us(tdisk)
    assert tdisk.disk_hits >= LOOKUPS

    banner("Tiered cache: warm-hit latency per tier")
    table(["tier", "avg lookup (us)"],
          [["mem", f"{mem_us:.1f}"],
           ["disk", f"{disk_us:.1f}"]])
    record_cache_tier("warm_hit_latency", {
        "mem_us": round(mem_us, 2),
        "disk_us": round(disk_us, 2),
    })
    assert mem_us < disk_us
