"""The on-disk tier: a content-addressed proof-cache directory.

Entries are keyed by the sha256 digest computed in
:func:`repro.smt.fingerprint.obligation_digest` — the canonical SMT-LIB2
text of the full query (context axioms + path assumptions + negated
goal), the :class:`~repro.smt.solver.SolverConfig` knobs, and the
discharge strategy.  Any change to a postcondition, a reachable spec
function, or a solver knob changes the digest, so invalidation is
automatic: the stale entry is simply never addressed again.

Writes are atomic (temp file + ``os.replace``) so parallel workers can
share one cache directory without torn entries; corrupt or truncated
entries are detected at lookup, dropped, and rewritten after re-solving.

The directory is the one store for every replay channel.  Each entry
says which kind it is:

* **verdict** entries (no ``kind``, or ``static-proved`` for absint
  triage verdicts) answer :meth:`ProofCache.lookup`;
* **function** entries are the delta engine's per-function records
  (:class:`repro.vc.delta.DeltaCache`).

The function view shares the sharded path, the atomic write and the
eviction of malformed entries (:meth:`ProofCache.read` /
:meth:`ProofCache.write`), but never the verdict counters, fault points
or tiers.  Verdict and function digests live in disjoint namespaces,
and a read of one kind treats a well-formed entry of any other kind
(including kinds this build no longer writes) as a plain miss.

This module also owns the *verdict entry shape* both tiers share:
:func:`make_entry` builds it and :func:`validate_entry` is the
structural check applied at every tier boundary.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Callable, Iterator, Optional

from ..api import CACHE_DIR_ENV  # noqa: F401  (re-exported for callers)
from ..resilience import faults as _faults
from ..vc.errors import FAILED, PROVED, STATIC_PROVED, TIMEOUT

DEFAULT_DIRNAME = ".pv_cache"

# RESOURCE_OUT (and anything else transient) is deliberately absent: a
# budget-exhausted verdict must never be replayed from the cache.
_VALID_STATUS = (PROVED, FAILED, TIMEOUT)

#: Entry kinds (see the module docstring).
VERDICT = "verdict"
FUNCTION = "function"
# The ``kind`` values a verdict entry may carry.
_VERDICT_KINDS = (None, STATIC_PROVED)


def _entry_kind(entry: dict) -> str:
    """The kind of a stored entry: :data:`VERDICT` for an unkinded or
    static-proved verdict, else the entry's own ``kind``."""
    kind = entry.get("kind")
    return VERDICT if kind in _VERDICT_KINDS else kind


def make_entry(digest: str, status: str, stats: Optional[dict] = None,
               query_bytes: int = 0, label: str = "",
               diag: Optional[dict] = None,
               kind: Optional[str] = None) -> Optional[dict]:
    """The canonical entry dict, or None for an uncacheable status."""
    if status not in _VALID_STATUS:
        return None
    entry = {"digest": digest, "status": status,
             "query_bytes": int(query_bytes),
             "stats": stats or {}, "label": label}
    if diag is not None:
        entry["diag"] = diag
    if kind is not None:
        entry["kind"] = kind
    return entry


def validate_entry(entry, digest: str) -> bool:
    """The structural check every tier boundary applies before trusting
    an entry: a verdict kind, right shape, right identity, replayable
    status."""
    return (isinstance(entry, dict)
            and entry.get("digest") == digest
            and entry.get("kind") in _VERDICT_KINDS
            and entry.get("status") in _VALID_STATUS
            and isinstance(entry.get("query_bytes", 0), int)
            and isinstance(entry.get("stats", {}), dict)
            and isinstance(entry.get("diag") or {}, dict))


def entry_nbytes(entry: dict) -> int:
    """Approximate in-memory size of an entry (its JSON length)."""
    return len(json.dumps(entry, separators=(",", ":")))


class ProofCache:
    """One cache directory plus hit/miss/store/corruption counters."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, digest[:2], f"{digest}.json")

    def read(self, digest: str, kind: str = VERDICT,
             valid: Callable[[dict, str], bool] = validate_entry
             ) -> Optional[dict]:
        """The ``kind`` entry stored under ``digest``, or None.

        A missing file, or a well-formed entry of another kind, is a
        plain miss that stays on disk.  A malformed entry (truncated
        write, wrong digest, one that fails ``valid(entry, digest)``) is
        evicted and counted in ``corrupt``, so the next write replaces it
        cleanly.  No hit or miss counter moves: those belong to the
        caller.
        """
        try:
            with open(self._path(digest), "r", encoding="utf-8") as fh:
                entry = json.load(fh)
            if not isinstance(entry, dict) or entry.get("digest") != digest:
                raise ValueError("malformed cache entry")
            if _entry_kind(entry) != kind:
                return None
            if not valid(entry, digest):
                raise ValueError(f"malformed {kind} entry")
        except FileNotFoundError:
            return None
        except (ValueError, OSError, UnicodeDecodeError):
            self._evict(digest)
            return None
        return entry

    def _evict(self, digest: str) -> None:
        self.corrupt += 1
        try:
            os.remove(self._path(digest))
        except OSError:
            pass

    def lookup(self, digest: str,
               admit: Optional[Callable[[dict], bool]] = None
               ) -> Optional[dict]:
        """Return the stored verdict for ``digest``, or None on miss.

        ``admit`` is the caller's replay policy: an entry it rejects
        counts as a miss and stays on disk for runs that admit it.  A
        malformed entry counts as a miss and is evicted (:meth:`read`).
        """
        if _faults.maybe_fault("cache.lookup") is not None:
            self._evict(digest)         # an injected fault reads as torn
            entry = None
        else:
            entry = self.read(digest)
        if entry is None or (admit is not None and not admit(entry)):
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def store(self, digest: str, status: str, stats: Optional[dict] = None,
              query_bytes: int = 0, label: str = "",
              diag: Optional[dict] = None,
              kind: Optional[str] = None) -> None:
        """Persist a verdict (atomic; best-effort on filesystem errors).

        ``diag`` is the serialized diagnostic payload for non-PROVED
        verdicts, so cache-warm failures replay the same counterexample
        /split/profile report without re-solving.  ``kind`` marks
        non-solver provenance (``STATIC_PROVED`` for verdicts from the
        abstract-interpretation triage tier); the scheduler gates replay
        of kinded entries on the tier being enabled.
        """
        entry = make_entry(digest, status, stats, query_bytes, label,
                           diag, kind)
        if entry is None:
            return
        self.store_entry(entry)

    def store_entry(self, entry: dict) -> bool:
        """Write one already-built verdict entry; True on success."""
        if _faults.maybe_fault("cache.store") is not None:
            return False
        if not self.write(entry):
            return False
        self.stores += 1
        return True

    def write(self, entry: dict) -> bool:
        """Atomically write an entry of any kind under its digest
        (temp file + ``os.replace``); best-effort, True on success."""
        path = self._path(entry["digest"])
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(entry, fh)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        return True

    def iter_entries(self, kind: str = VERDICT,
                     valid: Callable[[dict, str], bool] = validate_entry
                     ) -> Iterator[dict]:
        """Yield every valid ``kind`` entry under the root (invalid files
        are skipped, not deleted — this is a read-only scan, not a
        lookup path)."""
        if not os.path.isdir(self.root):
            return
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if not name.endswith(".json"):
                    continue
                digest = name[:-len(".json")]
                try:
                    with open(os.path.join(shard_dir, name), "r",
                              encoding="utf-8") as fh:
                        entry = json.load(fh)
                except (ValueError, OSError, UnicodeDecodeError):
                    continue
                if (isinstance(entry, dict) and _entry_kind(entry) == kind
                        and valid(entry, digest)):
                    yield entry

    def snapshot(self) -> dict:
        return {"cache_hits": self.hits, "cache_misses": self.misses,
                "cache_stores": self.stores, "cache_corrupt": self.corrupt}

    def __repr__(self) -> str:
        return (f"<ProofCache {self.root}: {self.hits} hits, "
                f"{self.misses} misses>")
