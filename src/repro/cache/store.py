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

This module also owns the *entry shape* every other tier speaks:
:func:`make_entry` builds it, :func:`validate_entry` is the structural
check applied at every tier boundary, and :func:`entry_checksum` is the
content digest network payloads carry (and Merkle leaves commit to) so
a tampered or torn replica payload is detected before it is trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Iterator, Optional

from ..api import CACHE_DIR_ENV  # noqa: F401  (re-exported for callers)
from ..resilience import faults as _faults
from ..resilience.faults import InjectedCorruption, InjectedIOError
from ..vc.errors import FAILED, PROVED, TIMEOUT

DEFAULT_DIRNAME = ".pv_cache"

# RESOURCE_OUT (and anything else transient) is deliberately absent: a
# budget-exhausted verdict must never be replayed from the cache.
_VALID_STATUS = (PROVED, FAILED, TIMEOUT)


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
    an entry: right shape, right identity, replayable status."""
    return (isinstance(entry, dict)
            and entry.get("digest") == digest
            and entry.get("status") in _VALID_STATUS
            and isinstance(entry.get("query_bytes", 0), int)
            and isinstance(entry.get("stats", {}), dict)
            and isinstance(entry.get("diag") or {}, dict))


def entry_checksum(entry: dict) -> str:
    """Content digest of an entry (canonical JSON, checksum key excluded).

    This is what network payloads carry and what Merkle leaves commit
    to, so two replicas agree on a shard hash iff they hold
    byte-equivalent entries — and a tampered payload never matches.
    """
    body = {k: v for k, v in entry.items() if k != "sum"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def entry_nbytes(entry: dict) -> int:
    """Approximate in-memory/wire size of an entry (its JSON length)."""
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

    def lookup(self, digest: str) -> Optional[dict]:
        """Return the stored entry for ``digest``, or None on miss.

        A malformed entry (truncated write, wrong digest, bogus status)
        counts as a miss: it is deleted so the fresh verdict can be
        rewritten cleanly.
        """
        path = self._path(digest)
        try:
            spec = _faults.maybe_fault("cache.lookup")
            if spec is not None:
                if spec.kind == "io":
                    raise InjectedIOError("cache.lookup")
                raise InjectedCorruption("cache.lookup")
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
            if not validate_entry(entry, digest):
                raise ValueError("malformed cache entry")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, OSError, UnicodeDecodeError):
            self.corrupt += 1
            self.misses += 1
            try:
                os.remove(path)
            except OSError:
                pass
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
        """Write one already-built entry atomically; True on success."""
        path = self._path(entry["digest"])
        try:
            spec = _faults.maybe_fault("cache.store")
            if spec is not None:
                raise InjectedIOError("cache.store")
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
        self.stores += 1
        return True

    def iter_entries(self) -> Iterator[dict]:
        """Yield every *valid* entry under the root (invalid files are
        skipped, not deleted — this is a read-only scan used to seed
        replicas and Merkle indexes, not a lookup path)."""
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
                if validate_entry(entry, digest):
                    yield entry

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        return {"cache_hits": self.hits, "cache_misses": self.misses,
                "cache_stores": self.stores, "cache_corrupt": self.corrupt}

    def __repr__(self) -> str:
        return (f"<ProofCache {self.root}: {self.hits} hits, "
                f"{self.misses} misses>")
