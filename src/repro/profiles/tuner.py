"""The learning auto-tuner: remember which profile won each race.

A portfolio race is pure discovery — it spends 2–3 solver runs finding
the profile that discharges a stubborn obligation.  The tuner makes
that spend a one-time cost: after a race, the winning profile name is
recorded under a *profile-independent* fingerprint of the obligation
(the canonical query text under the session's base configuration, with
an empty knob key, namespaced ``profile-tuner:<strategy>``), and on
later runs the scheduler redirects the obligation straight to the
recorded winner *before* computing its cache digest.  The redirected
digest is exactly the digest the winning race attempt stored its
verdict under, so a tuner-warm + cache-warm run replays the whole race
outcome with zero solver constructions and zero portfolio fan-out.

Records are *tuner entries* in the proof-cache directory: the tuner is
a typed view over :class:`~repro.cache.store.ProofCache`, which supplies
the sharded ``root/<fp[:2]>/<fp>.json`` path, the atomic write and the
eviction of malformed entries.  The namespaced fingerprint keeps tuner
entries apart from verdicts in the same directory.  ``Session.tuner``
opens the proof-cache directory itself, but any directory works —
tuner warmth and proof-cache warmth stay separable for benchmarking.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..cache.store import TUNER, ProofCache
from ..smt.fingerprint import obligation_digest
from .registry import PROFILES

__all__ = ["ProfileTuner", "tuner_fingerprint"]


def tuner_fingerprint(assertions: Sequence, strategy: str) -> str:
    """Profile-independent content address of one obligation.

    Uses the same canonical SMT-LIB2 rendering as the proof cache but
    an *empty* solver-knob key — the whole point is that every profile
    maps the obligation to the same tuner slot — and a namespaced
    strategy so tuner fingerprints can never collide with proof-cache
    digests of the same text.
    """
    return obligation_digest(assertions, {}, f"profile-tuner:{strategy}")


def _valid_tuner(entry: dict, digest: str) -> bool:
    # The registry is the source of truth: a record naming a profile
    # this build no longer ships is malformed.
    return (entry.get("profile") in PROFILES
            and isinstance(entry.get("wins"), int))


class ProfileTuner:
    """Per-fingerprint winner records plus hit/miss/record counters."""

    def __init__(self, root: str):
        self._store = ProofCache(root)
        self.root = self._store.root
        self.hits = 0
        self.misses = 0
        self.records = 0

    @property
    def evictions(self) -> int:
        return self._store.corrupt

    def _path(self, fingerprint: str) -> str:
        return self._store._path(fingerprint)

    def lookup(self, fingerprint: str) -> Optional[str]:
        """The recorded winning profile name, or None (a malformed or
        retired-profile record is evicted)."""
        entry = self._store.read(fingerprint, TUNER, _valid_tuner)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry["profile"]

    def record_win(self, fingerprint: str, profile: str,
                   status: str = "", wins: int = 1) -> None:
        """Persist (atomically, best-effort) that ``profile`` won the
        race for ``fingerprint``; an existing record for the same
        winner accumulates its win count."""
        prior = self._store.read(fingerprint, TUNER, _valid_tuner)
        total = max(1, int(wins))
        if prior is not None and prior["profile"] == profile:
            total += prior["wins"]
        entry = {"digest": fingerprint, "kind": TUNER, "profile": profile,
                 "status": status, "wins": total}
        if self._store.write(entry):
            self.records += 1

    # ------------------------------------------------------------ reporting

    def stats(self) -> dict:
        """Counters plus per-profile win totals (JSON-able; diagnostics
        and the server's ``profiles`` verb — not a hot path)."""
        by_profile: dict[str, int] = {}
        count = 0
        for entry in self._store.iter_entries(TUNER, _valid_tuner):
            count += 1
            profile = entry["profile"]
            by_profile[profile] = by_profile.get(profile, 0) + entry["wins"]
        return {"root": self.root, "tuner_hits": self.hits,
                "tuner_misses": self.misses, "records": self.records,
                "evictions": self.evictions,
                "entries": count,
                "wins_by_profile": by_profile}

    def __repr__(self) -> str:
        return (f"<ProfileTuner {self.root}: {self.hits} hits, "
                f"{self.misses} misses, {self.records} records>")
