"""Tiered proof cache (memory → disk).

``store`` is the flat on-disk tier (the original proof cache, now
shared infrastructure) and ``tiers`` layers an in-memory LRU tier
over it.
"""

from .store import (CACHE_DIR_ENV, DEFAULT_DIRNAME, ProofCache,
                    make_entry, validate_entry)
from .tiers import TieredProofCache, parse_tiers

__all__ = [
    "CACHE_DIR_ENV", "DEFAULT_DIRNAME", "ProofCache", "TieredProofCache",
    "make_entry", "parse_tiers", "validate_entry",
]
