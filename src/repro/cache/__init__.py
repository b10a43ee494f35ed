"""Tiered, fault-tolerant proof cache (memory → disk → network).

``store`` is the flat on-disk tier (the original proof cache, now
shared infrastructure), ``tiers`` layers memory and network tiers over
it, ``replica`` is the networked side with Merkle anti-entropy
(``merkle``), and ``breaker`` is the per-replica circuit breaker.
"""

from .breaker import CircuitBreaker
from .merkle import MerkleIndex, diff_shards
from .replica import (CacheReplica, ReplicaClient, ReplicaStore,
                      entry_is_sound, seal_entry, unseal_entry)
from .store import (CACHE_DIR_ENV, DEFAULT_DIRNAME, ProofCache,
                    entry_checksum, make_entry, validate_entry)
from .tiers import TieredProofCache, parse_tiers

__all__ = [
    "CACHE_DIR_ENV", "DEFAULT_DIRNAME",
    "CacheReplica", "CircuitBreaker", "MerkleIndex", "ProofCache",
    "ReplicaClient", "ReplicaStore", "TieredProofCache",
    "diff_shards", "entry_checksum", "entry_is_sound", "make_entry",
    "parse_tiers", "seal_entry", "unseal_entry", "validate_entry",
]
