"""Obligation provenance (``Obligation.answered_by``) and what the proof
cache keeps.

Every obligation of a finished ``ModuleResult`` names the one layer
whose verdict the run adopted.  The proof cache stores solver verdicts
only: static-tier claims are made again on every run, and a diagnosis
upgrades a cache entry with the verdict's own stats, never with what
happened around it in one run (a worker crash, a race, a ladder).

Configs are explicit ``VerifyConfig(...)`` values so the environment
(``REPRO_CACHE_DIR`` on the cached CI leg) cannot change what a run
answers from.
"""

import glob
import json
import os

import pytest

from repro.api import Session, VerifyConfig
from repro.cache.store import ProofCache
from repro.vc.errors import PROVED

DELEGATION = "repro.systems.ironkv.delegation_map.build_default_module"
STUBBORN = "repro.profiles.corpus.build_stubborn_pair_module"
DOUBLY = "repro.millibench.lists.build_doubly_linked_module"
BIT_TRICKS = "repro.systems.mimalloc.verified.build_bit_tricks_module"


def _verify(dotted, **config):
    import importlib
    modpath, _, fn = dotted.rpartition(".")
    module = getattr(importlib.import_module(modpath), fn)()
    return Session(VerifyConfig(jobs=1, **config)).verify_module(module)


def _answers(result) -> set:
    return {o.answered_by for f in result.functions for o in f.obligations}


def _cold(tmp_path):
    return _verify(DELEGATION, triage="on")


def _cache_warm(tmp_path):
    cache = str(tmp_path / "pc")
    _verify(DELEGATION, triage="on", cache_dir=cache)
    return _verify(DELEGATION, triage="on", cache_dir=cache)


def _delta_warm(tmp_path):
    cache = str(tmp_path / "pc")
    _verify(DELEGATION, triage="on", cache_dir=cache, delta=True)
    return _verify(DELEGATION, triage="on", cache_dir=cache, delta=True)


def _race(tmp_path):
    return _verify(STUBBORN, portfolio=2)


def _ladder(tmp_path):
    return _verify(DOUBLY, max_steps=20, retries=2)


def _idiom(tmp_path):
    return _verify(BIT_TRICKS)


# scenario -> (run, the exact set of answered_by values it reports)
SCENARIOS = {
    "cold": (_cold, {"static", "solver"}),
    "cache-warm": (_cache_warm, {"static", "cache"}),
    "delta-warm": (_delta_warm, {"delta"}),
    "race": (_race, {"solver", "race"}),
    "ladder": (_ladder, {"static", "solver", "ladder"}),
    "idiom": (_idiom, {"idiom"}),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_answered_by_names_the_adopting_layer(name, tmp_path):
    run, expected = SCENARIOS[name]
    result = run(tmp_path)
    assert result.ok
    assert None not in _answers(result)
    assert _answers(result) == expected
    # The JSON report carries the same provenance, and no v2 flag.
    payload = result.to_json()
    assert payload["schema_version"] == 3
    for fn in payload["functions"]:
        for ob in fn["obligations"]:
            assert ob["answered_by"] in expected and "static" not in ob


def test_cache_keeps_solver_verdicts_only(tmp_path):
    cache_dir = str(tmp_path / "pc")
    cold = _verify(DELEGATION, triage="on", cache_dir=cache_dir)
    assert cold.stats["static_proved"] >= 1
    files = glob.glob(os.path.join(cache_dir, "*", "*.json"))
    raw = [json.load(open(path, encoding="utf-8")) for path in files]
    assert raw and not any("kind" in entry for entry in raw)
    entries = list(ProofCache(cache_dir).iter_entries())
    assert len(entries) == len(raw) == sum(
        o.answered_by == "solver"
        for f in cold.functions for o in f.obligations)


def test_stale_static_entry_is_a_plain_miss(tmp_path):
    """An older build stored static verdicts as ``static-proved``
    entries: they answer no lookup, count as no corruption and stay on
    disk."""
    cache = ProofCache(str(tmp_path / "pc"))
    digest = "5e" * 32
    cache.write({"digest": digest, "kind": "static-proved",
                 "status": PROVED, "query_bytes": 0, "stats": {},
                 "label": "x"})
    assert cache.lookup(digest) is None
    assert (cache.hits, cache.misses, cache.corrupt) == (0, 1, 0)
    assert os.path.exists(cache._path(digest))
    assert list(cache.iter_entries()) == []


def test_diagnosis_upgrade_stores_no_run_local_stats(tmp_path):
    """A worker crash belongs to the run it happened in: a fault-free
    warm run replays the diagnosed failure without it."""
    from tests.test_scheduler_cache import _mk_failing_module
    cfg = VerifyConfig(jobs=2, diagnostics=True, triage="on",
                       cache_dir=str(tmp_path / "pc"))
    crashed = Session(cfg.replace(fault_plan="pool.worker:crash@1")
                      ).verify_module(_mk_failing_module())
    assert crashed.stats["pool_failures"] == 1
    hit = [o for _, o in crashed.failures() if o.stats.get("pool_failure")]
    assert hit and any("worker pool failure" in note
                       for note in hit[0].diag.notes)
    warm = Session(cfg).verify_module(_mk_failing_module())
    assert warm.stats.get("pool_failures", 0) == 0
    assert warm.stats.get("cache_misses", 0) == 0
    for _, ob in warm.failures():
        assert ob.answered_by == "cache"
        assert "pool_failure" not in ob.stats
        assert not any("worker pool failure" in note
                       for note in ob.diag.notes)
    assert ([o.diag.to_dict() for _, o in warm.failures()]
            == [o.diag.to_dict() for _, o in Session(
                cfg.replace(cache_dir=None)).verify_module(
                    _mk_failing_module()).failures()])
