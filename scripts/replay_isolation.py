#!/usr/bin/env python3
"""Replay isolation gate: a layer's verdicts never replay into a run
without that layer.

Each escalation or skipping layer stores what it proves in the shared
cache directory (proof-cache verdicts and delta function entries).  A
run that does not use the layer must not see those proofs: its report
must match what it reports on a cold start.  For each scenario the
script verifies one module three times, all with delta re-verification
on so both replay channels are in play:

1. a cold run in the target config (no cache);
2. a run in the other config, which turns the layer on, over a fresh
   cache directory;
3. the target config again over that directory.

The third run's per-obligation statuses and module query bytes must
equal the cold run's, and no obligation of it may be answered by the
layer its config lacks (``Obligation.answered_by``).  The second run
must also exercise its layer (a ladder rescue, a race win, a static
proof), or the scenario tested nothing.  Exits 1 on any failure.

Run:  PYTHONPATH=src python scripts/replay_isolation.py
"""

import importlib
import sys
import tempfile

from repro.api import Session, VerifyConfig

# name -> (builder, target config, other config, stat the other config
# must raise above zero, the answered_by value of the layer).
SCENARIOS = {
    "ladder": ("repro.millibench.lists.build_doubly_linked_module",
               {"max_steps": 20, "triage": "off", "retries": 0},
               {"max_steps": 20, "triage": "off", "retries": 2},
               "retry_recoveries", "ladder"),
    "race": ("repro.profiles.corpus.build_stubborn_pair_module",
             {"portfolio": 0}, {"portfolio": 2}, "portfolio_wins", "race"),
    "triage": ("repro.systems.ironkv.delegation_map.build_default_module",
               {"triage": "off"}, {"triage": "on"}, "static_proved",
               "static"),
}


def _verify(dotted: str, cache_dir=None, **config):
    modpath, _, fn = dotted.rpartition(".")
    module = getattr(importlib.import_module(modpath), fn)()
    cfg = VerifyConfig(jobs=1, cache_dir=cache_dir,
                       delta=cache_dir is not None, **config)
    return Session(cfg).verify_module(module)


def _statuses(result) -> list:
    return [(f.name, o.label, o.status)
            for f in result.functions for o in f.obligations]


def check(name: str) -> bool:
    dotted, target, other, stat, layer_answer = SCENARIOS[name]
    cold = _verify(dotted, **target)
    with tempfile.TemporaryDirectory(prefix="replay_iso.") as cache_dir:
        layer = _verify(dotted, cache_dir, **other)
        again = _verify(dotted, cache_dir, **target)
    ok = True
    if not layer.stats.get(stat, 0):
        print(f"FAIL {name}: {other} never exercised its layer "
              f"({stat} = 0)")
        ok = False
    if _statuses(again) != _statuses(cold):
        diffs = [(c, a) for c, a in zip(_statuses(cold), _statuses(again))
                 if c != a]
        print(f"FAIL {name}: {target} after {other} differs from cold: "
              f"{diffs[:3]}")
        ok = False
    leaked = [o.label for f in again.functions for o in f.obligations
              if o.answered_by == layer_answer]
    if leaked:
        print(f"FAIL {name}: {target} after {other} reports "
              f"{len(leaked)} obligation(s) answered by {layer_answer!r}: "
              f"{leaked[:3]}")
        ok = False
    if again.query_bytes != cold.query_bytes:
        print(f"FAIL {name}: query bytes {again.query_bytes} after "
              f"{other}, {cold.query_bytes} cold")
        ok = False
    if ok:
        print(f"ok   {name}: {target} after {other} matches cold "
              f"(ok={cold.ok}, {cold.query_bytes} query bytes, "
              f"{stat}={layer.stats[stat]}, "
              f"{again.stats.get('delta_skips', 0)} delta skips)")
    return ok


def main() -> int:
    failed = [name for name in SCENARIOS if not check(name)]
    if failed:
        print(f"{len(failed)}/{len(SCENARIOS)} scenarios leaked: "
              f"{', '.join(failed)}")
        return 1
    print(f"all {len(SCENARIOS)} scenarios isolated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
