#!/usr/bin/env python3
"""Chaos gate: faulted runs must reproduce fault-free verdicts exactly.

Verifies each case-study module twice — once clean, once under a
deterministic :mod:`repro.resilience.faults` plan (a worker crash, a
cache-store I/O error, and a forced resource-out) with the retry ladder
enabled — and diffs the per-obligation verdict signatures.  Any
divergence means a recovery path changed an *answer* instead of just
costing time, and the script exits 1 so CI fails.

``--tiered`` runs the gate against the tiered proof cache instead: each
module is verified clean, then cold and warm through a memory/disk
:class:`~repro.cache.tiers.TieredProofCache` on one root, under a plan
that tears disk lookups and drops disk writes.  The warm pass starts
with an empty memory tier, so every replay crosses the faulted disk
tier.  The bar is the same: byte-identical verdicts, and a plan that
fires at least once.

Run:  PYTHONPATH=src python scripts/chaos_check.py
      PYTHONPATH=src python scripts/chaos_check.py --jobs 2 \\
          --plan 'seed=5; pool.worker:crash@1; cache.store:io@1'
      PYTHONPATH=src python scripts/chaos_check.py --tiered
"""

import argparse
import importlib
import sys
import tempfile

from repro.api import Session
from repro.cache import TieredProofCache

# The Fig 9 module set: one representative verified module per shipped
# system.  (mimalloc is idiom-only and plog solver-free, so some fault
# points never arm there — the identical-verdicts bar still applies.)
MODULES = [
    ("ironkv", "repro.systems.ironkv.delegation_map.build_default_module"),
    ("nr", "repro.systems.nr.model.build_nr_core_module"),
    ("pagetable", "repro.systems.pagetable.view_verified.build_view_module"),
    ("mimalloc", "repro.systems.mimalloc.verified.build_bit_tricks_module"),
    ("plog", "repro.systems.plog.crc_verified.build_crc_table_module"),
]

DEFAULT_PLAN = ("seed=5; pool.worker:crash@1; cache.store:io@1; "
                "solver.check:resource_out@2")
TIERED_PLAN = "seed=7; cache.lookup:corrupt%0.25; cache.store:io%0.1"


def _build(dotted: str):
    modpath, _, fn = dotted.rpartition(".")
    return getattr(importlib.import_module(modpath), fn)()


def _signature(result):
    return [(f.name, o.label, o.kind, o.status)
            for f in result.functions for o in f.obligations]


def _faulted_runs(dotted: str, args) -> list:
    """The chaos verifications of one module: one run over a fresh cache
    dir or, with ``--tiered``, a cold then a warm run through a fresh
    mem,disk tiered cache each, both on one root."""
    session_kwargs = {"jobs": args.jobs, "retries": args.retries,
                      "fault_plan": args.plan}
    with tempfile.TemporaryDirectory(prefix="chaos_pc.") as cachedir:
        if not args.tiered:
            session = Session(cache_dir=cachedir, **session_kwargs)
            return [session.verify_module(_build(dotted))]
        runs = []
        for _phase in ("cold", "warm"):
            tc = TieredProofCache(cachedir, tiers="mem,disk")
            session = Session(cache=tc, **session_kwargs)
            runs.append(session.verify_module(_build(dotted)))
        return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=2,
                    help="worker processes for the chaos run (default 2)")
    ap.add_argument("--plan", default=None,
                    help="fault plan for the chaos run")
    ap.add_argument("--retries", type=int, default=3,
                    help="retry-escalation attempts (default 3)")
    ap.add_argument("--tiered", action="store_true",
                    help="gate the mem,disk tiered proof cache: cold and "
                         "warm runs under torn lookups and dropped writes")
    args = ap.parse_args(argv)
    if args.plan is None:
        args.plan = TIERED_PLAN if args.tiered else DEFAULT_PLAN

    failures = 0
    total_fired = 0
    for name, dotted in MODULES:
        clean = Session(jobs=1).verify_module(_build(dotted))
        runs = _faulted_runs(dotted, args)
        fired = sum(r.stats.get("faults_injected", 0) for r in runs)
        total_fired += fired
        if args.tiered:
            quarantined = sum(r.stats.get("quarantined", 0) for r in runs)
            tally = (f"across clean/cold/warm ({fired} faults fired, "
                     f"{quarantined} quarantined)")
        else:
            recovered = runs[0].stats.get("retry_recoveries", 0)
            crashes = runs[0].stats.get("pool_failures", 0)
            tally = (f"({fired} faults fired, {crashes} worker failures, "
                     f"{recovered} ladder recoveries)")
        if all(_signature(r) == _signature(clean) for r in runs):
            print(f"ok   {name}: verdicts identical {tally}")
        else:
            failures += 1
            print(f"FAIL {name}: chaos run diverged from clean run")
            for run in runs:
                for c, f in zip(_signature(clean), _signature(run)):
                    if c != f:
                        print(f"     clean={c}  chaos={f}")

    if total_fired == 0:
        print("FAIL: the fault plan never fired — the gate tested nothing")
        return 1
    if failures:
        print(f"{failures}/{len(MODULES)} modules diverged under faults")
        return 1
    print(f"all {len(MODULES)} modules byte-identical under plan "
          f"{args.plan!r} ({total_fired} faults fired)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
