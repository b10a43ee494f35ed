#!/usr/bin/env python3
"""Check that a proof cache warmed by one process serves the next.

Verifies the five case-study systems and the Fig. 7a list modules in a
child process under ``PYTHONHASHSEED=1``, then again in a second child
under ``PYTHONHASHSEED=2`` against the same cache directory.  Query text,
and so every obligation digest, must not depend on the string-hash
seed; the second run must therefore answer every obligation from the
cache and build zero solvers.

A second leg repeats both runs with delta re-verification on, over the
same directory.  Function dependency digests must not depend on the
hash seed either, so its second run must replay every function from
the cache's function entries: zero ``plan_function`` calls and zero
solvers.

A third leg copies ``src/`` to two different paths and verifies a few
modules with delta on from the first copy, then from the second, over
one fresh cache directory.  Function digests must not depend on where
the checkout lives (source spans name files relative to their import
root), so the second run must plan 0 functions and build 0 solvers.
Exits 1 when any leg rebuilds anything, naming the modules that missed.

Run:  PYTHONPATH=src python scripts/cache_stability.py [--cache-dir DIR]
"""

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Module name -> dotted builder path (builders take no arguments).
MODULES = {
    "ironkv.delegation_map":
        "repro.systems.ironkv.delegation_map.build_default_module",
    "ironkv.marshal":
        "repro.systems.ironkv.marshal_verified.build_u64_roundtrip_module",
    "nr.core": "repro.systems.nr.model.build_nr_core_module",
    "pagetable.view":
        "repro.systems.pagetable.view_verified.build_view_module",
    "pagetable.entry":
        "repro.systems.pagetable.entry_verified.build_entry_module",
    "mimalloc.disjoint":
        "repro.systems.mimalloc.verified.build_disjointness_module",
    "mimalloc.bits": "repro.systems.mimalloc.verified.build_bit_tricks_module",
    "plog.crc": "repro.systems.plog.crc_verified.build_crc_table_module",
    "fig7a.singly": "repro.millibench.lists.build_singly_linked_module",
    "fig7a.doubly": "repro.millibench.lists.build_doubly_linked_module",
}

HASH_SEEDS = ("1", "2")

# Leg name -> whether delta re-verification is on.
LEGS = {"verdict": False, "function": True}

# Modules of the checkout-path leg, and where its two copies of src/ go.
PATH_MODULES = ("ironkv.delegation_map", "fig7a.doubly")
CHECKOUTS = ("a", os.path.join("b", "nested"))


def verify_all(cache_dir: str, delta: bool, names=tuple(MODULES)) -> dict:
    """Verify every module through ``cache_dir``; per-module counts."""
    from repro.api import Session, VerifyConfig
    from repro.smt.solver import total_solver_constructions
    from repro.vc.wp import VcGen
    plans = [0]
    plan_function = VcGen.plan_function

    def counting_plan(self, fn):
        plans[0] += 1
        return plan_function(self, fn)

    VcGen.plan_function = counting_plan
    config = VerifyConfig(cache_dir=cache_dir, jobs=1, delta=delta)
    out = {}
    for name in names:
        path, attr = MODULES[name].rsplit(".", 1)
        mod = getattr(importlib.import_module(path), attr)()
        built0, plans0 = total_solver_constructions(), plans[0]
        with Session(config) as session:
            res = session.verify_module(mod)
        out[name] = {"ok": res.ok,
                     "solvers": total_solver_constructions() - built0,
                     "plans": plans[0] - plans0,
                     "cache_misses": res.stats.get("cache_misses", 0)}
    return out


def run_child(cache_dir: str, hash_seed: str, delta: bool,
              src: str = os.path.join(ROOT, "src"),
              names=tuple(MODULES)) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = src
    cmd = [sys.executable, os.path.abspath(__file__), "--child", cache_dir,
           "--modules", ",".join(names)]
    if delta:
        cmd.append("--delta")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"child run under PYTHONHASHSEED={hash_seed} "
                         f"exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_leg(cache_dir: str, leg: str, delta: bool) -> int:
    print(f"{leg} leg (delta={'on' if delta else 'off'}):")
    runs = [run_child(cache_dir, seed, delta) for seed in HASH_SEEDS]
    failed = False
    for name in MODULES:
        cells = [f"seed {seed}: {run[name]['solvers']:3d} solvers, "
                 f"{run[name]['cache_misses']:3d} misses"
                 + (f", {run[name]['plans']:3d} plans" if delta else "")
                 for seed, run in zip(HASH_SEEDS, runs)]
        ok = all(run[name]["ok"] for run in runs)
        failed |= not ok
        print(f"  {name:<22} " + " | ".join(cells)
              + ("" if ok else "  NOT VERIFIED"))
    rebuilt = {n: r["solvers"] for n, r in runs[1].items() if r["solvers"]}
    if rebuilt:
        print(f"FAIL: the PYTHONHASHSEED={HASH_SEEDS[1]} run rebuilt solvers "
              f"for {rebuilt}: obligation text depends on the hash seed")
        return 1
    replanned = {n: r["plans"] for n, r in runs[1].items() if r["plans"]}
    if delta and replanned:
        print(f"FAIL: the PYTHONHASHSEED={HASH_SEEDS[1]} run re-planned "
              f"functions for {replanned}: function digests depend on the "
              f"hash seed")
        return 1
    if failed:
        print("FAIL: a module did not verify")
        return 1
    print(f"OK: the PYTHONHASHSEED={HASH_SEEDS[1]} run built 0 solvers"
          + (" and planned 0 functions" if delta else ""))
    return 0


def check_paths() -> int:
    print("checkout-path leg (delta=on, two copies of src/):")
    with tempfile.TemporaryDirectory(prefix="pv_checkouts_") as tmp:
        cache_dir = os.path.join(tmp, "cache")
        runs = []
        for copy in CHECKOUTS:
            src = os.path.join(tmp, copy, "src")
            shutil.copytree(os.path.join(ROOT, "src"), src,
                            ignore=shutil.ignore_patterns("__pycache__"))
            runs.append(run_child(cache_dir, HASH_SEEDS[0], True, src,
                                  PATH_MODULES))
    for name in PATH_MODULES:
        cells = [f"{copy}: {run[name]['solvers']:3d} solvers, "
                 f"{run[name]['plans']:3d} plans"
                 for copy, run in zip(CHECKOUTS, runs)]
        print(f"  {name:<22} " + " | ".join(cells))
    moved = {n: (r["plans"], r["solvers"]) for n, r in runs[1].items()
             if r["plans"] or r["solvers"]}
    if moved:
        print(f"FAIL: the second checkout re-planned or re-solved "
              f"(plans, solvers) {moved}: function digests depend on the "
              f"checkout path")
        return 1
    if not all(r["ok"] for run in runs for r in run.values()):
        print("FAIL: a module did not verify")
        return 1
    print("OK: the second checkout planned 0 functions and built 0 solvers")
    return 0


def check(cache_dir: str) -> int:
    for leg, delta in LEGS.items():
        if check_leg(cache_dir, leg, delta):
            return 1
    return check_paths()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--cache-dir",
                    help="proof cache directory (default: a fresh temp dir, "
                         "removed afterwards)")
    ap.add_argument("--child", metavar="DIR", help=argparse.SUPPRESS)
    ap.add_argument("--delta", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--modules", default=",".join(MODULES),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(verify_all(args.child, args.delta,
                                    args.modules.split(","))))
        return 0
    if args.cache_dir:
        return check(args.cache_dir)
    with tempfile.TemporaryDirectory(prefix="pv_stability_") as cache_dir:
        return check(cache_dir)


if __name__ == "__main__":
    sys.exit(main())
