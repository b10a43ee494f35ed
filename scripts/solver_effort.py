#!/usr/bin/env python3
"""Snapshot of the solver work done on the benchmark modules.

Verifies the 11 modules of the ``cold_smt`` and ``cold_idiom`` benchmark
workloads (``perfbench/workloads.py``, imported read-only) one after
another, each cold in a fresh cache-less ``Session(VerifyConfig(
analyze=True))`` as a benchmark pass does.  For each module it records
the verdict, the obligation statuses, the solvers built, the query
bytes, every non-timing ``Stats`` counter (SAT conflicts, rounds, theory
lemmas, instantiations, E-matching counters, ...) and the CNF size of
its ``by(bit_vector)`` queries (``bv_vars`` / ``bv_clauses``: variables
and attached problem clauses, summed over every ``BitBlaster`` built).
It also records the CDCL search itself (``sat_decisions`` /
``sat_conflicts`` / ``sat_propagations``, summed over every
``SatSolver`` built, the bit-blaster's included), which the ``Stats``
counters cannot see: their ``conflicts`` are SMT theory conflicts.  It
prints the snapshot as sorted JSON.  The pagetable entry module
keeps the divmod level that seed ``SEED`` selects, as ``cold_idiom``
does.

The snapshot is a function of the solver's search, not of timing, of
``PYTHONHASHSEED`` or of where objects sit in memory.  A change that
only makes the SMT core faster must leave it byte-identical, which
``--check`` asserts against ``tests/data/solver_effort.json``.  A change
that means to change the solver's search regenerates that file with
``--write`` and says so in CHANGES.md.

Terms, declarations and sorts hash by identity in dicts and sets, so a
set of terms iterates in an order that follows memory addresses.
``--ballast N`` shifts the heap: it allocates one term-sized object next
to every N-th new term, so terms land at other addresses than in a plain
run.  A ``--check`` that still passes under ballast shows that no set
iteration order reaches the search.  ``--module NAME`` (repeatable)
restricts the run, and ``--check``, to the named modules.  Each solver
numbers the names it makes (skolems, lift variables) itself, so a
module's snapshot is the same whichever modules run before it.

Run:  PYTHONPATH=src python scripts/solver_effort.py [--check | --write]
          [--ballast N] [--module NAME ...]
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SNAPSHOT = os.path.join(ROOT, "tests", "data", "solver_effort.json")

# cold_idiom seed whose divmod level the pagetable entry module keeps.
SEED = 1


def install_ballast(every: int) -> None:
    """Allocate one term-sized ballast object after every ``every``-th
    new ``Term``, shifting the addresses (and so the identity hashes)
    of the terms that follow.  The ballast lives as long as the
    process."""
    from repro.smt import terms as T

    class Ballast:
        __slots__ = T.Term.__slots__

    kept: list = []
    made = [0]
    intern = T.Term.__new__

    def new(cls, kind, sort, args=(), payload=None):
        made[0] += 1
        if made[0] % every == 0:
            kept.append(Ballast())
        return intern(cls, kind, sort, args, payload)

    T.Term.__new__ = staticmethod(new)


def track(cls) -> list:
    """Wrap ``cls.__init__`` so every instance built from now on is
    appended to the returned list (the caller reads and clears it)."""
    built: list = []
    init = cls.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    cls.__init__ = tracked
    return built


def snapshot(names=None) -> dict:
    sys.path.insert(0, ROOT)
    from perfbench import workloads as W
    from repro.api import Session, VerifyConfig
    from repro.smt.bitvec import BitBlaster
    from repro.smt.sat import SatSolver
    from repro.smt.solver import solver_constructions
    config = VerifyConfig(analyze=True)
    blasters = track(BitBlaster)
    sats = track(SatSolver)
    out = {}
    for spec in W.COLD_SMT + W.COLD_IDIOM:
        if names and spec.name not in names:
            continue
        mod = W.build_idiom_module(spec, SEED)
        built0 = solver_constructions()
        with Session(config) as session:
            res = session.verify_module(mod)
        statuses: dict = {}
        for fn in res.functions:
            for ob in fn.obligations:
                key = str(ob.status)
                statuses[key] = statuses.get(key, 0) + 1
        out[spec.name] = {
            "ok": res.ok,
            "statuses": statuses,
            "solvers": solver_constructions() - built0,
            "query_bytes": res.query_bytes,
            "bv_vars": sum(b.sat.num_vars for b in blasters),
            "bv_clauses": sum(len(b.sat._clauses) for b in blasters),
            "sat_decisions": sum(s.num_decisions for s in sats),
            "sat_conflicts": sum(s.num_conflicts for s in sats),
            "sat_propagations": sum(s.num_propagations for s in sats),
            # Every Stats counter except the wall-clock ones.
            "stats": {k: v for k, v in (res.stats or {}).items()
                      if not k.endswith("seconds")},
        }
        blasters.clear()
        sats.clear()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="exit 1 if the snapshot differs from the "
                           "committed one")
    mode.add_argument("--write", action="store_true",
                      help="overwrite the committed snapshot")
    ap.add_argument("--ballast", type=int, default=0, metavar="N",
                    help="allocate a term-sized object after every N-th "
                         "new term (shifts the heap; 0 = off)")
    ap.add_argument("--module", action="append", default=[],
                    metavar="NAME",
                    help="snapshot (and check) only this module; "
                         "repeatable")
    args = ap.parse_args(argv)
    if args.ballast < 0:
        ap.error("--ballast must be >= 0")
    if args.write and args.module:
        ap.error("--write snapshots every module; drop --module")
    if args.ballast:
        install_ballast(args.ballast)
    snap = snapshot(args.module)
    missing = sorted(set(args.module) - set(snap))
    if missing:
        ap.error(f"unknown module(s): {', '.join(missing)}")
    text = json.dumps(snap, indent=1, sort_keys=True) + "\n"
    if args.write:
        with open(SNAPSHOT, "w") as fh:
            fh.write(text)
        print(f"wrote {SNAPSHOT}")
        return 0
    if not args.check:
        sys.stdout.write(text)
        return 0
    with open(SNAPSHOT) as fh:
        want = json.load(fh)
    if args.module:
        want = {n: want.get(n) for n in args.module}
    got = json.loads(text)
    changed = sorted(n for n in set(want) | set(got)
                     if want.get(n) != got.get(n))
    for name in changed:
        print(f"{name}:")
        print(f"  committed: {json.dumps(want.get(name), sort_keys=True)}")
        print(f"  now:       {json.dumps(got.get(name), sort_keys=True)}")
    if changed:
        print(f"FAIL: solver effort changed on {len(changed)} module(s); "
              f"a change meant to alter the search regenerates "
              f"{os.path.relpath(SNAPSHOT, ROOT)} with --write")
        return 1
    print(f"OK: solver effort identical on all {len(got)} modules")
    return 0


if __name__ == "__main__":
    sys.exit(main())
