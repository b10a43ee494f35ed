#!/usr/bin/env python3
"""Diagnostics-engine demo: a deliberately broken IronKV delegation map.

Rebuilds the ``dm_get`` scan from the IronKV case study (§3.2, Fig. 3a)
with the classic off-by-one — the returned window index is ``i + 1``
instead of ``i`` — states its whole postcondition as one conjunction,
and verifies with diagnostics on.  The report demonstrates every layer
of the engine:

* the failure is classified (PostCondFail) with its source span,
* the counterexample witness gives concrete pivots/key values,
* assert/ensures splitting pinpoints exactly which conjuncts break,
* the QI profiler shows which quantifier (dm_wf sortedness vs. the
  loop invariant) drove instantiation.

The script also re-verifies with ``jobs=4``, and again over the proof
cache the serial run filled (every diagnostic replayed from the cache,
no obligation re-solved), and asserts the diagnostic output is identical
to the serial run — the determinism guarantee.  Verification goes through the
:mod:`repro.api` ``Session`` front door.

Run:  PYTHONPATH=src python scripts/diagnose_example.py
"""

import json
import sys
import tempfile

from repro.api import Session, VerifyConfig
from repro.lang import (BOOL, INT, U64, Module, SeqType, StructType, and_all,
                        assign, call, exec_fn, forall, let_, lit,
                        ret, spec_fn, struct, var, while_)
from repro.diag import module_profile
from repro.diag.profile import profile_table

SeqU = SeqType(U64)


def build_broken_module() -> Module:
    mod = Module("delegation_map_broken")
    p = var("p", SeqU)      # pivots
    h = var("h", SeqU)      # hosts
    k = var("k", U64)

    spec_fn(mod, "dm_wf", [("p", SeqU), ("h", SeqU)], BOOL,
            body=and_all(
                p.length() > 0,
                h.length().eq(p.length()),
                p.index(0).eq(0),
                forall([("i", INT), ("j", INT)],
                       and_all(lit(0) <= var("i", INT),
                               var("i", INT) < var("j", INT),
                               var("j", INT) < p.length()).implies(
                           p.index(var("i", INT)) < p.index(var("j", INT)))),
            ))

    GetOut = StructType("DmGetOut").declare([("host", U64), ("idx", INT)])
    mod.datatype(GetOut)
    i = var("i", INT)
    out = var("out", GetOut)
    exec_fn(
        mod, "dm_get", [("p", SeqU), ("h", SeqU), ("k", U64)],
        ret=("out", GetOut),
        requires=[call(mod, "dm_wf", p, h)],
        # The whole contract as ONE conjunction, so splitting gets to
        # pinpoint the clauses the off-by-one breaks.
        ensures=[and_all(
            lit(0) <= out.field("idx"),
            out.field("idx") < p.length(),
            p.index(out.field("idx")) <= k,
            out.field("host").eq(h.index(out.field("idx"))),
        )],
        body=[
            let_("i", p.length() - 1),
            while_(p.index(i) > k,
                   invariants=[
                       lit(0) <= i, i < p.length(),
                       forall([("m", INT)],
                              and_all(i < var("m", INT),
                                      var("m", INT) < p.length()).implies(
                                  k < p.index(var("m", INT)))),
                   ],
                   body=[assign("i", i - 1)],
                   decreases=i),
            # BUG: returns window i+1, one past the pivot that owns k.
            ret(struct(GetOut, host=h.index(i), idx=i + 1)),
        ])
    return mod


def diag_signature(result):
    """Everything diagnostic about a result, minus wall-clock noise."""
    return [(fn, o.label, o.kind, o.status, o.seq, str(o.span),
             o.error_type, o.diag.to_dict() if o.diag else None)
            for fn, o in result.failures()]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="pv_diag_cache_") as cache_dir:
        return run(cache_dir)


def run(cache_dir: str) -> int:
    serial = Session(VerifyConfig(jobs=1, cache_dir=cache_dir)).diagnose(
        build_broken_module())
    print(serial.report())
    print()

    rows = module_profile(serial, k=5)
    print("module QI profile (top 5):")
    print(profile_table(rows))
    print()

    parallel = Session(VerifyConfig(jobs=4)).diagnose(build_broken_module())
    if diag_signature(serial) != diag_signature(parallel):
        print("FATAL: serial and jobs=4 diagnostics differ", file=sys.stderr)
        return 1
    warm = Session(VerifyConfig(cache_dir=cache_dir)).diagnose(
        build_broken_module())
    if warm.stats.get("cache_misses", 0):
        print(f"FATAL: cache-warm rerun re-solved "
              f"{warm.stats['cache_misses']} obligations", file=sys.stderr)
        return 1
    if diag_signature(serial) != diag_signature(warm):
        print("FATAL: serial and cache-warm diagnostics differ",
              file=sys.stderr)
        return 1
    print("determinism: serial, jobs=4, and cache-warm diagnostics "
          "are identical")

    if serial.ok:
        print("FATAL: the broken module verified?!", file=sys.stderr)
        return 1
    failures = serial.failures()
    post = [o for _, o in failures if o.kind == "ensures"]
    if not post:
        print("FATAL: expected a postcondition failure", file=sys.stderr)
        return 1
    diag = post[0].diag
    checks = {
        "taxonomy class is PostCondFail":
            post[0].error_type == "PostCondFail",
        "counterexample witness present": bool(diag.witness),
        "splitting found failing conjunct(s)":
            bool(diag.failing_conjuncts())
            and len(diag.failing_conjuncts()) < len(diag.conjuncts),
        "QI profile recorded": bool(rows),
        "source span recorded": post[0].span is not None,
    }
    for name, ok in checks.items():
        print(f"  {'ok' if ok else 'MISSING'}: {name}")
    if not all(checks.values()):
        return 1

    # Machine-readable rendering round-trips through json and carries
    # the documented schema version.
    payload = serial.to_json()
    if payload.get("schema_version") != 3:
        print("FATAL: unexpected report schema_version", file=sys.stderr)
        return 1
    print("\nJSON rendering ok "
          f"({len(json.dumps(payload))} bytes, schema_version 3)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
