#!/usr/bin/env python3
"""Profiles smoke gate: the profile axis + race replay, end to end.

Exercises the profile-first API the way CI does:

1. profile-axis ablation on two case studies (plog CRC table, ironkv
   delegation map): the E-matching profiles (default, frugal,
   aggressive) must verify both; the MBQI profile (epr) must verify
   plog but fail ironkv under a 1s per-obligation deadline — grounded
   arithmetic is exactly where complete instantiation grinds, the gap
   that motivates per-obligation portfolio racing;
2. the stubborn corpus module (one MBQI-only goal + one
   E-matching-only goal): the fixed default profile fails it,
   ``portfolio=2`` verifies it;
3. race replay: a second portfolio run against the same proof cache
   must build *strictly fewer* solvers than the cold race (with the
   cache warm, exactly zero), replaying every race attempt's verdict
   from the cache.

Any violated expectation exits 1 so CI fails.

Run:  PYTHONPATH=src python scripts/profiles_smoke.py
"""

import importlib
import sys
import tempfile

from repro.api import Session, VerifyConfig
from repro.profiles.corpus import build_stubborn_pair_module
from repro.smt.solver import solver_constructions

CASE_STUDIES = [
    ("plog_crc", "repro.systems.plog.crc_verified:build_crc_table_module"),
    ("ironkv", "repro.systems.ironkv.delegation_map:build_default_module"),
]

_failures = []


def _build(spec: str):
    mod_path, _, attr = spec.partition(":")
    return getattr(importlib.import_module(mod_path), attr)()


def gate(name: str, ok: bool, detail: str = "") -> None:
    marker = "ok  " if ok else "FAIL"
    print(f"{marker} {name}" + (f" ({detail})" if detail else ""), flush=True)
    if not ok:
        _failures.append(name)


def main() -> int:
    # ---- 1. profile axis over the case studies ------------------------
    expected = {
        "default": {"plog_crc": True, "ironkv": True},
        "frugal": {"plog_crc": True, "ironkv": True},
        "aggressive": {"plog_crc": True, "ironkv": True},
        "epr": {"plog_crc": True, "ironkv": False},
    }
    for prof, want in expected.items():
        for label, spec in CASE_STUDIES:
            result = Session(VerifyConfig(profile=prof,
                                          job_timeout=1.0)).verify_module(
                _build(spec))
            gate(f"profile-axis {prof}/{label}",
                 result.ok == want[label],
                 f"verified={result.ok}, expected={want[label]}")

    # ---- 2. portfolio rescues the stubborn module ---------------------
    fixed = Session(VerifyConfig()).verify_module(
        build_stubborn_pair_module())
    gate("stubborn_pair fails under the fixed default profile",
         not fixed.ok)

    with tempfile.TemporaryDirectory() as tmp:
        cfg = VerifyConfig(portfolio=2, cache_dir=tmp)
        before = solver_constructions()
        cold = Session(cfg).verify_module(build_stubborn_pair_module())
        cold_built = solver_constructions() - before
        gate("portfolio=2 verifies stubborn_pair", cold.ok,
             f"races={cold.stats.get('portfolio_races', 0)}, "
             f"solvers={cold_built}")
        gate("the race actually fanned out",
             cold.stats.get("portfolio_races", 0) >= 1
             and cold.stats.get("portfolio_wins", 0) >= 1)

        # ---- 3. cache-warm second pass: strictly fewer constructions -
        before = solver_constructions()
        warm = Session(cfg).verify_module(build_stubborn_pair_module())
        warm_built = solver_constructions() - before
        gate("cache-warm second pass verifies", warm.ok)
        gate("second pass builds strictly fewer solvers",
             warm_built < cold_built, f"{cold_built} -> {warm_built}")
        gate("warm replay builds zero solvers",
             warm_built == 0, f"built={warm_built}")
        gate("second pass replays the race from the cache",
             warm.stats.get("portfolio_attempts", 0) == 0
             and warm.stats.get("portfolio_wins", 0) >= 1)

    if _failures:
        print(f"\n{len(_failures)} gate(s) failed: {_failures}",
              file=sys.stderr)
        return 1
    print("\nprofiles smoke: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
