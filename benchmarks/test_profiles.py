"""Automation-profile portfolio bench: per-profile win rates, the
portfolio rescue of stubborn modules, and the savings of replaying a
race from the proof cache.

Emits ``BENCH_profiles.json`` (repo root) with three sections:

* ``fixed_profiles`` — every shipped profile run over the profile-gap
  corpus plus two §4 case studies: verified count and wall clock;
* ``portfolio`` — the same modules with ``portfolio=2``: race counts,
  per-profile win totals, and the modules *rescued* (verified by the
  race though every fixed profile fails them);
* ``race_replay`` — solver constructions for a cold portfolio run vs
  the cache-warm re-run of the same module.

Asserted acceptance (not just reported): the portfolio rescues at
least one module no fixed profile verifies, and the cache-warm second
run builds at least 2x fewer solvers than the cold race.
"""

import importlib
import json
import os
import time

from conftest import banner, table
from repro.api import Session, VerifyConfig
from repro.profiles import profile_names
from repro.smt.solver import solver_constructions

BENCH_FILE = os.path.join(os.path.dirname(__file__), "..",
                          "BENCH_profiles.json")

MODULES = [
    ("mbqi_gap", "repro.profiles.corpus:build_mbqi_gap_module"),
    ("universe_gap", "repro.profiles.corpus:build_universe_gap_module"),
    ("stubborn_pair", "repro.profiles.corpus:build_stubborn_pair_module"),
    ("ironkv", "repro.systems.ironkv.delegation_map:build_default_module"),
    ("plog_crc", "repro.systems.plog.crc_verified:build_crc_table_module"),
]


def _build(spec: str):
    mod_path, _, attr = spec.partition(":")
    return getattr(importlib.import_module(mod_path), attr)()


def test_profile_portfolio_bench(tmp_path):
    # ---- fixed-profile axis -------------------------------------------
    fixed_rows = []
    unverified_everywhere = {label for label, _ in MODULES}
    # The 1s per-obligation deadline bounds hopeless profile/module
    # pairings (MBQI grinding on a grounded-arithmetic module) without
    # touching winners: every provable cell proves well under 1s.
    for prof in profile_names():
        per = {}
        t0 = time.perf_counter()
        for label, spec in MODULES:
            result = Session(VerifyConfig(profile=prof,
                                          job_timeout=1.0)).verify_module(
                _build(spec))
            per[label] = bool(result.ok)
            if result.ok:
                unverified_everywhere.discard(label)
        fixed_rows.append({
            "profile": prof,
            "verified": sum(per.values()),
            "modules": len(MODULES),
            "seconds": round(time.perf_counter() - t0, 4),
            "per_module": per,
        })

    # ---- portfolio arm ------------------------------------------------
    wins: dict[str, int] = {}
    port_per = {}
    races = attempts = 0
    t0 = time.perf_counter()
    for label, spec in MODULES:
        result = Session(VerifyConfig(portfolio=2)).verify_module(
            _build(spec))
        port_per[label] = bool(result.ok)
        races += result.stats.get("portfolio_races", 0)
        attempts += result.stats.get("portfolio_attempts", 0)
        for fn in result.functions:
            for ob in fn.obligations:
                race = ob.stats.get("portfolio")
                if race and race.get("winner"):
                    wins[race["winner"]] = wins.get(race["winner"], 0) + 1
    port_seconds = round(time.perf_counter() - t0, 4)
    rescued = sorted(m for m in unverified_everywhere if port_per[m])

    # ---- race replay: cold race vs cache-warm re-run ------------------
    cfg = VerifyConfig(portfolio=2, cache_dir=str(tmp_path / "cache"))
    spec = dict(MODULES)["stubborn_pair"]
    before = solver_constructions()
    t0 = time.perf_counter()
    cold = Session(cfg).verify_module(_build(spec))
    cold_seconds = round(time.perf_counter() - t0, 4)
    cold_built = solver_constructions() - before
    before = solver_constructions()
    t0 = time.perf_counter()
    warm = Session(cfg).verify_module(_build(spec))
    warm_seconds = round(time.perf_counter() - t0, 4)
    warm_built = solver_constructions() - before
    assert cold.ok and warm.ok

    # ---- report --------------------------------------------------------
    banner("Automation profiles: fixed axis vs portfolio race")
    table(["profile", "verified", "time (s)"],
          [[r["profile"], f"{r['verified']}/{r['modules']}", r["seconds"]]
           for r in fixed_rows]
          + [["portfolio=2", f"{sum(port_per.values())}/{len(MODULES)}",
              port_seconds]])
    table(["race winner", "wins"], sorted(wins.items()))
    table(["run", "solvers built", "time (s)"],
          [["cold race", cold_built, cold_seconds],
           ["cache-warm", warm_built, warm_seconds]])

    payload = {
        "description": "Fixed automation profiles vs portfolio racing "
                       "over the profile-gap corpus and two case "
                       "studies, plus the savings of replaying the "
                       "race from the proof cache.",
        "command": "PYTHONPATH=src python -m pytest "
                   "benchmarks/test_profiles.py -q",
        "fixed_profiles": fixed_rows,
        "portfolio": {
            "width": 2,
            "verified": sum(port_per.values()),
            "modules": len(MODULES),
            "seconds": port_seconds,
            "races": races,
            "live_attempts": attempts,
            "wins_by_profile": wins,
            "per_module": port_per,
            "rescued_modules": rescued,
        },
        "race_replay": {
            "module": "stubborn_pair",
            "cold_solver_constructions": cold_built,
            "warm_solver_constructions": warm_built,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
        },
    }
    with open(BENCH_FILE, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    # The PR's acceptance bars, asserted where the numbers are emitted.
    assert rescued, \
        "portfolio must verify a module every fixed profile fails on"
    assert races >= 1 and wins, (races, wins)
    assert 2 * warm_built <= cold_built, (cold_built, warm_built)
