#!/usr/bin/env python3
"""Triage smoke gate: the static proving tier, end to end.

Exercises the abstract-interpretation triage tier the way CI does, over
the five case-study systems:

1. **shadow soundness** — ``triage="shadow"`` runs the tier *and* the
   solver on every obligation; a single disagreement (tier claimed, the
   solver refuted) raises ``TriageDisagreement`` and fails the gate;
2. **solver economy** — a triage-on run must construct *strictly
   fewer* solvers than triage-off, and the discharge rate across the
   five systems must clear the 15% floor;
3. **verdict identity** — the per-obligation verdict signatures
   ``(fn, label, kind, status)`` of the triage-on run must be
   byte-identical to triage-off, serial and cache-warm alike;
4. **cache-warm run** — with a shared cache directory, a second
   triage-on run must build zero solvers: the tier claims the same
   obligations again (static verdicts are never stored) and the cache
   replays the solver's verdicts for the rest.

Any violated expectation exits 1 so CI fails.

Run:  PYTHONPATH=src python scripts/triage_smoke.py
"""

import importlib
import sys
import tempfile

from repro.api import Session, VerifyConfig
from repro.smt.solver import total_solver_constructions

MODULES = [
    ("ironkv", "repro.systems.ironkv.delegation_map:build_default_module"),
    ("nr", "repro.systems.nr.model:build_nr_core_module"),
    ("pagetable", "repro.systems.pagetable.view_verified:build_view_module"),
    ("mimalloc", "repro.systems.mimalloc.verified:build_bit_tricks_module"),
    ("plog", "repro.systems.plog.crc_verified:build_crc_table_module"),
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


def _signature(result):
    return [(f.name, o.label, o.kind, o.status)
            for f in result.functions for o in f.obligations]


def _run_all(triage: str, cache_dir=None):
    """(signatures, solvers_built, static_proved, obligations)."""
    built0 = total_solver_constructions()
    sigs, static, total = {}, 0, 0
    cfg = VerifyConfig(triage=triage, cache_dir=cache_dir)
    with Session(cfg) as session:
        for name, spec in MODULES:
            result = session.verify_module(_build(spec))
            gate(f"{name} verifies (triage={triage})", result.ok)
            sigs[name] = _signature(result)
            static += int(result.stats.get("static_proved", 0) or 0)
            total += sum(len(f.obligations) for f in result.functions)
    return sigs, total_solver_constructions() - built0, static, total


def main() -> int:
    # ---- 1. shadow soundness: tier + solver on everything -------------
    from repro.analysis.absint import TriageDisagreement
    try:
        shadow_sigs, shadow_built, shadow_claims, _ = _run_all("shadow")
        gate("shadow mode: zero tier/solver disagreements", True,
             f"{shadow_claims} claims checked against the solver")
    except TriageDisagreement as exc:
        gate("shadow mode: zero tier/solver disagreements", False, str(exc))
        shadow_sigs = None

    # ---- 2 + 3. economy and verdict identity --------------------------
    off_sigs, off_built, _, _ = _run_all("off")
    on_sigs, on_built, static, total = _run_all("on")
    gate("triage-on builds strictly fewer solvers",
         on_built < off_built, f"{on_built} < {off_built}")
    rate = static / total if total else 0.0
    gate("static discharge rate >= 15%",
         rate >= 0.15, f"{static}/{total} = {rate:.1%}")
    gate("verdict signatures identical (on vs off)", on_sigs == off_sigs)
    if shadow_sigs is not None:
        gate("verdict signatures identical (shadow vs off)",
             shadow_sigs == off_sigs)

    # ---- 4. a cache-warm run: triage again, the cache for the rest -----
    with tempfile.TemporaryDirectory() as tmp:
        cold_sigs, cold_built, cold_static, _ = _run_all("on", cache_dir=tmp)
        warm_sigs, warm_built, warm_static, _ = _run_all("on", cache_dir=tmp)
        gate("cache-warm triage run builds zero solvers",
             warm_built == 0, f"built {warm_built}")
        gate("cache-warm verdicts identical to cold",
             warm_sigs == cold_sigs)
        gate("cache-warm run makes the same static claims",
             warm_static == cold_static,
             f"cold {cold_static}, warm {warm_static}")

    print()
    if _failures:
        print(f"FAILED: {len(_failures)} gate(s): {', '.join(_failures)}")
        return 1
    print("all triage gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
