"""Abstract-interpretation obligation triage: the static proving tier.

A sound abstract interpreter over the verifier's own representations
that sits *between* the static-analysis gate and the obligation
scheduler.  Obligations whose goals follow from their path assumptions
under an interval × constant × congruence product are discharged as
``STATIC_PROVED`` — no SMT solver is ever constructed for them — and
the residue flows to the scheduler completely unchanged (same digests,
same cache keys).

Layout:

* :mod:`.domains` — the three numeric domains and their reduced product;
* :mod:`.transfer` — term-level transfer functions over
  :mod:`repro.smt.terms` plus the per-obligation entailment check the
  scheduler trusts (assumption-terms only: see the soundness note
  there);
* :mod:`.engine` — an AST-level abstract interpreter mirroring
  :mod:`repro.vc.interp` semantics, with widening/narrowing loop
  fixpoints seeded from declared invariants; powers previews and the
  differential test harness.

Modes (``VerifyConfig.triage`` / ``REPRO_TRIAGE``):

* ``"on"`` — discharge statically-proved obligations without a solver;
* ``"off"`` — the tier never runs;
* ``"shadow"`` — run the tier *and* the solver on every obligation and
  raise :class:`TriageDisagreement` if the tier claimed an obligation
  the solver refuted.  The mechanical soundness check.
"""

from __future__ import annotations

from typing import Optional

from .domains import (BOT_VAL, CONG_BOT, CONG_TOP, CONST_BOT, CONST_TOP,
                      EMPTY_INTERVAL, FALSE_VAL, TOP_INTERVAL, TOP_VAL,
                      TRUE_VAL, Congruence, Const, Interval, Val, cmp_eq,
                      cmp_le, cmp_lt, euc_div, euc_mod)
from .engine import (AbsState, AbstractInterp, FunctionReport,
                     FunctionSummary, analyze_function, module_summaries,
                     type_range)
from .transfer import MAX_PASSES, AbsEnv, build_env, entails

TRIAGE_MODES = ("on", "off", "shadow")


class TriageDisagreement(Exception):
    """Shadow mode found an obligation the tier claimed but the solver
    refuted — an abstract-interpretation soundness bug.  Fails loudly."""

    def __init__(self, fn_name: str, label: str):
        super().__init__(
            f"triage soundness violation: absint claimed STATIC_PROVED on "
            f"{fn_name}: {label!r} but the solver refuted it "
            f"(REPRO_TRIAGE=shadow)")
        self.fn_name = fn_name
        self.label = label


class Triage:
    """Per-run triage state: mode + counters.

    ``check`` is the only entry point the scheduler calls; it inspects a
    single pending obligation (already planned, already translated) and
    decides whether the assumptions entail the goal.  Imprecision is
    always safe — a ``False`` just means the solver runs as before.
    """

    __slots__ = ("mode", "checked", "claimed", "fixpoint_iters")

    def __init__(self, mode: str = "on"):
        if mode not in TRIAGE_MODES:
            raise ValueError(f"triage mode must be one of {TRIAGE_MODES}, "
                             f"got {mode!r}")
        self.mode = mode
        self.checked = 0
        self.claimed = 0
        self.fixpoint_iters = 0

    @property
    def active(self) -> bool:
        return self.mode != "off"

    def check(self, item) -> tuple[bool, int]:
        """``(claimed, fixpoint_passes)`` for one pending obligation."""
        if item.goal is None or item.direct_result is not None:
            return False, 0
        self.checked += 1
        proved, passes = entails(item.assumptions, item.goal)
        self.fixpoint_iters += passes
        if proved:
            self.claimed += 1
        return proved, passes


def triage_preview(module, vc_config=None) -> dict:
    """Plan a module (no solver work) and report what the tier would do.

    Powers ``scripts/analyze_module.py --triage`` and the daemon's
    ``analyze`` verb.  Per function: obligation count, how many the
    entailment check discharges, how many the planner resolved directly,
    plus the AST engine's loop fixpoint iterations.
    """
    from ...vc.wp import VcGen
    from ...vc import ast as A

    gen = VcGen(module, vc_config)
    triage = Triage("on")
    functions = []
    total = static = direct = errors = 0
    summaries = None
    try:
        summaries = module_summaries(module)
    except Exception:
        summaries = None
    for name, fn in module.functions.items():
        if fn.mode not in (A.EXEC, A.PROOF) or fn.body is None:
            continue
        entry: dict = {"function": name}
        try:
            plan = gen.plan_function(fn)
        except Exception as err:
            entry["error"] = f"{type(err).__name__}: {err}"
            errors += 1
            functions.append(entry)
            continue
        fn_total = len(plan.pending)
        fn_static = fn_direct = 0
        for item in plan.pending:
            if item.direct_result is not None:
                fn_direct += 1
                continue
            claimed, _ = triage.check(item)
            if claimed:
                fn_static += 1
        entry["obligations"] = fn_total
        entry["static_proved"] = fn_static
        entry["direct"] = fn_direct
        try:
            report = analyze_function(module, fn, summaries)
            entry["fixpoint_iters"] = report.loop_iters
        except Exception:
            entry["fixpoint_iters"] = None
        total += fn_total
        static += fn_static
        direct += fn_direct
        functions.append(entry)
    return {
        "module": module.name,
        "obligations": total,
        "static_proved": static,
        "direct": direct,
        "plan_errors": errors,
        "rate": (static / total) if total else 0.0,
        "functions": functions,
    }


__all__ = [
    "AbsEnv", "AbsState", "AbstractInterp", "Congruence", "Const",
    "FunctionReport", "FunctionSummary", "Interval", "MAX_PASSES",
    "Triage", "TriageDisagreement", "TRIAGE_MODES", "Val",
    "analyze_function", "build_env", "cmp_eq", "cmp_le", "cmp_lt",
    "entails", "euc_div", "euc_mod", "module_summaries", "triage_preview",
    "type_range",
]
