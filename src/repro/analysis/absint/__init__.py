"""Abstract-interpretation obligation triage: the static proving tier.

A sound abstract interpreter over the verifier's own representations
that sits *between* the static-analysis gate and the obligation
scheduler.  Obligations whose goals follow from their path assumptions
under an interval × constant × congruence product report PROVED with
``answered_by == "static"`` — no SMT solver is ever constructed for
them and nothing is stored in the proof cache — and the residue flows
to the scheduler completely unchanged (same digests, same cache keys).

Layout:

* :mod:`.domains` — the three numeric domains and their reduced product;
* :mod:`.transfer` — the one interpreter: term-level transfer
  functions over :mod:`repro.smt.terms` plus the per-obligation
  entailment check the scheduler trusts (assumption-terms only: see
  the soundness note there).

Modes (``VerifyConfig.triage`` / ``REPRO_TRIAGE``):

* ``"on"`` — discharge statically-proved obligations without a solver;
* ``"off"`` — the tier never runs;
* ``"shadow"`` — run the tier *and* the solver on every obligation and
  raise :class:`TriageDisagreement` if the tier claimed an obligation
  the solver refuted.  The mechanical soundness check.
"""

from __future__ import annotations

from .domains import (Congruence, Const, Interval, Val, cmp_eq, cmp_le,
                      cmp_lt, euc_div, euc_mod)
from .transfer import MAX_PASSES, AbsEnv, build_env, entails

TRIAGE_MODES = ("on", "off", "shadow")


class TriageDisagreement(Exception):
    """Shadow mode found an obligation the tier claimed but the solver
    refuted — an abstract-interpretation soundness bug.  Fails loudly."""

    def __init__(self, fn_name: str, label: str):
        super().__init__(
            f"triage soundness violation: absint statically proved "
            f"{fn_name}: {label!r} but the solver refuted it "
            f"(REPRO_TRIAGE=shadow)")
        self.fn_name = fn_name
        self.label = label


class Triage:
    """Per-run triage state: the validated mode.

    ``check`` is the only entry point the scheduler calls; it inspects a
    single pending obligation (already planned, already translated) and
    decides whether the assumptions entail the goal.  Imprecision is
    always safe — a ``False`` just means the solver runs as before.
    """

    __slots__ = ("mode",)

    def __init__(self, mode: str = "on"):
        if mode not in TRIAGE_MODES:
            raise ValueError(f"triage mode must be one of {TRIAGE_MODES}, "
                             f"got {mode!r}")
        self.mode = mode

    def check(self, item) -> tuple[bool, int]:
        """``(claimed, fixpoint_passes)`` for one pending obligation."""
        if item.goal is None or item.direct_result is not None:
            return False, 0
        return entails(item.assumptions, item.goal)


def triage_preview(module, vc_config=None) -> dict:
    """Plan a module (no solver work) and report what the tier would do.

    Powers ``scripts/analyze_module.py --triage`` and the daemon's
    ``analyze`` verb.  Per function: obligation count, how many the
    scheduler's own entailment check (:meth:`Triage.check`) discharges,
    and how many the planner resolved directly.
    """
    from ...vc.wp import VcGen
    from ...vc import ast as A

    gen = VcGen(module, vc_config)
    triage = Triage("on")
    functions = []
    total = static = direct = errors = 0
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
    "AbsEnv", "Congruence", "Const", "Interval", "MAX_PASSES", "Triage",
    "TriageDisagreement", "TRIAGE_MODES", "Val", "build_env", "cmp_eq",
    "cmp_le", "cmp_lt", "entails", "euc_div", "euc_mod", "triage_preview",
]
