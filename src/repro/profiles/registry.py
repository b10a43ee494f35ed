"""Named automation profiles: the verification dial, not a switch.

"Tunable Automation in Automated Program Verification" (Bai,
Hawblitzel, Lattuada) argues that SMT automation should be exposed as a
*dial*: different obligations want different trigger policies, context
pruning, quantifier-instantiation machinery, and step budgets.  An
:class:`AutomationProfile` is one detent on that dial — a frozen bundle
of solver knobs (:class:`~repro.smt.solver.SolverConfig` overrides),
context-pruning aggressiveness (``vc/prune.py``), E-matching-vs-MBQI
preference, and the conjunct-splitting strategy the retry ladder may
use — plus the run-level defaults (retry attempts, static triage) a
:class:`~repro.api.VerifyConfig` collapses into when the corresponding
field is left unset.

Semantics that the rest of the pipeline depends on:

* **Identity of ``default``** — every solver-facing field of the
  ``default`` profile is ``None`` ("inherit"), and
  :meth:`AutomationProfile.apply_solver` returns the *same* config
  object when it has nothing to override.  Digests and cache keys
  under the default profile are therefore byte-identical to a build
  without profiles at all.

* **Digest keying** — a non-default profile overrides real
  ``SolverConfig`` attributes, and every attribute participates in
  :func:`repro.smt.fingerprint.solver_config_key`, so the proof cache
  automatically keys entries on the *effective* profile: two profiles
  never share a cache entry for the same query text.

* **Escalation** — the retry ladder's rungs raise the budgets of each
  discharge config (:func:`escalate_config`): every resource budget
  doubles and the step budget quadruples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..smt.quant import BROAD, CONSERVATIVE
from ..smt.solver import SolverConfig

__all__ = ["AutomationProfile", "UnknownProfileError", "PROFILES",
           "RACE_ORDER", "get_profile", "profile_names",
           "portfolio_candidates", "escalate_config"]

#: SolverConfig attributes a profile may override (None = inherit).
_SOLVER_FIELDS = ("trigger_policy", "max_rounds", "max_instantiations",
                  "mbqi", "mbqi_max_universe", "sat_conflict_budget",
                  "nonlinear", "max_steps")

#: Splitting strategies: "ladder" lets the retry ladder's split rung
#: re-prove a stubborn conjunctive goal piecewise; "off" skips that rung
#: (frugal runs should not quietly multiply their query count).
SPLIT_STRATEGIES = ("ladder", "off")


class UnknownProfileError(ValueError):
    """An unrecognized profile name (surfaces the known ones)."""

    def __init__(self, name):
        self.name = name
        super().__init__(
            f"unknown automation profile {name!r} "
            f"(available: {', '.join(profile_names())})")


@dataclass(frozen=True)
class AutomationProfile:
    """One named detent on the automation dial.

    Solver-facing fields mirror :class:`~repro.smt.solver.SolverConfig`
    attributes; ``None`` means "inherit whatever the VcConfig/solver
    default is".  ``prune_context`` overrides
    :class:`~repro.vc.wp.VcConfig.prune_context` the same way.

    ``default_retries`` / ``default_triage`` are the *run-level*
    defaults this profile implies; an explicit
    :class:`~repro.api.VerifyConfig` field always wins over them.
    """

    name: str
    doc: str = ""
    # --- solver knobs (None = inherit) ---------------------------------
    trigger_policy: Optional[str] = None
    max_rounds: Optional[int] = None
    max_instantiations: Optional[int] = None
    mbqi: Optional[bool] = None
    mbqi_max_universe: Optional[int] = None
    sat_conflict_budget: Optional[int] = None
    nonlinear: Optional[bool] = None
    max_steps: Optional[int] = None
    # --- VC-generation knobs -------------------------------------------
    prune_context: Optional[bool] = None
    split_strategy: str = "ladder"
    # --- run-level defaults (explicit VerifyConfig fields win) ---------
    default_retries: int = 0
    # Static proving tier (repro.analysis.absint): whether obligations
    # entailed by their path assumptions under the interval/constant/
    # congruence product are discharged with no solver.  Off for the
    # bitvector and epr detents, whose goals live outside the tier's
    # integer-arithmetic fragment anyway.
    default_triage: bool = True

    def __post_init__(self):
        if self.split_strategy not in SPLIT_STRATEGIES:
            raise ValueError(f"split_strategy must be one of "
                             f"{SPLIT_STRATEGIES}, got "
                             f"{self.split_strategy!r}")

    def solver_overrides(self) -> dict:
        """The non-``None`` SolverConfig overrides, by attribute name."""
        return {f: getattr(self, f) for f in _SOLVER_FIELDS
                if getattr(self, f) is not None}

    def apply_solver(self, cfg: SolverConfig) -> SolverConfig:
        """``cfg`` with this profile's solver knobs layered on a copy.

        Returns ``cfg`` itself (same object) when there is nothing to
        override, so the ``default`` profile never perturbs digests or
        shared-config identity.
        """
        overrides = self.solver_overrides()
        if not overrides or all(
                getattr(cfg, k) == v for k, v in overrides.items()):
            return cfg
        out = SolverConfig(**vars(cfg))
        for k, v in overrides.items():
            setattr(out, k, v)
        return out

    def describe(self) -> dict:
        """JSON-able summary (the server's ``profiles`` verb payload)."""
        return {"name": self.name, "doc": self.doc,
                "solver": self.solver_overrides(),
                "prune_context": self.prune_context,
                "split_strategy": self.split_strategy,
                "default_retries": self.default_retries,
                "default_triage": self.default_triage}


def escalate_config(cfg: SolverConfig) -> SolverConfig:
    """A copy of ``cfg`` with every resource budget raised — the
    ladder's ``escalate`` and ``split`` rungs trade more work for a
    chance of discharging a goal that blew its budget."""
    boosted = SolverConfig(**vars(cfg))
    boosted.max_rounds *= 2
    boosted.max_instantiations *= 2
    boosted.sat_conflict_budget *= 2
    if boosted.max_steps is not None:
        boosted.max_steps *= 4
    return boosted


#: The shipped dial detents.  ``default`` is a strict identity; the
#: others override real SolverConfig attributes and therefore key their
#: own cache entries.
PROFILES: dict[str, AutomationProfile] = {p.name: p for p in (
    AutomationProfile(
        name="default",
        doc="Verus defaults: conservative triggers, E-matching, stock "
            "budgets.  Byte-identical to a profile-free run."),
    AutomationProfile(
        name="frugal",
        doc="Minimal automation for fast, predictable feedback: small "
            "round/instantiation/conflict budgets, a hard step budget, "
            "no ladder conjunct splitting.",
        max_rounds=24,
        max_instantiations=1500,
        sat_conflict_budget=100000,
        max_steps=200000,
        split_strategy="off"),
    AutomationProfile(
        name="aggressive",
        doc="Maximal E-matching automation: broad trigger selection over "
            "the full (unpruned) context with 4x round/instantiation/"
            "conflict budgets; one ladder retry by default.",
        trigger_policy=BROAD,
        max_rounds=240,
        max_instantiations=24000,
        sat_conflict_budget=1600000,
        prune_context=False,
        default_retries=1),
    AutomationProfile(
        name="nonlinear",
        doc="Nonlinear-arithmetic obligations: the nonlinear theory "
            "extension plus doubled budgets (mul/div/mod goals need "
            "longer saturation runs).",
        nonlinear=True,
        max_rounds=120,
        max_instantiations=12000,
        sat_conflict_budget=800000),
    AutomationProfile(
        name="bitvector",
        doc="Bit-manipulation obligations: conservative triggers with a "
            "large SAT conflict budget for bit-blasted cores and few "
            "quantifier rounds.",
        trigger_policy=CONSERVATIVE,
        max_rounds=30,
        max_instantiations=2000,
        sat_conflict_budget=1600000,
        default_triage=False),
    AutomationProfile(
        name="epr",
        doc="Finite-model quantifier reasoning: MBQI over the ground "
            "universe instead of syntactic E-matching, for goals whose "
            "triggers never match.",
        mbqi=True,
        mbqi_max_universe=9,
        default_triage=False),
)}

#: Deterministic candidate order for portfolio races: most-different
#: automation first (aggressive E-matching, then MBQI, then frugal),
#: so narrow race widths still cover the biggest strategy gaps.
RACE_ORDER = ("aggressive", "epr", "nonlinear", "bitvector", "frugal",
              "default")


def get_profile(name) -> AutomationProfile:
    """Look up a profile by name (an ``AutomationProfile`` passes
    through); raises :class:`UnknownProfileError` otherwise."""
    if isinstance(name, AutomationProfile):
        return name
    profile = PROFILES.get(name)
    if profile is None:
        raise UnknownProfileError(name)
    return profile


def profile_names() -> tuple:
    return tuple(PROFILES)


def portfolio_candidates(primary, width: int) -> tuple:
    """The race lineup for one stubborn obligation: the first ``width``
    profiles of :data:`RACE_ORDER` that differ from ``primary``.

    Deterministic by construction — candidate order (not completion
    order) breaks every tie, so serial and parallel races always elect
    the same winner.
    """
    primary_name = get_profile(primary).name
    if width <= 0:
        return ()
    picked = [n for n in RACE_ORDER if n != primary_name]
    return tuple(picked[:max(0, int(width))])
