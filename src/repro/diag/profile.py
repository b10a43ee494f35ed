"""Quantifier-instantiation profiler — the ``--profile`` of Verus/Z3.

Slow or flaky proofs are usually quantifier storms: one badly triggered
axiom instantiating itself thousands of times.  The solver records every
instantiation in ``Stats.inst_profile`` as
``{quantifier label: {trigger label: count}}`` (MBQI instantiations use
the reserved trigger label ``"<mbqi>"``); this module aggregates that
raw profile into the top-k table users act on.
"""

from __future__ import annotations

from ..smt.solver import SmtSolver

MBQI_TRIGGER = SmtSolver.MBQI_TRIGGER


def top_instantiations(inst_profile: dict, k: int = 5) -> list[dict]:
    """Top-k ``{"quantifier", "trigger", "count", "mechanism"}`` rows.

    One row per (quantifier, trigger) pair, ordered by count descending
    (ties broken textually for determinism).  ``mechanism`` is
    ``"e-matching"`` or ``"mbqi"``.
    """
    rows = []
    for quant, per in inst_profile.items():
        for trigger, count in per.items():
            mech = "mbqi" if trigger == MBQI_TRIGGER else "e-matching"
            rows.append({"quantifier": quant,
                         "trigger": "" if mech == "mbqi" else trigger,
                         "count": count, "mechanism": mech})
    rows.sort(key=lambda r: (-r["count"], r["quantifier"], r["trigger"]))
    return rows[:k]


def profile_table(rows: list[dict]) -> str:
    """Render top-k rows as an aligned text table."""
    if not rows:
        return "(no quantifier instantiations)"
    lines = []
    width = max(len(str(r["count"])) for r in rows)
    for r in rows:
        via = r["mechanism"] if r["mechanism"] == "mbqi" \
            else f"e-matching on {r['trigger']}"
        lines.append(f"{r['count']:>{width}} × {r['quantifier']}  "
                     f"[{via}]")
    return "\n".join(lines)


def module_profile(result, k: int = 10) -> list[dict]:
    """Top-k rows for a whole :class:`~repro.vc.errors.ModuleResult`
    (the scheduler merges every obligation's profile into
    ``result.stats["inst_profile"]``)."""
    return top_instantiations(result.stats.get("inst_profile") or {}, k)


# The matcher/pruning counters the profile-driven solver pass added to
# Stats, with the units a profile reader needs to interpret them.
PERF_COUNTERS = (
    ("instantiations", "quantifier instances asserted"),
    ("ematch_index_hits", "match calls served by the apps-by-decl index"),
    ("ematch_rescans_avoided", "match calls skipped at the watermark"),
    ("fired_set_hits", "matches skipped by the fired-set memo"),
    ("congruent_skips", "instances skipped as congruent duplicates"),
    ("pruned_axioms", "context axioms dropped before encoding"),
    ("query_bytes_saved", "query bytes those axioms would have cost"),
    ("static_proved", "obligations discharged by the absint triage tier"),
    ("absint_fixpoint_iters", "abstract-interpretation fixpoint passes"),
    ("solver_constructions_avoided", "solvers never built thanks to triage"),
    ("mem_hits", "cache lookups answered by the in-memory LRU tier"),
    ("disk_hits", "cache lookups answered by the on-disk tier"),
    ("quarantined", "cache entries rejected at a tier boundary"),
)


def perf_summary(stats: dict) -> str:
    """Render the solver-performance counters of a stats snapshot.

    Complements :func:`profile_table`: the QI table says *which*
    quantifiers fired, this says how much matching and encoding work the
    incremental machinery avoided.
    """
    width = max(len(name) for name, _ in PERF_COUNTERS)
    return "\n".join(f"{name:<{width}}  {stats.get(name, 0):>8}  ({note})"
                     for name, note in PERF_COUNTERS)


def module_perf_summary(result) -> str:
    """:func:`perf_summary` over a whole ModuleResult's merged stats."""
    return perf_summary(result.stats or {})
