"""The layer entry points a traced run wraps, and the per-layer metrics.

Each per-layer metric is normalised to one unit of work: a pass over the
module set on the cold workloads, and a block of the request stream
(:data:`workloads.BLOCK_MIX` requests per module) on ``edit_daemon``.
Self times exclude child spans, so the ``*.self_s`` metrics of one run
add up to the traced wall time that the spans cover.
"""

from __future__ import annotations

from workloads import COLD_IDIOM, COLD_SMT

# EufSolver methods that change or explain the e-graph.  Its read-only
# queries (find, are_equal, class_of, ...) run inside the solver's
# innermost loops; timing each of them would cost more than the work,
# so their time shows up as solver.self_s instead.
EUF_METHODS = ("push", "pop", "commit", "add_term", "assert_eq", "flush",
               "assert_neq", "explain")

SERVER_PATHS = ("cold", "cache", "warm", "delta", "journal")


class Claims:
    """Counts the obligations ``Triage.check`` claims.  ModuleResult's
    ``static_proved`` also counts static verdicts replayed from the
    proof cache and the delta cache, so it cannot say what triage did."""

    def __init__(self):
        self._hits: list = []       # list.append is atomic across threads

    def record(self, result) -> None:
        if result[0]:
            self._hits.append(1)

    @property
    def count(self) -> int:
        return len(self._hits)


def targets(claims: Claims) -> list:
    """``(owner, attribute, span name[, options])`` for every timed entry
    point; ``claims`` counts what triage discharges."""
    from repro import analysis, diag
    from repro.analysis.absint import Triage
    from repro.cache.store import ProofCache
    from repro.cache.tiers import TieredProofCache
    from repro.smt.bitvec import BitBlaster
    from repro.smt.euf import EufSolver
    from repro.smt.lia import LiaSolver
    from repro.smt.quant import EMatcher
    from repro.smt.sat import SatSolver
    from repro.smt.solver import SmtSolver
    from repro.vc import delta, wp
    from repro.vc.scheduler import Scheduler
    out = [
        (analysis, "analyze_module", "analysis"),
        (wp.VcGen, "plan_function", "plan"),
        (delta, "function_dependency_digest", "delta.digest"),
        (delta.DeltaCache, "lookup", "delta.lookup"),
        (delta.DeltaCache, "store", "delta.store"),
        (Scheduler, "run_module", "scheduler"),
        (Triage, "check", "absint", {"on_return": claims.record}),
        (ProofCache, "lookup", "cache.lookup"),
        (ProofCache, "store", "cache.store"),
        (TieredProofCache, "lookup", "cache.lookup"),
        (TieredProofCache, "store", "cache.store"),
        (SmtSolver, "check", "solver"),
        (SatSolver, "solve", "sat"),
        (LiaSolver, "check", "lia"),
        (EMatcher, "match_group", "ematch"),
        (BitBlaster, "blit", "bitvec.blast"),
        (wp, "bv_check_sat", "bitvec"),
        (wp, "prove_by_compute", "compute"),
        (wp, "prove_nonlinear", "nonlinear"),
        (wp, "prove_ring", "ring"),
        (diag, "diagnose_obligation", "diag"),
    ]
    out += [(EufSolver, name, "euf") for name in EUF_METHODS]
    return out


def server_target() -> tuple:
    """The daemon's per-request entry point.  Its span is the root of a
    worker thread's spans; it claims the client's request span as its
    parent through the request id."""
    from repro.server.daemon import VerifyServer
    return (VerifyServer, "_process", "server.process",
            {"parent_key": lambda args, kwargs: args[1].request["id"]})


# name -> unit, in report order.
PER_LAYER = {
    "analysis.calls": "count", "analysis.self_s": "s",
    "plan.calls": "count", "plan.self_s": "s",
    "smt.query_bytes": "bytes",
    "delta.digest_self_s": "s", "delta.lookups": "count",
    "delta.hit_ratio": "ratio",
    "scheduler.self_s": "s",
    "absint.checks": "count", "absint.claims": "count",
    "absint.claim_ratio": "ratio", "absint.self_s": "s",
    "smt.solver_constructions": "count",
    "cache.lookups": "count", "cache.lookup_self_s": "s",
    "cache.stores": "count", "cache.store_self_s": "s",
    "cache.hit_ratio": "ratio", "cache.mem_hits": "count",
    "cache.disk_hits": "count",
    "solver.checks": "count", "solver.self_s": "s",
    "smt.instantiations": "count", "smt.mbqi_instantiations": "count",
    "smt.conflicts": "count",
    "sat.calls": "count", "sat.self_s": "s",
    "euf.self_s": "s", "lia.self_s": "s",
    "ematch.calls": "count", "ematch.self_s": "s",
    "bitvec.calls": "count", "bitvec.blast_self_s": "s",
    "compute.self_s": "s", "nonlinear.self_s": "s", "ring.self_s": "s",
    "diag.calls": "count", "diag.self_s": "s", "reject.timeouts": "count",
    "server.queued_ms_p95": "ms", "server.overhead_ms_p50": "ms",
    "server.warm_hit_ratio": "ratio",
    **{f"server.paths.{p}": "share" for p in SERVER_PATHS},
    "traced.delta_p50_ms": "ms", "traced.replan_p50_ms": "ms",
    "traced.edit_p50_ms": "ms", "traced.reject_p50_ms": "ms",
    "traced.request_p95_ms": "ms",
    **{f"module.{spec.name}.{key}": unit
       for spec in COLD_SMT + COLD_IDIOM
       for key, unit in (("verify_s", "s"), ("query_bytes", "bytes"))},
    "trace.uncovered_share": "ratio", "trace.overhead_s": "s",
}

# Counters summed from ModuleResult.stats.  The runners add query bytes
# and solver constructions themselves: the first is a ModuleResult
# property, the second a per-thread counter of repro.smt.solver.
STAT_COUNTERS = ("instantiations", "mbqi_instantiations", "conflicts",
                 "cache_hits", "cache_misses", "mem_hits", "disk_hits",
                 "delta_skips", "deadline_exceeded")


def add_counters(into: dict, stats: dict, query_bytes: int,
                 solvers: int) -> None:
    into["query_bytes"] = into.get("query_bytes", 0) + query_bytes
    into["solver_constructions"] = (into.get("solver_constructions", 0)
                                    + solvers)
    for key in STAT_COUNTERS:
        into[key] = into.get(key, 0) + int(stats.get(key, 0) or 0)


def per_layer_metrics(totals: dict, counters: dict, claims: int,
                      units: float, extra: dict) -> dict:
    """Every :data:`PER_LAYER` metric; ``extra`` supplies the server,
    traced-latency, per-module and trace rows (0 where a workload has
    no such row)."""
    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0) / units

    def per_unit(value):
        return value / units

    def ratio(num, den):
        return num / den if den else 0.0

    c = counters
    m = {
        "analysis.calls": per_unit(calls("analysis")),
        "analysis.self_s": self_s("analysis"),
        "plan.calls": per_unit(calls("plan")),
        "plan.self_s": self_s("plan"),
        "smt.query_bytes": per_unit(c["query_bytes"]),
        "delta.digest_self_s": self_s("delta.digest"),
        "delta.lookups": per_unit(calls("delta.lookup")),
        "delta.hit_ratio": ratio(c["delta_skips"], calls("delta.lookup")),
        "scheduler.self_s": self_s("scheduler"),
        "absint.checks": per_unit(calls("absint")),
        "absint.claims": per_unit(claims),
        "absint.claim_ratio": ratio(claims, calls("absint")),
        "absint.self_s": self_s("absint"),
        "smt.solver_constructions": per_unit(c["solver_constructions"]),
        "cache.lookups": per_unit(calls("cache.lookup")),
        "cache.lookup_self_s": self_s("cache.lookup"),
        "cache.stores": per_unit(calls("cache.store")),
        "cache.store_self_s": self_s("cache.store"),
        "cache.hit_ratio": ratio(c["cache_hits"],
                                 c["cache_hits"] + c["cache_misses"]),
        "cache.mem_hits": per_unit(c["mem_hits"]),
        "cache.disk_hits": per_unit(c["disk_hits"]),
        "solver.checks": per_unit(calls("solver")),
        "solver.self_s": self_s("solver"),
        "smt.instantiations": per_unit(c["instantiations"]),
        "smt.mbqi_instantiations": per_unit(c["mbqi_instantiations"]),
        "smt.conflicts": per_unit(c["conflicts"]),
        "sat.calls": per_unit(calls("sat")),
        "sat.self_s": self_s("sat"),
        "euf.self_s": self_s("euf"),
        "lia.self_s": self_s("lia"),
        "ematch.calls": per_unit(calls("ematch")),
        "ematch.self_s": self_s("ematch"),
        "bitvec.calls": per_unit(calls("bitvec")),
        "bitvec.blast_self_s": self_s("bitvec.blast"),
        "compute.self_s": self_s("compute"),
        "nonlinear.self_s": self_s("nonlinear"),
        "ring.self_s": self_s("ring"),
        "diag.calls": per_unit(calls("diag")),
        "diag.self_s": self_s("diag"),
        "reject.timeouts": per_unit(c["deadline_exceeded"]),
    }
    for name in PER_LAYER:
        if name not in m:
            m[name] = extra.get(name, 0.0)
    unknown = set(extra) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics outside PER_LAYER: {sorted(unknown)}")
    return {name: m[name] for name in PER_LAYER}
