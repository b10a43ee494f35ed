"""Shared helpers for the figure-reproduction benchmarks.

Every file in this directory regenerates one table or figure from the
paper's evaluation (§4).  Absolute numbers come from a Python stack on
container hardware, so they are not comparable to the paper's; each
benchmark therefore *prints* the paper-style rows and *asserts the shape*
(who wins, monotonicity, crossover positions).

Set ``REPRO_FULL=1`` to run the paper-scale parameter sweeps; the default
sizes keep the whole directory comfortably runnable.
"""

import json
import os
import sys

_SRC = os.path.join(os.path.dirname(__file__), "..", "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

FULL = os.environ.get("REPRO_FULL") == "1"

_CAPMAN = []
_side_started = False
_SIDE_FILE = os.path.join(os.path.dirname(__file__), "..",
                          "bench_figures.txt")
_INCR_FILE = os.path.join(os.path.dirname(__file__), "..",
                          "BENCH_incremental.json")
_INCR_ROWS: list = []
_SOLVER_FILE = os.path.join(os.path.dirname(__file__), "..",
                            "BENCH_solver.json")
_SOLVER_ROWS: list = []
_CACHE_TIERS_FILE = os.path.join(os.path.dirname(__file__), "..",
                                 "BENCH_cache_tiers.json")
_CACHE_TIERS_ROWS: list = []

# Pre-PR solver numbers for the same four workloads (captured with the
# command below before the incremental E-matching / fired-set / context
# pruning pass landed), so BENCH_solver.json is self-contained: the
# aggregate instantiation-count and query-byte reductions are read off
# against this block.
_SOLVER_BASELINE = {
    "rows": [
        {"benchmark": "fig7a_single", "fresh_seconds": 0.1517,
         "warm_seconds": 0.0744, "instantiations": 140,
         "query_bytes": 162941},
        {"benchmark": "fig7a_double", "fresh_seconds": 0.4529,
         "warm_seconds": 0.376, "instantiations": 292,
         "query_bytes": 207229},
        {"benchmark": "fig10_delegation_map", "fresh_seconds": 0.7514,
         "warm_seconds": 0.6254, "instantiations": 436,
         "query_bytes": 312167},
        {"benchmark": "fig10_marshal", "fresh_seconds": 0.4197,
         "warm_seconds": 0.4081, "instantiations": 160,
         "query_bytes": 119843},
    ],
    "total_fresh_seconds": 1.7757,
    "total_warm_seconds": 1.4839,
    "total_instantiations": 1028,
    "total_query_bytes": 802180,
}


def pytest_configure(config):
    # No output file is deleted here: a session rewrites only the files
    # it produced rows for, so a partial run keeps every other baseline.
    _CAPMAN.append(config.pluginmanager.getplugin("capturemanager"))


def record_incremental(label: str, fresh_secs: float,
                       warm_secs: float) -> None:
    """Record one fresh-vs-warm wall-clock pair for BENCH_incremental.json.

    Benchmarks that compare a fresh-solver run against a warm-context
    (``incremental=True``) run call this; the accumulated comparison is
    written once at session end.
    """
    _INCR_ROWS.append({
        "benchmark": label,
        "fresh_seconds": round(fresh_secs, 4),
        "warm_seconds": round(warm_secs, 4),
        "speedup": round(fresh_secs / warm_secs, 3) if warm_secs else None,
    })


def record_solver(label: str, fresh_secs: float, warm_secs: float,
                  stats: dict, query_bytes: int) -> None:
    """Record one solver-performance row for BENCH_solver.json.

    ``fresh_secs``/``warm_secs`` should be best-of-N wall-clock (the
    caller times the repeats); ``stats`` is the merged Stats snapshot of
    the fresh run, from which instantiation counts and the pruning
    counters are read.
    """
    _SOLVER_ROWS.append({
        "benchmark": label,
        "fresh_seconds": round(fresh_secs, 4),
        "warm_seconds": round(warm_secs, 4),
        "warm_speedup": round(fresh_secs / warm_secs, 3)
        if warm_secs else None,
        "instantiations": stats.get("instantiations", 0),
        "query_bytes": query_bytes,
        "pruned_axioms": stats.get("pruned_axioms", 0),
        "query_bytes_saved": stats.get("query_bytes_saved", 0),
        "ematch_index_hits": stats.get("ematch_index_hits", 0),
        "ematch_rescans_avoided": stats.get("ematch_rescans_avoided", 0),
        "fired_set_hits": stats.get("fired_set_hits", 0),
        "congruent_skips": stats.get("congruent_skips", 0),
    })


def record_cache_tier(label: str, payload: dict) -> None:
    """Record one tiered-cache row for BENCH_cache_tiers.json.

    ``payload`` carries whatever the benchmark measured (per-tier
    warm-hit latency); rows are written once at session end.
    """
    _CACHE_TIERS_ROWS.append({"benchmark": label, **payload})


def pytest_sessionfinish(session, exitstatus):
    if _INCR_ROWS:
        fresh = sum(r["fresh_seconds"] for r in _INCR_ROWS)
        warm = sum(r["warm_seconds"] for r in _INCR_ROWS)
        payload = {
            "description": "fresh-solver vs warm-context "
                           "(incremental=True) verification wall-clock",
            "rows": _INCR_ROWS,
            "total_fresh_seconds": round(fresh, 4),
            "total_warm_seconds": round(warm, 4),
            "total_speedup": round(fresh / warm, 3) if warm else None,
        }
        with open(_INCR_FILE, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if _SOLVER_ROWS:
        fresh = sum(r["fresh_seconds"] for r in _SOLVER_ROWS)
        warm = sum(r["warm_seconds"] for r in _SOLVER_ROWS)
        insts = sum(r["instantiations"] for r in _SOLVER_ROWS)
        qbytes = sum(r["query_bytes"] for r in _SOLVER_ROWS)
        payload = {
            "description": "Profile-driven solver pass: per-workload "
                           "wall clock (best-of-N), quantifier "
                           "instantiations, and query bytes, against "
                           "the pre-PR baseline below.",
            "command": "PYTHONPATH=src python -m pytest "
                       "benchmarks/test_fig7a_lists.py "
                       "benchmarks/test_fig10_ironkv.py -q",
            "rows": _SOLVER_ROWS,
            "total_fresh_seconds": round(fresh, 4),
            "total_warm_seconds": round(warm, 4),
            "total_instantiations": insts,
            "total_query_bytes": qbytes,
            "baseline": _SOLVER_BASELINE,
            "instantiations_reduced": insts
            < _SOLVER_BASELINE["total_instantiations"],
            "query_bytes_reduced": qbytes
            < _SOLVER_BASELINE["total_query_bytes"],
        }
        with open(_SOLVER_FILE, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if _CACHE_TIERS_ROWS:
        payload = {
            "description": "Tiered proof cache: warm-hit latency per "
                           "tier (memory / disk).",
            "command": "PYTHONPATH=src python -m pytest "
                       "benchmarks/test_cache_tiers_bench.py -q",
            "rows": _CACHE_TIERS_ROWS,
        }
        with open(_CACHE_TIERS_FILE, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def _emit(line: str) -> None:
    """Emit a regenerated-figure line past pytest's fd-level capture, so it
    appears in `pytest benchmarks/ --benchmark-only | tee bench_output.txt`
    (and, belt-and-braces, in bench_figures.txt)."""
    global _side_started
    if _CAPMAN and _CAPMAN[0] is not None:
        with _CAPMAN[0].global_and_fixture_disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()
    else:
        sys.stdout.write(line + "\n")
        sys.stdout.flush()
    # The first line this session emits truncates the side file.
    with open(_SIDE_FILE, "a" if _side_started else "w") as fh:
        fh.write(line + "\n")
    _side_started = True


def emit(line: str) -> None:
    _emit(line)


def banner(title: str) -> None:
    _emit(f"\n=== {title} " + "=" * max(0, 66 - len(title)))


def table(headers, rows) -> None:
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows
              else len(str(h)) for i, h in enumerate(headers)]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    _emit(line)
    _emit("-" * len(line))
    for r in rows:
        _emit("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
