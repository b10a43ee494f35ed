"""Figure 7a: verification time for the linked-list millibenchmarks.

Paper result: Verus verifies the singly linked list 3–28× faster than the
other frameworks and the doubly linked list 24–61× faster; Prusti cannot
express the doubly linked list (cyclic pointers).
"""

import time

import pytest

from conftest import banner, record_solver, table
from repro.api import Session, VerifyConfig
from repro.baselines.pipelines import PIPELINES, time_pipeline
from repro.millibench.lists import (build_doubly_linked_module,
                                    build_singly_linked_module)

ORDER = ["verus", "creusot", "dafny", "fstar", "prusti", "ivy"]


def _measure(module):
    out = {}
    for name in ORDER:
        result, secs = time_pipeline(PIPELINES[name], module)
        if result is None:
            out[name] = (None, None, None)
        else:
            assert result.ok, f"{name}: {result.report()}"
            out[name] = (secs, result.query_bytes, result)
    return out


@pytest.fixture(scope="module")
def measurements():
    single = _measure(build_singly_linked_module())
    double = _measure(build_doubly_linked_module())
    return single, double


def test_fig7a_table(measurements, benchmark):
    single, double = measurements
    banner("Figure 7a: linked-list verification time (seconds)")
    rows = []
    for name in ORDER:
        s_secs = single[name][0]
        d_secs = double[name][0]
        rows.append([
            name,
            f"{s_secs:.2f}" if s_secs is not None else "n/a",
            f"{d_secs:.2f}" if d_secs is not None else "n/a",
            f"{single[name][1]}" if single[name][1] else "-",
            f"{double[name][1]}" if double[name][1] else "-",
        ])
    table(["tool", "single (s)", "double (s)", "single qbytes",
           "double qbytes"], rows)
    # shape: Verus verifies both, fastest or tied on wall clock,
    # and with the smallest queries (the §3.1 economy claim).
    v_single, v_single_q, _ = single["verus"]
    v_double, v_double_q, _ = double["verus"]
    for name in ("dafny", "fstar", "prusti"):
        if single[name][0] is not None:
            assert single[name][1] > v_single_q, f"{name} query not larger"
        if double[name][0] is not None:
            assert double[name][1] > v_double_q
    # Prusti cannot express the doubly linked list.
    assert double["prusti"][0] is None
    # Ivy rejects both (outside EPR), as in §4.1.2.
    assert single["ivy"][0] is None
    # Re-verify the single list under Verus as the timed benchmark sample.
    benchmark.pedantic(
        lambda: time_pipeline(PIPELINES["verus"], build_singly_linked_module()),
        rounds=1, iterations=1)


def test_fig7a_verus_not_slowest(measurements):
    single, double = measurements
    others_single = [v[0] for k, v in single.items()
                     if k != "verus" and v[0] is not None]
    others_double = [v[0] for k, v in double.items()
                     if k != "verus" and v[0] is not None]
    assert single["verus"][0] <= max(others_single)
    assert double["verus"][0] <= max(others_double)


def _time_session(builder):
    # Triage off: BENCH_solver.json's embedded baseline was
    # captured with every obligation on the solver path.
    t0 = time.perf_counter()
    result = Session(VerifyConfig(triage="off")).verify_module(builder())
    return result, time.perf_counter() - t0


def test_fig7a_solver_rows():
    """Solver-performance rows for the two lists (BENCH_solver.json).

    Every obligation is discharged on a fresh solver; the rows record
    best-of-3 wall clock (to damp scheduler noise), instantiations, query
    bytes and the pruning / E-matching counters, written by conftest at
    session end.  Repeats must agree on verdicts and query bytes.
    """
    banner("Figure 7a companion: solver rows (fresh solver per obligation)")
    rows = []
    for label, builder in [("single", build_singly_linked_module),
                           ("double", build_doubly_linked_module)]:
        f_secs = None
        qbytes = None
        for _ in range(3):
            fresh, f_s = _time_session(builder)
            f_secs = f_s if f_secs is None else min(f_secs, f_s)
            assert fresh.ok
            assert qbytes is None or fresh.query_bytes == qbytes
            qbytes = fresh.query_bytes
        record_solver(f"fig7a_{label}", f_secs, fresh.stats,
                      fresh.query_bytes)
        rows.append([label, f"{f_secs:.2f}",
                     fresh.stats.get("instantiations", 0), qbytes])
    table(["lists", "fresh (s)", "instantiations", "query bytes"], rows)
