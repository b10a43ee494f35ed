"""The one discharge path: assert a planned query, check it, classify.

Under the paper's §3.1 query economy each obligation is a small,
self-contained query — the pruned context axioms, the path assumptions
and the negated goal, in solver ``add`` order.  Every place that solves
one (the scheduler's main pass, worker processes, escalation attempts,
and failure diagnosis) builds its solver through :func:`build_solver`, and every
verdict-producing discharge goes through :func:`solve`.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ..smt.solver import SmtSolver, SolverConfig
from .errors import PROVED, RESOURCE_OUT, TIMEOUT, status_from_solver


def build_solver(config: SolverConfig, assertions: Sequence,
                 incremental: bool = False) -> SmtSolver:
    """A fresh solver under ``config`` with ``assertions`` added."""
    solver = SmtSolver(config, incremental=incremental)
    for a in assertions:
        solver.add(a)
    return solver


def classify(solver: SmtSolver, verdict: str, stats: dict) -> str:
    """Map one ``check()`` verdict to an obligation status, flagging the
    wall-clock (``deadline_exceeded``) and budget (``resource_out``)
    artefacts in ``stats``.  A deadline verdict is machine-dependent and
    is reported as TIMEOUT, never stored."""
    if solver.last_deadline_exceeded:
        stats["deadline_exceeded"] = 1
        return TIMEOUT
    status = status_from_solver(verdict, solver)
    if status == RESOURCE_OUT:
        stats["resource_out"] = 1
    return status


def solve(configs: Sequence[SolverConfig], assertions: Sequence,
          timeout: Optional[float] = None) -> tuple:
    """Discharge ``assertions`` under each config in turn, stopping at
    the first PROVED; ``(status, stats, query_bytes, seconds)``.

    ``query_bytes`` sums every attempt; ``status`` and ``stats`` are the
    last attempt's.  ``timeout`` is a soft wall-clock budget for the
    whole obligation's solving, shared by its attempts and enforced
    *inside* the solver (the CDCL loop checks the clock between conflict
    batches and gives up cleanly), so it holds in worker processes and
    in-process alike.
    """
    t0 = time.perf_counter()
    left = timeout
    qbytes = 0
    for config in configs:
        solver = build_solver(config, assertions)
        verdict = solver.check(timeout=left)
        stats = solver.stats.snapshot()
        status = classify(solver, verdict, stats)
        qbytes += solver.stats.query_bytes
        if status == PROVED or stats.get("deadline_exceeded"):
            break
        if left is not None:
            left = max(0.0, left - solver.stats.solve_seconds)
    return status, stats, qbytes, time.perf_counter() - t0
