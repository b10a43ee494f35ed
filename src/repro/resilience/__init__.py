"""Resilience layer: fault injection, resource guards, crash recovery.

Verification as *practical infrastructure* (the paper's framing) has to
survive the failures real fleets see: runaway quantifier instantiation,
worker crashes, corrupted cache entries, and killed runs.  This package
holds the pieces that are independent of any one pipeline stage:

* :mod:`.faults` — a deterministic, seeded :class:`FaultPlan` arming
  named fault points across the solver, scheduler, cache, and simulated
  network (``REPRO_FAULT_PLAN``).

The remaining resilience machinery lives where it must: resource
budgets in ``smt/solver.py`` (``RESOURCE_OUT`` verdicts), the retry
escalation ladder in ``vc/scheduler.py``, retransmission in
``systems/ironkv/host.py``, and crash resume: the proof cache stores
each verdict atomically (``cache/store.py``), so re-running a killed
run over the same cache directory re-solves only what it had not
finished.
"""

from .faults import (FAULT_POINTS, FaultPlan, FaultSpec, InjectedCrash,
                     InjectedFault, active, install, maybe_fault, uninstall)

__all__ = ["FaultPlan", "FaultSpec", "FAULT_POINTS", "InjectedFault",
           "InjectedCrash", "install", "uninstall", "active", "maybe_fault"]
