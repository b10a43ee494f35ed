"""Deterministic, seeded fault injection for the verification pipeline.

Every recovery path in the pipeline — retry escalation, cache
quarantine, the parallel scheduler's crashed-worker fallback, IronKV
retransmission — is only trustworthy if it can be exercised on demand,
repeatably.  This module provides that: a :class:`FaultPlan` arms a set
of *named fault points* with *fault kinds*, and components call
:func:`maybe_fault` at those points.  Whether a given arming fires is a
pure function of the plan string (counters plus a seeded RNG), so a
failing chaos run reproduces from nothing but ``REPRO_FAULT_PLAN``.

Fault points and the kinds each one honors:

========================  =====================================================
point                     kinds
========================  =====================================================
``solver.check``          ``resource_out`` (budget-exhausted verdict),
                          ``crash`` (raise :class:`InjectedCrash`)
``pool.worker``           ``crash`` (raise inside the worker),
                          ``exit`` (``os._exit`` — a hard worker death that
                          surfaces as ``BrokenProcessPool``)
``cache.lookup``          ``io``, ``corrupt`` (the entry reads as torn: it
                          is evicted and the lookup misses)
``cache.store``           ``io`` (the write is dropped)
``net.send``              ``drop`` (datagram silently discarded)
========================  =====================================================

Plan strings are ``;``-separated clauses::

    seed=7; pool.worker:crash@1; cache.store:io@2; net.send:drop%0.1x5

* ``point:kind@N``   — fire on the Nth arming of ``point`` (1-based).
* ``point:kind@NxM`` — fire on armings N, N+1, ... until M total fires.
* ``point:kind%P``   — fire with probability P per arming (seeded RNG).
* ``point:kind%PxM`` — as above, at most M fires.
* ``seed=N``         — seed for the probabilistic clauses (default 0).

Activation is explicit: the scheduler installs the plan from
``VerifyConfig.fault_plan`` (itself fed by ``REPRO_FAULT_PLAN``) for the
duration of one ``run_module``.  :func:`active` never reads the
environment — worker processes inherit ``REPRO_FAULT_PLAN`` but must
not arm their own copy of the counters, or the "Nth arming" would stop
being well defined; the parent decides worker faults at submit time
instead (see ``vc/scheduler.py``).
"""

from __future__ import annotations

import random
from typing import Optional

FAULT_POINTS = ("solver.check", "pool.worker", "cache.lookup",
                "cache.store", "net.send")

_KINDS_BY_POINT = {
    "solver.check": ("resource_out", "crash"),
    "pool.worker": ("crash", "exit"),
    "cache.lookup": ("io", "corrupt"),
    "cache.store": ("io",),
    "net.send": ("drop",),
}


class InjectedFault(Exception):
    """Marker base class for all injected failures."""


class InjectedCrash(InjectedFault, RuntimeError):
    """An injected process/solver crash (a ``RuntimeError``, so the
    parallel scheduler's crashed-worker path handles it like any real
    worker death)."""


class FaultSpec:
    """One armed fault: where, what, and the deterministic firing rule."""

    __slots__ = ("point", "kind", "at", "prob", "times", "fired")

    def __init__(self, point: str, kind: str, at: Optional[int] = None,
                 prob: Optional[float] = None, times: Optional[int] = None):
        if point not in FAULT_POINTS:
            raise ValueError(f"unknown fault point {point!r} "
                             f"(expected one of {FAULT_POINTS})")
        if kind not in _KINDS_BY_POINT[point]:
            raise ValueError(f"fault point {point!r} does not support kind "
                             f"{kind!r} (supports {_KINDS_BY_POINT[point]})")
        if (at is None) == (prob is None):
            raise ValueError("exactly one of @count / %probability required")
        if at is not None and at < 1:
            raise ValueError("@count is 1-based and must be >= 1")
        if prob is not None and not 0.0 <= prob <= 1.0:
            raise ValueError("%probability must be within [0, 1]")
        self.point = point
        self.kind = kind
        self.at = at
        self.prob = prob
        # Max fires: counted clauses default to one fire, probabilistic
        # clauses to unlimited.
        self.times = times if times is not None else (1 if at else None)
        self.fired = 0

    def should_fire(self, arm_count: int, rng: random.Random) -> bool:
        if self.times is not None and self.fired >= self.times:
            return False
        if self.at is not None:
            return arm_count >= self.at
        return rng.random() < self.prob

    def clause(self) -> str:
        trigger = (f"@{self.at}" if self.at is not None
                   else f"%{self.prob:g}")
        default_times = 1 if self.at is not None else None
        suffix = f"x{self.times}" if self.times != default_times else ""
        return f"{self.point}:{self.kind}{trigger}{suffix}"

    def __repr__(self) -> str:
        return f"<FaultSpec {self.clause()} fired={self.fired}>"


class FaultPlan:
    """A parsed, stateful fault plan: specs + arming counters + RNG."""

    def __init__(self, specs: list, seed: int = 0):
        self.specs = list(specs)
        self.seed = seed
        self._rng = random.Random(seed)
        self._arm_counts: dict = {p: 0 for p in FAULT_POINTS}
        self.total_fired = 0

    # ------------------------------------------------------------- parsing

    @classmethod
    def from_string(cls, text: str) -> Optional["FaultPlan"]:
        """Parse ``seed=N; point:kind@N; point:kind%PxM`` (None if empty)."""
        seed = 0
        specs = []
        for raw in text.replace(",", ";").split(";"):
            clause = raw.strip()
            if not clause:
                continue
            if clause.startswith("seed="):
                seed = int(clause[len("seed="):])
                continue
            try:
                point, rest = clause.split(":", 1)
            except ValueError:
                raise ValueError(
                    f"bad fault clause {clause!r}: expected point:kind@N, "
                    f"point:kind%P, or seed=N") from None
            if "@" in rest:
                kind, _, trigger = rest.partition("@")
                trigger, times = cls._split_times(trigger)
                specs.append(FaultSpec(point.strip(), kind.strip(),
                                       at=int(trigger), times=times))
            elif "%" in rest:
                kind, _, trigger = rest.partition("%")
                trigger, times = cls._split_times(trigger)
                specs.append(FaultSpec(point.strip(), kind.strip(),
                                       prob=float(trigger), times=times))
            else:
                raise ValueError(f"bad fault clause {clause!r}: "
                                 f"missing @count or %probability")
        if not specs:
            return None
        return cls(specs, seed=seed)

    @staticmethod
    def _split_times(trigger: str) -> tuple:
        """Split the optional ``xM`` max-fires suffix off a trigger
        (only after ``@``/``%``, so kind names like ``exit`` are safe)."""
        if "x" in trigger:
            head, _, times_text = trigger.rpartition("x")
            return head, int(times_text)
        return trigger, None

    def to_string(self) -> str:
        clauses = [f"seed={self.seed}"] if self.seed else []
        clauses.extend(s.clause() for s in self.specs)
        return "; ".join(clauses)

    # -------------------------------------------------------------- arming

    def arm(self, point: str) -> Optional[FaultSpec]:
        """One arming of ``point``; the spec that fires, or None.

        At most one spec fires per arming (first match in plan order), so
        overlapping clauses stay deterministic.
        """
        self._arm_counts[point] += 1
        count = self._arm_counts[point]
        for spec in self.specs:
            if spec.point != point:
                continue
            if spec.should_fire(count, self._rng):
                spec.fired += 1
                self.total_fired += 1
                return spec
        return None

    def arm_count(self, point: str) -> int:
        return self._arm_counts[point]

    def __repr__(self) -> str:
        return f"<FaultPlan {self.to_string()!r} fired={self.total_fired}>"


# ------------------------------------------------------------ installation

_active: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install ``plan`` as the process-wide active plan.

    Returns the previously active plan so callers can restore it —
    the scheduler brackets ``run_module`` with install/restore.
    """
    global _active
    previous = _active
    _active = plan
    return previous


def uninstall() -> None:
    install(None)


def active() -> Optional[FaultPlan]:
    """The installed plan, if any.  Never consults the environment:
    activation flows through ``VerifyConfig``/``Scheduler`` only."""
    return _active


def maybe_fault(point: str) -> Optional[FaultSpec]:
    """Arm ``point`` against the active plan; the firing spec or None.

    Instrumented components call this at their fault point and interpret
    the returned spec's ``kind`` (raise, drop, degrade).  With no plan
    installed this is a near-free no-op, so production paths pay nothing.
    """
    plan = _active
    if plan is None:
        return None
    return plan.arm(point)
