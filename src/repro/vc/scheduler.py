"""Parallel obligation scheduler for the VC pipeline.

The paper's headline claim (§3.1, Fig 9) is *query economy*: each SMT
obligation is small and self-contained, so proof work parallelizes across
obligations and modules ("1/8 cores" in Fig 9) and unchanged obligations
never need re-solving.  This layer supplies both halves:

* :class:`Scheduler` consumes the self-contained obligation jobs emitted
  by :meth:`repro.vc.wp.VcGen.plan_function` and discharges each one
  through :func:`repro.vc.discharge.solve`: the obligation's planned
  assertion list, tried under the pipeline's solver configs
  (:meth:`~repro.vc.wp.VcGen.solver_configs`) in order until one proves
  it.  Every obligation gets a fresh solver: the same planned query runs
  in this process or in a ``ProcessPoolExecutor`` worker (``jobs > 1``),
  under the same soft per-obligation deadline, with an in-process
  fallback when a worker dies.

* Before any solving, each job the static tier (absint triage) does
  not claim is looked up in the content-addressed proof cache
  (:mod:`repro.cache`) keyed on the canonical SMT-LIB2 query text plus
  solver knobs, so cache-warm re-verification skips the solver
  entirely.  The cache holds solver verdicts only: a static claim is
  made again on every run, never stored.  Stores are atomic per entry,
  so a killed run re-run over the same cache directory replays every
  goal it finished and re-solves only the rest.

One further strategy stacks on top (off by default):

* **Delta re-verification** (``delta=True``, needs the cache) — a
  function whose dependency fingerprint (:mod:`repro.vc.delta`) is
  unchanged since a fully verified run is *not even planned*; its
  recorded result is replayed.

Resilience (this layer is where the paper's "practical foundation"
claim meets real fleet failures):

* **Escalation** (``portfolio=N`` / ``retries=N``) — after the main
  pass, each stubborn obligation (failed, ``RESOURCE_OUT``, or timed
  out) runs the run's one *attempt lineup*: portfolio race candidates
  first (alternative automation profiles, every one attempted), then up
  to two retry-ladder rungs (escalated budgets, then escalated budgets
  one conjunct at a time, stopping at the first proof).  Every attempt
  is keyed by its own query, configs and split tag, replays its own
  cached verdict or solves and stores under that key, and the
  lowest-index PROVED attempt wins.  The race record and the escalation
  trail land in the obligation's stats/diag payload.

* **Fault injection** (``fault_plan`` / ``REPRO_FAULT_PLAN``) — the
  scheduler installs a :class:`repro.resilience.FaultPlan` around each
  ``run_module`` so chaos runs reproduce from the plan string alone.
  Worker-process faults are decided *in the parent* at submit time
  (workers never arm their own counters).

A :class:`Scheduler` is built from a resolved
:class:`repro.api.VerifyConfig` (``Session.scheduler()`` is the usual
builder); the ``REPRO_*`` environment knobs are parsed exclusively by
:mod:`repro.api`, never here.

:func:`run_builder_jobs` is the coarse-grained companion used by the
Fig 9 macrobenchmark: whole-module verification jobs named by dotted
builder paths, fanned out across processes with the same fallback story.
"""

from __future__ import annotations

import concurrent.futures as _cf
import os
import pickle
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Optional, Sequence

from ..api import DIAG_ENV, JOB_TIMEOUT_ENV, JOBS_ENV, VerifyConfig, \
    default_jobs
from ..cache.store import ProofCache
from ..profiles import escalate_config, get_profile, portfolio_candidates
from ..resilience import faults as _faults
from ..resilience.faults import FaultPlan, InjectedCrash
from ..smt.fingerprint import (deserialize_terms, obligation_digest,
                               serialize_terms, solver_config_key)
from ..smt.solver import SolverConfig, Stats
from .discharge import build_solver, solve
from .errors import FAILED, PROVED, RESOURCE_OUT, TIMEOUT, ModuleResult

__all__ = ["Scheduler", "ObligationJob", "default_jobs",
           "run_builder_job", "run_builder_jobs",
           "JOBS_ENV", "JOB_TIMEOUT_ENV", "DIAG_ENV"]

#: Strategy tag of an attempt that proves the goal one conjunct at a
#: time: its verdict is not the whole query's, so it keys apart.
SPLIT_TAG = "/split"


def _with_max_steps(cfg: SolverConfig, max_steps: Optional[int]
                    ) -> SolverConfig:
    """``cfg`` with the step budget ``max_steps`` (None: unchanged),
    layered on a *copy* (``make_solver_config`` may hand out a shared
    instance that must not be mutated)."""
    if max_steps is None or cfg.max_steps == max_steps:
        return cfg
    cfg = SolverConfig(**vars(cfg))
    cfg.max_steps = max_steps
    return cfg


def _configs_key(configs: list):
    """The cache-key knobs of a task's configs: one config keys as
    itself, a list as the list of its keys."""
    if len(configs) == 1:
        return solver_config_key(configs[0])
    return [solver_config_key(c) for c in configs]


def _attempt_key(configs: list, split: bool) -> list:
    """An escalation attempt's key: its configs' cache-key knobs and its
    strategy tag."""
    return [_configs_key(configs), SPLIT_TAG if split else ""]


# ---------------------------------------------------------------------------
# Obligation jobs (picklable, self-contained)
# ---------------------------------------------------------------------------

class ObligationJob:
    """A self-contained solver job that can cross a process boundary.

    Carries the serialized assertion list (context axioms + path
    assumptions + negated goal, in solver ``add`` order), the pipeline's
    solver configs and the soft deadline — everything a fresh worker
    needs to reproduce the in-process discharge exactly.

    ``inject`` is the worker-side fault directive (``{point: kind}``)
    decided *by the parent* when a fault plan is armed: worker processes
    never install a plan of their own (the "Nth arming" counters must
    live in exactly one process to stay deterministic).
    """

    __slots__ = ("payload", "configs", "timeout", "label", "inject")

    def __init__(self, payload: tuple, configs: list, timeout, label: str,
                 inject: Optional[dict] = None):
        self.payload = payload
        self.configs = configs
        self.timeout = timeout
        self.label = label
        self.inject = inject

    def run(self) -> tuple:
        """Solve; returns ``(status, stats_snapshot, query_bytes, secs)``."""
        inject = self.inject or {}
        worker_kind = inject.get("pool.worker")
        if worker_kind == "exit":
            os._exit(3)      # a hard worker death: BrokenProcessPool
        if worker_kind is not None:
            raise InjectedCrash(f"pool.worker [{self.label}]")
        assertions = deserialize_terms(self.payload)
        configs = [SolverConfig(**c) for c in self.configs]
        check_kind = inject.get("solver.check")
        if check_kind == "crash":
            raise InjectedCrash(f"solver.check [{self.label}]")
        if check_kind is not None:    # injected resource exhaustion
            t0 = time.perf_counter()
            solver = build_solver(configs[0], assertions)
            stats = solver.stats.snapshot()
            stats["resource_out"] = 1
            return (RESOURCE_OUT, stats, solver.stats.query_bytes,
                    time.perf_counter() - t0)
        return solve(configs, assertions, self.timeout)


def _execute_job(job: ObligationJob) -> tuple:
    # Top-level so ProcessPoolExecutor can pickle it by reference.
    return job.run()


class _Task:
    """Scheduler-internal handle pairing a pending obligation with its
    owning function plan, its solver configs, its (lazily planned)
    assertion list and its digest."""

    __slots__ = ("item", "plan", "gen", "_assertions", "configs", "digest",
                 "entry_stats", "done", "qbytes", "crash", "pruned",
                 "static_claim")

    def __init__(self, item, plan, gen, configs: list):
        self.item = item
        self.plan = plan
        self.gen = gen
        self._assertions: Optional[list] = None
        self.configs = configs
        self.digest: Optional[str] = None
        # The adopted verdict's stats as stored under ``digest``: a
        # diagnosis upgrades that entry with these and nothing run-local.
        self.entry_stats: dict = {}
        self.done = False
        self.qbytes = 0
        # Per-obligation context pruning (vc/prune.py): how many spec
        # axioms this task's assertion list dropped, and their query
        # bytes — folded into the discharge stats by _apply().
        self.pruned: dict = {}
        # Worker-failure cause ("ExcType: message") when a parallel
        # attempt died; surfaced in Stats/diag.
        self.crash: Optional[str] = None
        # Shadow triage (REPRO_TRIAGE=shadow): the static tier claimed
        # this obligation; the solver still runs, and a FAILED verdict
        # afterwards is a soundness bug reported loudly.
        self.static_claim = False

    @property
    def assertions(self) -> list:
        """The planned query, built on first use so the work happens in
        the same order as the solving."""
        if self._assertions is None:
            plan = self.plan
            self._assertions, self.pruned = self.gen.obligation_assertions(
                self.item, plan.encoder, plan.spec_axioms)
        return self._assertions


class _Attempt:
    """One entry of the run's attempt lineup, bound to one obligation.

    ``name`` is a race candidate's automation profile or a ladder rung's
    name (``escalate``, ``split``).  ``configs`` are the solver configs
    tried in order; a ``split`` attempt proves each goal conjunct on its
    own.  ``digest`` keys the attempt's verdict: it is looked up first
    and stored under after solving.  Every ``race`` attempt runs even
    after an earlier one has PROVED; a rung runs only until one does.
    """

    __slots__ = ("name", "configs", "split", "race", "digest", "status",
                 "stats", "qbytes", "seconds", "replayed", "diag")

    def __init__(self, name: str, configs: list, split: bool, race: bool,
                 digest: str):
        self.name = name
        self.configs = configs
        self.split = split
        self.race = race
        self.digest = digest
        self.status: Optional[str] = None
        self.stats: dict = {}
        self.qbytes = 0
        self.seconds = 0.0
        # Set when the verdict was replayed from the proof cache, with
        # the stored diagnostic (if any) alongside.
        self.replayed = False
        self.diag: Optional[dict] = None


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------

class Scheduler:
    """Discharges emitted obligations through the cache and one solve
    helper, in-process or in worker processes.

    ``config`` is a resolved :class:`~repro.api.VerifyConfig`: its
    tri-state fields are read through the ``effective_*`` properties
    once, here, and the environment is never consulted.  The remaining
    arguments are live objects the caller owns:

    ``cache``: a :class:`ProofCache` (or tiered cache), or None for no
    caching.

    Run-level behaviour follows the config: ``jobs`` worker processes;
    ``job_timeout`` soft per-obligation deadline; ``diagnostics`` re-solves
    every failure post hoc in the parent process, so the diagnostic
    output is identical whether the verdict came from a worker, the
    serial path, or a warm cache entry; ``delta`` fingerprint skips
    (needs the cache); ``analyze`` rejects a module with error findings
    before any solver exists; the automation ``profile`` layers its
    solver knobs onto every discharge config.

    Stubborn obligations run the run's attempt lineup (see
    :meth:`_lineup`): ``portfolio`` race candidates, then up to
    ``retries`` ladder rungs, each keyed, replayed and stored the same
    way by one executor (:meth:`_escalate`).
    """

    def __init__(self, config: VerifyConfig, cache=None):
        self.config = config
        self.jobs = max(1, config.jobs)
        self.cache: Optional[ProofCache] = cache
        self.profile = config.automation_profile
        self.portfolio = max(0, config.portfolio)
        self.timeout = config.job_timeout
        self.diagnostics = config.diagnostics
        self.delta = config.delta
        self.analyze = config.analyze
        self.retries = max(0, config.effective_retries)
        self.max_steps = config.effective_max_steps
        # Static proving tier (repro.analysis.absint): "on" discharges
        # entailed obligations with no solver; "shadow" runs tier AND
        # solver and fails loudly on disagreement; "off" skips it.
        self.triage_mode = config.effective_triage
        plan = config.fault_plan
        self.fault_plan: Optional[FaultPlan] = (
            FaultPlan.from_string(plan) if isinstance(plan, str) else plan)
        self._delta_cache = None
        if self.delta and self.cache is not None:
            from .delta import DeltaCache
            self._delta_cache = DeltaCache(self.cache.root)
        self.stats = Stats()

    # ------------------------------------------------------------- public

    def run_module(self, gen) -> ModuleResult:
        """Plan, discharge, and assemble results for a whole module."""
        from . import ast as A
        t0 = time.perf_counter()
        hits0, misses0 = ((self.cache.hits, self.cache.misses)
                          if self.cache is not None else (0, 0))
        # A tiered cache additionally breaks hits down per tier; diff
        # its counters around the run like hits/misses below.
        tier_snap0 = (self.cache.tier_snapshot()
                      if hasattr(self.cache, "tier_snapshot") else None)
        skips0 = (self._delta_cache.skips
                  if self._delta_cache is not None else 0)
        result = ModuleResult(gen.module.name)
        if self.analyze:
            from ..analysis import analyze_module
            report = analyze_module(gen.module, gen.config)
            result.analysis = report
            if report.has_errors:
                # Fail fast: no planning, no solver, zero query bytes.
                result.rejected = True
                result.seconds = time.perf_counter() - t0
                result.stats = self.stats.snapshot()
                return result
        plans = []
        tasks: list[_Task] = []
        # Profile-driven context pruning: the primary profile may force
        # pruning on/off for this run (restored afterwards — the VcGen
        # config can be shared across schedulers).
        prune_override = self.profile.prune_context
        prev_prune = gen.config.prune_context
        if prune_override is not None:
            gen.config.prune_context = prune_override
        # Fault plan: installed for the duration of this run (previous
        # plan restored after), so every instrumented fault point in
        # this process consults the same deterministic counters.  A
        # plan installed directly via faults.install() is honored too.
        prev_plan = _faults.install(self.fault_plan) \
            if self.fault_plan is not None else None
        active_plan = (self.fault_plan if self.fault_plan is not None
                       else _faults.active())
        fired0 = active_plan.total_fired if active_plan is not None else 0
        # Planning runs the §3.3 idiom engines eagerly; hand them the
        # cache so e.g. bit-blasting verdicts are reused on warm runs.
        gen.proof_cache = self.cache
        delta_digests: dict[int, str] = {}
        configs = gen.solver_configs(self._solver_config(gen))
        lineup = self._lineup(gen, configs)
        try:
            for fn in gen.module.functions.values():
                if fn.mode in (A.EXEC, A.PROOF) and fn.body is not None:
                    if self._delta_cache is not None:
                        from .delta import (function_dependency_digest,
                                            replay_function,
                                            replayed_counters)
                        # Key on the scheduler-effective solver config
                        # (max_steps layered on), never the raw base
                        # config: a PROVED under one budget must not be
                        # replayed under another.  Likewise the attempt
                        # lineup (a function a race or rung rescued must
                        # not replay into a run without it) and whether
                        # the static tier answers.
                        digest = function_dependency_digest(
                            gen, fn, solver_config=self._solver_config(gen),
                            lineup=[_attempt_key(c, split)
                                    for _, c, split, _ in lineup],
                            static_tier=self.triage_mode == "on")
                        entry = self._delta_cache.lookup(digest)
                        if entry is not None:
                            replayed = replay_function(entry)
                            self.stats.merge(replayed_counters(replayed))
                            result.functions.append(replayed)
                            continue
                    plan = gen.plan_function(fn)
                    if self._delta_cache is not None:
                        delta_digests[id(plan)] = digest
                    plans.append(plan)
                    result.functions.append(plan.result)
                    tasks.extend(self._plan_tasks(gen, plan, configs))
            self._run_tasks(gen, tasks, lineup)
            if lineup:
                self._escalate(gen, tasks, lineup)
            if self.triage_mode == "shadow":
                # Shadow triage: the static tier ran alongside the
                # solver; a claimed obligation the solver *refuted* is
                # an absint soundness bug.  (TIMEOUT/RESOURCE_OUT are
                # not refutations — only a countermodel disagrees.)
                from ..analysis.absint import TriageDisagreement
                for task in tasks:
                    if (task.static_claim
                            and task.item.obligation.status == FAILED):
                        raise TriageDisagreement(
                            task.plan.fn.name, task.item.obligation.label)
            if self.diagnostics:
                self._diagnose_failures(gen, tasks)
        finally:
            gen.proof_cache = None
            if prune_override is not None:
                gen.config.prune_context = prev_prune
            if self.fault_plan is not None:
                _faults.install(prev_plan)
        if active_plan is not None:
            self.stats.merge(
                {"faults_injected": active_plan.total_fired - fired0})
        if self._delta_cache is not None:
            self.stats.merge(
                {"delta_skips": self._delta_cache.skips - skips0})
            for plan in plans:
                # Record only fully verified functions whose verdicts are
                # all cache-safe (a soft-deadline TIMEOUT is not PROVED,
                # so it can never sneak in here).
                if plan.result.ok:
                    self._delta_cache.store(delta_digests[id(plan)],
                                            plan.fn.name, plan.result)
        if self.cache is not None:
            self.stats.cache_hits += self.cache.hits - hits0
            self.stats.cache_misses += self.cache.misses - misses0
            if tier_snap0 is not None:
                for key, value in self.cache.tier_snapshot().items():
                    setattr(self.stats, key,
                            getattr(self.stats, key, 0)
                            + value - tier_snap0.get(key, 0))
        for plan in plans:
            plan.result.seconds = plan.gen_seconds + sum(
                o.seconds for o in plan.result.obligations)
        self.stats.wall_seconds += time.perf_counter() - t0
        result.seconds = time.perf_counter() - t0
        result.stats = self.stats.snapshot()
        return result

    # ----------------------------------------------------------- planning

    def _solver_config(self, gen) -> SolverConfig:
        """The discharge config: the primary profile's solver knobs,
        then the scheduler's ``max_steps`` budget (the ``default``
        profile is an identity, so profile-free behavior is
        byte-identical)."""
        return _with_max_steps(
            self.profile.apply_solver(gen.config.make_solver_config()),
            self.max_steps)

    def _lineup(self, gen, configs: list) -> list[tuple]:
        """The run's attempt lineup, as ``(name, configs, split, race)``
        entries: race candidates first, then ladder rungs.

        Only a single-config pipeline races (a multi-config task runs
        its pipeline's own portfolio): each alternative profile
        (:func:`~repro.profiles.portfolio_candidates`) has its knobs
        layered on the *unprofiled* discharge config, then an explicit
        ``VerifyConfig.max_steps`` (a cap such as a daemon quota must
        bound race attempts too, and must win over a candidate profile's
        own budget).

        At most ``retries`` rungs follow: ``escalate`` runs every one of
        the task's configs through :func:`~repro.profiles.escalate_config`;
        ``split`` runs the escalated configs on each goal conjunct on its
        own, unless the profile vetoes splitting.
        """
        lineup = []
        if len(configs) == 1:
            base = gen.config.make_solver_config()
            lineup = [(name,
                       [_with_max_steps(get_profile(name).apply_solver(base),
                                        self.config.max_steps)],
                       False, True)
                      for name in portfolio_candidates(self.profile,
                                                       self.portfolio)]
        escalated = [escalate_config(c) for c in configs]
        rungs = [("escalate", escalated, False, False)]
        if self.profile.split_strategy != "off":
            rungs.append(("split", escalated, True, False))
        return lineup + rungs[:self.retries]

    def _plan_tasks(self, gen, plan, configs: list) -> list[_Task]:
        tasks = []
        for item in plan.pending:
            ob = item.obligation
            plan.result.obligations.append(ob)
            if item.direct_result is not None:
                # Idiom engines (§3.3) decided eagerly during planning.
                ob.status = PROVED if item.direct_result else FAILED
                ob.seconds = 0.0
                ob.answered_by = "idiom"
                if not ob.ok and self.diagnostics:
                    from ..diag import diagnose_obligation
                    ob.diag = diagnose_obligation(ob, None, [], [])
                continue
            tasks.append(_Task(item, plan, gen, configs))
        return tasks

    # ---------------------------------------------------------- execution

    def _run_tasks(self, gen, tasks: list[_Task], lineup: list) -> None:
        unsolved = []
        # With a ladder, a stored failure is never the reported verdict
        # (the last rung's is), so it replays without its diagnostic.
        reported = all(race for *_, race in lineup)
        strategy = type(gen).__qualname__
        triage = None
        if self.triage_mode != "off" and gen.ABSINT_TRIAGE:
            from ..analysis.absint import Triage
            triage = Triage(self.triage_mode)
        for task in tasks:
            if triage is not None:
                t0 = time.perf_counter()
                claimed, passes = triage.check(task.item)
                if claimed and triage.mode == "on":
                    # Statically discharged: no query is built, no solver
                    # constructed, nothing stored (a warm run triages
                    # again).  _apply merges the stats dict into
                    # self.stats, the only place these counters move.
                    stats = {"static_proved": 1,
                             "absint_fixpoint_iters": passes,
                             "solver_constructions_avoided": 1}
                    self._apply(task, PROVED, stats, 0,
                                time.perf_counter() - t0, "static")
                    continue
                if claimed:
                    # Shadow: remember the claim, still solve (or replay
                    # the solver's cached verdict) and compare.
                    task.static_claim = True
                    self.stats.static_proved += 1
                    self.stats.absint_fixpoint_iters += passes
            if self.cache is not None:
                task.digest = obligation_digest(
                    task.assertions, _configs_key(task.configs), strategy)
                entry = self._lookup(task.digest, reported)
                if entry is not None:
                    # A cached verdict (perhaps from a killed earlier
                    # run): replay it, solve nothing.
                    if self.diagnostics and entry.get("diag"):
                        from ..diag import Diagnostic
                        task.item.obligation.diag = \
                            Diagnostic.from_dict(entry["diag"])
                    self._apply(task, entry["status"],
                                dict(entry.get("stats") or {}),
                                entry.get("query_bytes", 0), 0.0, "cache")
                    continue
            unsolved.append(task)
        if len(unsolved) > 1 and self.jobs > 1:
            unsolved = self._run_parallel(unsolved)
        for task in unsolved:
            self._run_fresh(task)

    def _run_fresh(self, task: _Task) -> None:
        """One in-process discharge of the planned assertion list under
        the task's configs and the soft per-obligation deadline."""
        status, stats, qbytes, seconds = solve(
            task.configs, task.assertions, self.timeout)
        self._apply(task, status, stats, qbytes, seconds)
        self._store(task, status, stats, qbytes)

    def _run_parallel(self, tasks: list[_Task]) -> list[_Task]:
        """Fan tasks out across processes; returns tasks that still need
        the in-process fallback.

        Each job carries the soft per-obligation deadline and enforces
        it inside its worker's solver, as an in-process discharge does,
        so a slow obligation comes back as TIMEOUT (never cached) on
        time instead of holding the pool open.

        Worker faults are decided here, in the parent, by arming the
        active plan's ``pool.worker``/``solver.check`` points once per
        submitted job: the directive ships inside the job, so the
        deterministic counters never leave this process.  Worker deaths
        are no longer swallowed — the exception type and message are
        recorded on the task (→ ``Stats.pool_failures`` and the diag
        payload) before falling back.
        """
        plan = _faults.active()
        try:
            jobs = []
            for task in tasks:
                inject = None
                if plan is not None:
                    inject = {}
                    spec = plan.arm("pool.worker")
                    if spec is not None:
                        inject["pool.worker"] = spec.kind
                    spec = plan.arm("solver.check")
                    if spec is not None:
                        inject["solver.check"] = spec.kind
                jobs.append(ObligationJob(
                    serialize_terms(task.assertions),
                    [dict(vars(c)) for c in task.configs], self.timeout,
                    task.item.obligation.label, inject=inject or None))
        except (ValueError, TypeError, pickle.PicklingError):
            return tasks  # unserializable content: solve in-process
        try:
            workers = min(self.jobs, len(tasks))
            with _cf.ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [(task, pool.submit(_execute_job, job))
                           for task, job in zip(tasks, jobs)]
                for task, fut in futures:
                    try:
                        status, stats, qbytes, secs = fut.result()
                    except (BrokenProcessPool, OSError,
                            RuntimeError) as exc:
                        self._record_pool_failure(task, exc)
                        continue
                    self._apply(task, status, stats, qbytes, secs)
                    self._store(task, status, stats, qbytes)
        except (BrokenProcessPool, OSError, RuntimeError) as exc:
            # Pool-level breakage (e.g. the executor dying between
            # submissions): attribute the cause to every stranded task.
            for task in tasks:
                if not task.done:
                    self._record_pool_failure(task, exc)
        return [t for t in tasks if not t.done]

    def _record_pool_failure(self, task: _Task, exc: BaseException) -> None:
        """Record why a parallel attempt died instead of swallowing it."""
        if task.crash is None:
            self.stats.pool_failures += 1
        task.crash = f"{type(exc).__name__}: {exc}"[:300]

    # ---------------------------------------------------------- escalation

    def _escalate(self, gen, tasks: list[_Task], lineup: list) -> None:
        """Run each stubborn obligation's attempts, then adopt.

        Runs in the parent process after the main pass.  One election
        rule: the lowest-index PROVED attempt wins.  One replay and
        store rule: every attempt replays the verdict stored under its
        own digest, or solves and stores under it unless the verdict is
        a wall-clock artefact (:meth:`_store`).
        """
        strategy = type(gen).__qualname__
        for task in tasks:
            plan = self._plan_attempts(task, strategy, lineup)
            ran: list[_Attempt] = []
            winner = None
            for attempt in plan:
                if winner is not None and not attempt.race:
                    break
                self._run_attempt(task, attempt)
                ran.append(attempt)
                if winner is None and attempt.status == PROVED:
                    winner = attempt
            if ran:
                self._adopt(task, plan, ran, winner)

    def _plan_attempts(self, task: _Task, strategy: str,
                       lineup: list) -> list[_Attempt]:
        """The lineup's attempts for one obligation; empty unless it is
        stubborn (FAILED, TIMEOUT or RESOURCE_OUT), whether its verdict
        was solved or replayed.

        A TIMEOUT gets the race candidates only: a rung's bigger budgets
        cannot beat a wall-clock deadline.  The split rung is skipped
        for a goal that does not split.  Each attempt's digest keys its
        query, its configs and its split tag, so a rung's verdict never
        lands under the obligation's own digest.
        """
        status = task.item.obligation.status
        if status not in (FAILED, TIMEOUT, RESOURCE_OUT):
            return []
        plan = []
        for name, configs, split, race in lineup:
            if not race and (status == TIMEOUT
                             or split and not self._splittable(task)):
                continue
            key, tag = _attempt_key(configs, split)
            plan.append(_Attempt(name, configs, split, race,
                                 obligation_digest(task.assertions, key,
                                                   strategy + tag)))
        return plan

    def _run_attempt(self, task: _Task, attempt: _Attempt) -> None:
        """Replay or solve one attempt, recording its outcome on it."""
        entry = self._lookup(attempt.digest, reported=False)
        if entry is not None:
            attempt.replayed = True
            attempt.status = entry["status"]
            attempt.stats = dict(entry.get("stats") or {})
            attempt.qbytes = entry.get("query_bytes", 0)
            attempt.diag = entry.get("diag")
            return
        if attempt.split:
            outcome = self._solve_split(task, attempt.configs)
        else:
            outcome = solve(attempt.configs, task.assertions, self.timeout)
        attempt.status, attempt.stats, attempt.qbytes, attempt.seconds = \
            outcome
        self.stats.merge(attempt.stats)
        self._store(task, attempt.status, attempt.stats, attempt.qbytes,
                    digest=attempt.digest)

    def _adopt(self, task: _Task, plan: list[_Attempt], ran: list[_Attempt],
               winner: Optional[_Attempt]) -> None:
        """Fold a finished plan into the obligation.

        The winner's verdict is adopted; with no winner, the last ladder
        rung's verdict replaces the failed one, and a race alone leaves
        the obligation's verdict as it was (non-PROVED race outcomes are
        never adopted: a countermodel under another profile's quantifier
        knobs may be spurious).  An adopted verdict brings its digest
        along, so a diagnosis upgrades the attempt's own entry.  The
        race record (``portfolio``) and the escalation trail
        (``retries``/``escalation``) both land in the obligation's
        stats; every solve the plan paid for counts towards the module's
        query bytes.
        """
        ob = task.item.obligation
        raced = [a for a in plan if a.race]
        rungs = [a for a in ran if not a.race]
        solved = [a for a in ran if not a.replayed]
        adopted = winner or (rungs[-1] if rungs else None)
        stats = dict(adopted.stats if adopted is not None else ob.stats)
        if raced:
            self.stats.portfolio_races += 1
            self.stats.portfolio_attempts += sum(a.race for a in solved)
            stats["portfolio"] = {
                "raced": [a.name for a in raced],
                "outcomes": {a.name: a.status for a in raced},
                "winner": winner.name if winner is not None and winner.race
                else None}
        if rungs:
            self.stats.retries += len(rungs)
            stats["retries"] = len(rungs)
            stats["escalation"] = [a.name for a in rungs]
        if winner is not None:
            if winner.race:
                self.stats.portfolio_wins += 1
                stats["profile"] = winner.name
            else:
                self.stats.retry_recoveries += 1
        if adopted is not None:
            ob.answered_by = ("cache" if adopted.replayed
                              else "race" if adopted.race else "ladder")
            # The diagnostic follows the verdict: the adopted attempt's
            # stored one, or a fresh diagnosis afterwards.
            ob.diag = None
            if self.diagnostics and adopted.diag:
                from ..diag import Diagnostic
                ob.diag = Diagnostic.from_dict(adopted.diag)
            ob.status = adopted.status
            task.qbytes = adopted.qbytes
            task.digest = adopted.digest
            task.entry_stats = adopted.stats
            if adopted.status == RESOURCE_OUT:
                self.stats.resource_outs += 1
        if task.crash is not None:
            stats["pool_failure"] = task.crash
        ob.stats = stats
        seconds = sum(a.seconds for a in ran)
        ob.seconds += seconds
        self.stats.obligation_seconds += seconds
        task.plan.result.query_bytes += sum(a.qbytes for a in solved)

    def _splittable(self, task: _Task) -> bool:
        from ..diag.split import split_goal
        return (task.item.goal is not None
                and len(split_goal(task.item.goal)) > 1)

    def _solve_split(self, task: _Task, configs: list) -> tuple:
        """The split rung: prove each conjunct of the goal on its own.

        A conjunctive goal that blows a budget as a whole often
        discharges piecewise — each conjunct's query is smaller, so the
        quantifier/conflict search has less room to diverge.  PROVED
        only if *every* conjunct proves; a countermodel for any conjunct
        is a countermodel for the conjunction, hence FAILED.
        """
        from ..diag.split import solve_conjuncts, split_goal
        conjuncts = split_goal(task.item.goal)
        base = task.assertions[:-1]     # everything but the negated goal
        agg = Stats()
        status, qbytes, seconds, deadline = PROVED, 0, 0.0, False
        for st, stats, qb, secs in solve_conjuncts(conjuncts, base, configs,
                                                   self.timeout):
            if stats.pop("deadline_exceeded", 0):
                deadline = True
            stats.pop("resource_out", None)
            agg.merge(stats)
            qbytes += qb
            seconds += secs
            if st == FAILED:
                status = FAILED
            elif st != PROVED and status == PROVED:
                status = st
        stats = agg.snapshot()
        stats["split_conjuncts"] = len(conjuncts)
        stats["query_bytes"] = qbytes
        if deadline:
            stats["deadline_exceeded"] = 1
        elif status == RESOURCE_OUT:
            stats["resource_out"] = 1
        return status, stats, qbytes, seconds

    # --------------------------------------------------------- diagnosis

    def _diagnose_failures(self, gen, tasks: list[_Task]) -> None:
        """Attach a full Diagnostic to every failed obligation.

        Runs in the parent process after all verdicts are in, re-solving
        each failure from its planned VC — so serial, parallel, and
        cache-warm runs produce identical diagnostics.  Deadline
        verdicts are not re-solved: the re-solve has no deadline.  This
        run's resilience notes go on every diagnostic, replayed or not,
        and never into the cache.
        """
        from ..diag import diagnose_obligation
        cfg = None
        for task in tasks:
            ob = task.item.obligation
            if ob.ok:
                continue
            if ob.diag is not None:
                self._resilience_notes(ob)
                continue
            if ob.stats.get("deadline_exceeded") or ob.status == RESOURCE_OUT:
                from ..diag import Diagnostic, VerusErrorType
                ob.diag = Diagnostic.for_obligation(ob)
                if ob.status == RESOURCE_OUT:
                    # Re-solving would exhaust the same budgets again;
                    # report the structured verdict instead.
                    ob.diag.error_type = VerusErrorType.RESOURCE_OUT.value
                    ob.diag.notes.append("solver resource budget "
                                         "exhausted; not re-solved for "
                                         "diagnosis")
                else:
                    ob.diag.error_type = \
                        VerusErrorType.RLIMIT_EXCEEDED.value
                    ob.diag.notes.append("soft deadline exceeded; "
                                         "not re-solved for diagnosis")
                self._resilience_notes(ob)
                continue
            plan = task.plan
            # Diagnose against the same pruned context the discharge saw.
            ctx, _ = gen.obligation_context(task.item, plan.encoder,
                                            plan.spec_axioms)
            if cfg is None:
                cfg = self._solver_config(gen)
            ob.diag = diagnose_obligation(
                ob, task.item.goal, list(task.item.assumptions), ctx, cfg)
            if self.cache is not None and task.digest is not None:
                # Upgrade the cache entry so warm runs replay the full
                # report without re-solving.
                self.cache.store(task.digest, ob.status, task.entry_stats,
                                 task.qbytes, label=ob.label,
                                 diag=ob.diag.to_dict())
            self._resilience_notes(ob)

    @staticmethod
    def _resilience_notes(ob) -> None:
        """Surface recorded worker-failure causes and escalation trails
        in the diag payload — the human-readable report is where a
        swallowed BrokenProcessPool used to disappear."""
        if ob.diag is None:
            return
        cause = ob.stats.get("pool_failure")
        if cause:
            ob.diag.notes.append(f"worker pool failure: {cause}")
        trail = ob.stats.get("escalation")
        if trail:
            ob.diag.notes.append(
                "retry escalation: " + " -> ".join(trail)
                + f" ({ob.stats.get('retries', 0)} attempts, "
                  f"final verdict {ob.status})")

    # -------------------------------------------------------- bookkeeping

    def _lookup(self, digest: str, reported: bool = True):
        """The cached verdict for ``digest`` that may replay in this run,
        or None.  A failure reported under diagnostics replays only with
        its diag payload (the verdict alone is not what was asked for);
        the cache applies that rule as it looks up, so its hit counters
        (tiers included) count only replayed entries.  ``reported`` is
        False where a replayed failure need not carry its diagnostic:
        escalation attempts (a diagnosis missing from the adopted
        verdict is made afterwards) and a main pass that a ladder
        follows (its failures are never the reported verdict)."""
        if self.cache is None:
            return None
        need_diag = reported and self.diagnostics
        return self.cache.lookup(digest, admit=lambda entry: not (
            need_diag and entry["status"] != PROVED
            and entry.get("diag") is None))

    def _apply(self, task: _Task, status: str, stats: dict, qbytes: int,
               seconds: float, answered_by: str = "solver") -> None:
        ob = task.item.obligation
        ob.status = status
        ob.seconds = seconds
        ob.answered_by = answered_by
        task.entry_stats = stats
        if task.pruned and not stats.get("pruned_axioms"):
            # Pruning happens when the task's assertion list is planned,
            # so solver stats never see it; fold the task's counts in.
            stats = {**stats, **task.pruned}
        self.stats.merge(stats)
        if task.crash is not None and "pool_failure" not in stats:
            stats = dict(stats)
            stats["pool_failure"] = task.crash
        ob.stats = stats
        task.plan.result.query_bytes += qbytes
        self.stats.obligations += 1
        self.stats.obligation_seconds += seconds
        if status == RESOURCE_OUT:
            self.stats.resource_outs += 1
        task.done = True
        task.qbytes = qbytes

    def _store(self, task: _Task, status: str, stats: dict, qbytes: int,
               digest: Optional[str] = None) -> None:
        """Store a verdict under ``digest`` (default: the task's) in the
        proof cache, unless it is a wall-clock artefact.  The cache drops
        statuses it cannot replay."""
        digest = digest or task.digest
        if (self.cache is None or digest is None
                or stats.get("deadline_exceeded")):
            return
        self.cache.store(digest, status, stats, qbytes,
                         label=task.item.obligation.label)


# ---------------------------------------------------------------------------
# Module-granularity fan-out (Fig 9 "8 cores" column)
# ---------------------------------------------------------------------------

def run_builder_job(job: tuple) -> tuple:
    """Verify one ``(kind, dotted_builder)`` module job in this process.

    ``kind`` selects the machinery: ``"vc"`` (default pipeline, honors
    the env-configured scheduler, so workers share the proof cache),
    ``"epr"`` (§3.2 EPR mode), anything else builds a VerusSync system
    and calls ``check()``.  Returns ``(ok, query_bytes)``.
    """
    import importlib
    kind, dotted = job
    module_path, func_name = dotted.rsplit(".", 1)
    built = getattr(importlib.import_module(module_path), func_name)()
    if kind == "vc":
        from .wp import VcGen
        res = VcGen(built).verify_module()
    elif kind == "epr":
        from ..epr import verify_epr_module
        res = verify_epr_module(built)
    else:  # sync
        res = built.check()
    return res.ok, res.query_bytes


def run_builder_jobs(jobs: Sequence[tuple], max_workers: Optional[int] = None,
                     timeout: Optional[float] = None) -> list[tuple]:
    """Discharge module jobs across a process pool, serial on fallback."""
    jobs = list(jobs)
    max_workers = max_workers if max_workers else default_jobs()
    if max_workers > 1 and len(jobs) > 1:
        try:
            with _cf.ProcessPoolExecutor(
                    max_workers=min(max_workers, len(jobs))) as pool:
                futures = [pool.submit(run_builder_job, j) for j in jobs]
                return [f.result(timeout=timeout) for f in futures]
        except (BrokenProcessPool, OSError, _cf.TimeoutError,
                pickle.PicklingError):
            pass  # fall through to the serial path
    return [run_builder_job(j) for j in jobs]
