"""The unified programmatic front door: ``Session`` + ``VerifyConfig``.

Everything tunable about a verification run — parallelism, proof cache,
diagnostics, per-obligation timeouts, and the incremental/delta solving
strategies — lives in one frozen :class:`VerifyConfig`.  The historical
``REPRO_*`` environment knobs are parsed in exactly one place,
:meth:`VerifyConfig.from_env`; every other module (the scheduler, the
proof cache, the lang helpers) asks this module instead of touching
``os.environ`` itself.

Typical usage::

    from repro.api import Session

    session = Session(jobs=4, cache_dir=".pv_cache", incremental=True)
    result = session.verify_module(mod)     # detailed ModuleResult
    session.verify(mod)                     # raises VerificationFailure
    report = session.diagnose(mod)          # diagnostics forced on

A ``Session`` owns one :class:`~repro.cache.store.ProofCache` instance and
one aggregate :class:`~repro.smt.solver.Stats`, so verifying several
modules through the same session shares cache-hit bookkeeping the way a
single CLI invocation of Verus would.

The knob soup is collapsed behind **automation profiles**
(:mod:`repro.profiles`): ``VerifyConfig.profile`` names a detent on the
automation dial (``default`` / ``frugal`` / ``aggressive`` /
``nonlinear`` / ``bitvector`` / ``epr``), and the run-level fields it
implies (``incremental``, ``retries``, ``max_steps``) default to the
profile's values unless set explicitly — an explicit field always wins.
``VerifyConfig.portfolio`` enables racing: stubborn obligations are
re-discharged under that many alternative profiles.  Each attempt's
verdict lands in the proof cache under its own digest, so a cache-warm
run replays the race without building a solver.

Environment knobs (all optional, read only by :meth:`from_env`):

* ``REPRO_PROFILE`` — automation profile name (default ``default``).
* ``REPRO_PORTFOLIO`` — portfolio race width for stubborn obligations:
  an integer, or any other truthy value for the default width of 3
  (``0``/unset = racing off).
* ``REPRO_JOBS`` — worker count (``1`` = serial, the default).
* ``REPRO_CACHE_DIR`` — enable the content-addressed proof cache here.
* ``REPRO_DIAG`` — truthy to diagnose every failed obligation.
* ``REPRO_JOB_TIMEOUT`` — per-obligation soft deadline in seconds
  (parallel *and* serial runs honor it).
* ``REPRO_INCREMENTAL`` — truthy to discharge each function's
  obligations in one warm solver under push/pop scopes.
* ``REPRO_DELTA`` — truthy to skip re-planning functions whose
  transitive spec dependencies are unchanged (requires the cache).
* ``REPRO_ANALYZE`` — truthy to run the :mod:`repro.analysis` static
  passes before planning and reject modules with error findings
  without issuing a single SMT query.
* ``REPRO_RETRIES`` — max retry-ladder rungs per failed /
  resource-out obligation (``0`` = ladder off, the default).
* ``REPRO_MAX_STEPS`` — machine-independent solver step budget per
  check; exhaustion yields a structured ``resource-out`` verdict.
* ``REPRO_FAULT_PLAN`` — a :mod:`repro.resilience.faults` plan string;
  the scheduler installs it around each ``run_module`` for
  seed-reproducible chaos testing.
* ``REPRO_TRIAGE`` — static proving tier (:mod:`repro.analysis.absint`):
  ``on`` discharges statically-entailed obligations with no solver,
  ``off`` disables the tier, ``shadow`` runs tier *and* solver and
  fails loudly on disagreement; unset = profile default.
* ``REPRO_CACHE_TIERS`` — tier spec for the proof cache
  (``mem,disk``; requires ``REPRO_CACHE_DIR``): unset keeps the flat
  disk store, otherwise a :class:`~repro.cache.tiers.TieredProofCache`
  is built.  An unknown tier name raises ``ValueError`` in
  :meth:`VerifyConfig.from_env`.
* ``REPRO_CACHE_MEM_BUDGET`` — byte budget for the in-memory LRU tier
  (default 4 MiB).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Optional

PROFILE_ENV = "REPRO_PROFILE"
PORTFOLIO_ENV = "REPRO_PORTFOLIO"
JOBS_ENV = "REPRO_JOBS"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DIAG_ENV = "REPRO_DIAG"
JOB_TIMEOUT_ENV = "REPRO_JOB_TIMEOUT"
INCREMENTAL_ENV = "REPRO_INCREMENTAL"
DELTA_ENV = "REPRO_DELTA"
ANALYZE_ENV = "REPRO_ANALYZE"
RETRIES_ENV = "REPRO_RETRIES"
MAX_STEPS_ENV = "REPRO_MAX_STEPS"
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"
TRIAGE_ENV = "REPRO_TRIAGE"
CACHE_TIERS_ENV = "REPRO_CACHE_TIERS"
CACHE_MEM_BUDGET_ENV = "REPRO_CACHE_MEM_BUDGET"

_FALSY = ("", "0", "false", "no", "off")


def _env_truthy(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() not in _FALSY


def _env_flag(name: str):
    """Tri-state env flag: None when unset/empty (let the profile
    decide), else the parsed boolean (an explicit ``0`` really means
    "off", even under a profile that defaults it on)."""
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return None
    return raw.strip().lower() not in _FALSY


def _parse_triage(raw) -> Optional[str]:
    """Tri-state triage mode from ``$REPRO_TRIAGE``: None when unset
    (profile decides), else ``"on"``/``"off"``/``"shadow"`` —
    ``shadow`` by name, any other truthy value = on, falsy = off."""
    if raw is None or raw.strip() == "":
        return None
    raw = raw.strip().lower()
    if raw == "shadow":
        return "shadow"
    return "off" if raw in _FALSY else "on"


def _parse_portfolio(raw) -> int:
    """Race width from ``$REPRO_PORTFOLIO``: an int, or any other
    truthy value for the default width of 3."""
    if raw is None:
        return 0
    raw = raw.strip()
    try:
        return max(0, int(raw))
    except ValueError:
        return 0 if raw.lower() in _FALSY else 3


@dataclass(frozen=True)
class VerifyConfig:
    """Frozen bundle of run-level verification knobs.

    ``profile``         automation-profile name (:mod:`repro.profiles`);
                        the profile supplies the solver knobs and the
                        defaults for ``incremental``/``retries``/
                        ``max_steps`` left unset.
    ``portfolio``       portfolio race width: re-discharge stubborn
                        obligations under this many alternative
                        profiles (0 = off).
    ``jobs``            worker processes; obligations fan out when > 1.
    ``cache_dir``       proof-cache directory, or None to disable.
    ``diagnostics``     attach a full Diagnostic to every failure.
    ``job_timeout``     per-obligation soft deadline in seconds.
    ``incremental``     warm per-function solver contexts (push/pop);
                        None = profile default.
    ``delta``           skip functions with unchanged dependency
                        fingerprints (needs ``cache_dir``).
    ``analyze``         run the static-analysis gate before planning;
                        error findings reject the module solver-free.
    ``retries``         retry-ladder rungs per failed/resource-out
                        obligation (0 = ladder off; None = profile
                        default).
    ``max_steps``       per-check solver step budget; exhaustion yields
                        a ``resource-out`` verdict instead of a hang
                        (None = profile default).
    ``fault_plan``      a deterministic fault-injection plan string
                        (see :mod:`repro.resilience.faults`).
    ``triage``          static proving tier mode: ``"on"``/``"off"``/
                        ``"shadow"``; None = profile default.
    ``cache_tiers``     proof-cache tier spec (``"mem,disk"``); None
                        keeps the flat disk store.  Needs ``cache_dir``.
    ``cache_mem_budget``  byte budget for the in-memory LRU tier.

    The tri-state fields resolve through the ``effective_*`` properties;
    everything downstream (``Session.scheduler``, the daemon) reads
    those, never the raw fields, so a profile default and an explicit
    value behave identically once a scheduler is built.
    """

    profile: str = "default"
    portfolio: int = 0
    jobs: int = 1
    cache_dir: Optional[str] = None
    diagnostics: bool = False
    job_timeout: Optional[float] = None
    incremental: Optional[bool] = None
    delta: bool = False
    analyze: bool = False
    retries: Optional[int] = None
    max_steps: Optional[int] = None
    fault_plan: Optional[str] = None
    triage: Optional[str] = None
    cache_tiers: Optional[str] = None
    cache_mem_budget: Optional[int] = None

    @classmethod
    def from_env(cls, **overrides) -> "VerifyConfig":
        """Build a config from the ``REPRO_*`` environment.

        This classmethod is the *only* reader of those variables.
        Keyword overrides with non-``None`` values replace the
        corresponding env-derived field.
        """
        raw_jobs = os.environ.get(JOBS_ENV)
        try:
            jobs = max(1, int(raw_jobs)) if raw_jobs else 1
        except ValueError:
            jobs = 1
        raw_timeout = os.environ.get(JOB_TIMEOUT_ENV)
        try:
            job_timeout = float(raw_timeout) if raw_timeout else None
        except ValueError:
            job_timeout = None
        raw_retries = os.environ.get(RETRIES_ENV)
        try:
            retries = max(0, int(raw_retries)) if raw_retries else None
        except ValueError:
            retries = None
        raw_steps = os.environ.get(MAX_STEPS_ENV)
        try:
            max_steps = max(1, int(raw_steps)) if raw_steps else None
        except ValueError:
            max_steps = None
        raw_budget = os.environ.get(CACHE_MEM_BUDGET_ENV)
        try:
            mem_budget = max(0, int(raw_budget)) if raw_budget else None
        except ValueError:
            mem_budget = None
        cache_tiers = os.environ.get(CACHE_TIERS_ENV) or None
        if cache_tiers is not None:
            # Fail when the config is read (e.g. at daemon start), not
            # on the first request that opens the cache.
            from .cache.tiers import parse_tiers
            parse_tiers(cache_tiers)
        cfg = cls(profile=os.environ.get(PROFILE_ENV) or "default",
                  portfolio=_parse_portfolio(os.environ.get(PORTFOLIO_ENV)),
                  jobs=jobs,
                  cache_dir=os.environ.get(CACHE_DIR_ENV) or None,
                  diagnostics=_env_truthy(DIAG_ENV),
                  job_timeout=job_timeout,
                  incremental=_env_flag(INCREMENTAL_ENV),
                  delta=_env_truthy(DELTA_ENV),
                  analyze=_env_truthy(ANALYZE_ENV),
                  retries=retries,
                  max_steps=max_steps,
                  fault_plan=os.environ.get(FAULT_PLAN_ENV) or None,
                  triage=_parse_triage(os.environ.get(TRIAGE_ENV)),
                  cache_tiers=cache_tiers,
                  cache_mem_budget=mem_budget)
        return cfg.replace(**overrides) if overrides else cfg

    def replace(self, **overrides) -> "VerifyConfig":
        """A copy with the given non-``None`` fields replaced."""
        live = {k: v for k, v in overrides.items() if v is not None}
        unknown = set(live) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise TypeError(f"unknown VerifyConfig fields: {sorted(unknown)}")
        return dataclasses.replace(self, **live) if live else self

    # ------------------------------------------- profile-derived defaults

    @property
    def automation_profile(self):
        """The :class:`~repro.profiles.AutomationProfile` this config
        names; raises :class:`~repro.profiles.UnknownProfileError` for
        an unrecognized name."""
        from .profiles import get_profile
        return get_profile(self.profile)

    @property
    def effective_incremental(self) -> bool:
        if self.incremental is not None:
            return self.incremental
        return self.automation_profile.default_incremental

    @property
    def effective_retries(self) -> int:
        if self.retries is not None:
            return self.retries
        return self.automation_profile.default_retries

    @property
    def effective_max_steps(self) -> Optional[int]:
        if self.max_steps is not None:
            return self.max_steps
        return self.automation_profile.max_steps

    @property
    def effective_triage(self) -> str:
        if self.triage is not None:
            return self.triage
        return "on" if self.automation_profile.default_triage else "off"


def default_jobs() -> int:
    """Worker count from ``$REPRO_JOBS`` (1 = serial, the default)."""
    return VerifyConfig.from_env().jobs


class Session:
    """One verification session: a config plus shared cache/stats state.

    ``Session(config)`` takes an explicit :class:`VerifyConfig`;
    ``Session(jobs=4, incremental=True)`` layers keyword overrides over
    :meth:`VerifyConfig.from_env`.  The proof cache (when configured) is
    opened once and shared by every scheduler the session builds, so
    cross-module cache statistics accumulate like a single tool run.
    """

    def __init__(self, config: Optional[VerifyConfig] = None, cache=None,
                 **overrides):
        if config is None:
            config = VerifyConfig.from_env(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self.config = config
        # Resolve the profile eagerly so an unknown name fails at
        # session construction, not mid-run.
        config.automation_profile
        self._cache = None
        self._cache_opened = False
        if cache is not None:
            # An already-open ProofCache injected directly (tests, and
            # the legacy lang shims, pass one around).
            self._cache = cache
            self._cache_opened = True

    # ------------------------------------------------------------ plumbing

    @property
    def cache(self):
        """The session's proof cache (or None): a
        :class:`~repro.cache.tiers.TieredProofCache` when
        ``config.cache_tiers`` is set, the flat
        :class:`~repro.cache.store.ProofCache` otherwise."""
        if not self._cache_opened:
            self._cache_opened = True
            if self.config.cache_dir:
                if self.config.cache_tiers:
                    from .cache.tiers import TieredProofCache
                    self._cache = TieredProofCache(
                        self.config.cache_dir,
                        tiers=self.config.cache_tiers,
                        mem_budget=self.config.cache_mem_budget)
                else:
                    from .cache.store import ProofCache
                    self._cache = ProofCache(self.config.cache_dir)
        return self._cache

    def scheduler(self, config: Optional[VerifyConfig] = None):
        """A fresh :class:`~repro.vc.scheduler.Scheduler` built from this
        session's config (or ``config``) and wired to its shared cache."""
        from .vc.scheduler import Scheduler
        return Scheduler(config or self.config, cache=self.cache)

    # ------------------------------------------------------------- verbs

    def verify_module(self, mod, vc_config=None):
        """Verify a module, returning the detailed ``ModuleResult``.

        A run killed halfway loses nothing it finished when the proof
        cache is on: verifying the module again with the same
        ``cache_dir`` replays those verdicts and solves only the rest.
        """
        from .vc.wp import VcGen
        return VcGen(mod, vc_config).verify_module(self.scheduler())

    def verify(self, mod, vc_config=None):
        """Verify a module; raise ``VerificationFailure`` on failure."""
        from .vc.errors import VerificationFailure
        result = self.verify_module(mod, vc_config)
        if not result.ok:
            raise VerificationFailure(result)
        return result

    def diagnose(self, mod, vc_config=None):
        """Verify with diagnostics forced on; never raises."""
        from .vc.wp import VcGen
        return VcGen(mod, vc_config).verify_module(
            self.scheduler(config=self.config.replace(diagnostics=True)))

    def analyze(self, mod, vc_config=None):
        """Run the static-analysis passes only; no solver is constructed.

        Returns the :class:`repro.analysis.AnalysisReport` regardless of
        the session's ``analyze`` flag (that flag controls the
        verification-time gate, not this explicit verb).
        """
        from .analysis import analyze_module
        return analyze_module(mod, vc_config)

    # --------------------------------------------------------- lifecycle

    # A session holds nothing that outlives a run (warm solver contexts
    # live for one function group), so ``with Session(...)`` only scopes
    # the name.

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def __repr__(self) -> str:
        return f"<Session {self.config}>"
