"""The daemon: an asyncio front door over a resident worker pool.

Request lifecycle (also documented in DESIGN.md)::

    accept → validate → quota admit → fair queue → worker thread:
        build module → Session(base config ⊕ request overrides,
                               shared cache root)
        → delta lookup → proof-cache lookup → solve the rest
          (a fresh solver per obligation)
    → reply (out-of-order by design, matched by request id)

Residency is the point: one proof-cache root is shared by every
request, so a client re-submitting an edited module pays only for
functions whose dependency fingerprints changed (``vc/delta.py``), and
of those only for obligations whose query text changed.  No solver
outlives its obligation: every obligation gets a fresh one.

Concurrency model: the event loop owns all I/O (accept, queue,
replies); verification itself runs on ``ServerConfig.workers``
dedicated threads via ``run_in_executor``.  Each request gets a fresh
:class:`~repro.api.Session` (clean per-request cache counters) over the
shared infrastructure.  The term interner is thread-safe
(``smt/terms.py`` uses atomic ``setdefault``), per-check solver budgets
are per-instance, and fault plans are never installed by the daemon —
the three facts that make in-process threading sound here.

Resilience: every verdict a request finishes is stored atomically in
the shared proof cache, so a daemon killed mid-request and restarted
over the same ``cache_dir`` replays that work on re-submission.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from ..api import Session, VerifyConfig
from ..smt.solver import Stats, solver_constructions
from . import protocol
from .config import ServerConfig
from .queue import FairQueue, QueueFull
from .quota import QuotaExceeded, QuotaLedger, steps_spent

#: Request paths reported in replies and aggregated by ``status``.
PATH_COLD = "cold"
PATH_CACHE = "cache"
PATH_DELTA = "delta"
PATH_STATIC = "static"


class _Pending:
    """One accepted request waiting in the queue."""

    __slots__ = ("request", "writer", "wlock", "enqueued",
                 "effective_max_steps")

    def __init__(self, request: dict, writer, wlock,
                 effective_max_steps: Optional[int]):
        self.request = request
        self.writer = writer
        self.wlock = wlock
        self.enqueued = time.perf_counter()
        self.effective_max_steps = effective_max_steps


class VerifyServer:
    """The long-lived multi-client verification service."""

    def __init__(self, config: Optional[ServerConfig] = None,
                 verify_config: Optional[VerifyConfig] = None):
        self.config = config or ServerConfig.from_env()
        base = verify_config if verify_config is not None \
            else VerifyConfig.from_env()
        # Server invariants, whatever the env said: requests run inline
        # on their worker thread (jobs=1 — the daemon's parallelism *is*
        # the worker pool), no fault plans (the injection registry is
        # process-global and must not be armed under concurrent traffic).
        base = dataclasses.replace(base, jobs=1, fault_plan=None)
        if base.cache_dir:
            # Residency implies delta: with a cache root to store
            # fingerprints in, re-submissions ride the fast path.
            base = dataclasses.replace(base, delta=True)
        self.base = base
        self.ledger = QuotaLedger(self.config.client_quota)
        self.queue: Optional[FairQueue] = None     # built on start()
        self.executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-worker")
        self.port: Optional[int] = None
        self._server = None
        self._workers: list[asyncio.Task] = []
        self._conn_tasks: set = set()
        self._stopped: Optional[asyncio.Event] = None
        self._shutdown_task: Optional[asyncio.Task] = None
        self._shutting_down = False
        self._started = time.monotonic()
        self._stats_lock = threading.Lock()
        self._requests: dict[str, int] = {}        # verb -> count
        self._paths: dict[str, int] = {
            p: 0 for p in (PATH_COLD, PATH_CACHE, PATH_DELTA, PATH_STATIC)}
        self._busy = 0
        self._errors = 0
        # Every verify/diagnose request's run stats, merged: proof-cache
        # hits and tiers, static-tier discharges, solver counters.
        self._totals = Stats()

    # -------------------------------------------------------------- startup

    async def start(self) -> None:
        """Bind and start serving; resolves ``self.port``."""
        self.queue = FairQueue(self.config.queue_depth)
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=self.config.max_source)
        self.port = self._server.sockets[0].getsockname()[1]
        self._workers = [asyncio.create_task(self._worker())
                         for _ in range(self.config.workers)]

    async def serve_forever(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`shutdown`)."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    def run(self) -> None:
        """Synchronous convenience entry point (scripts/serve.py)."""
        asyncio.run(self.serve_forever())

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight work, stop the workers.

        Idempotent and awaitable from several places at once (the
        shutdown verb, tests, signal handlers) — the first caller runs
        the teardown, everyone else awaits the same task.
        """
        self._shutting_down = True
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.ensure_future(self._do_shutdown())
        await asyncio.shield(self._shutdown_task)

    async def _do_shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.queue is not None:
            await self.queue.close()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        # In-flight replies are out; drop connections still idling in
        # readline so no handler task outlives the loop.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self.executor.shutdown(wait=True)
        if self._stopped is not None:
            self._stopped.set()

    # ----------------------------------------------------------- connections

    async def _handle_connection(self, reader, writer) -> None:
        wlock = asyncio.Lock()
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(writer, wlock, protocol.error_reply(
                        None, "request line exceeds "
                              f"{self.config.max_source} bytes"))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                await self._dispatch(line, writer, wlock)
                if self._shutting_down:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass  # shutdown dropped us; close below, don't propagate
        finally:
            self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    RuntimeError):
                pass

    async def _dispatch(self, line: bytes, writer, wlock) -> None:
        req_id = None
        try:
            obj = protocol.decode_line(line)
            raw_id = obj.get("id")
            if isinstance(raw_id, (str, int)):
                req_id = raw_id     # echo it even if validation fails below
            request = protocol.validate_request(obj)
        except protocol.ProtocolError as exc:
            with self._stats_lock:
                self._errors += 1
            await self._send(writer, wlock,
                             protocol.error_reply(req_id, str(exc)))
            return
        verb = request["verb"]
        with self._stats_lock:
            self._requests[verb] = self._requests.get(verb, 0) + 1
        if verb == protocol.STATUS:
            await self._send(writer, wlock,
                             protocol.ok_reply(request["id"],
                                               result=self.status()))
            return
        if verb == protocol.PROFILES:
            await self._send(writer, wlock,
                             protocol.ok_reply(request["id"],
                                               result=self.profiles()))
            return
        if verb == protocol.SHUTDOWN:
            await self._send(writer, wlock, protocol.ok_reply(request["id"]))
            asyncio.ensure_future(self.shutdown())
            return
        # Module verbs: admission-check the quota, then queue.  The
        # admission default is the *effective* step budget (an explicit
        # base max_steps, else the base profile's).
        requested_steps = request["config"].get(
            "max_steps", self.base.effective_max_steps)
        try:
            effective = self.ledger.admit(request["client"], requested_steps)
        except QuotaExceeded as exc:
            with self._stats_lock:
                self._busy += 1
            await self._send(writer, wlock, protocol.busy_reply(
                request["id"], "quota",
                {"used": exc.used, "budget": exc.budget}))
            return
        pending = _Pending(request, writer, wlock, effective)
        try:
            await self.queue.push(request["priority"], request["client"],
                                  pending)
        except QueueFull:
            with self._stats_lock:
                self._busy += 1
            await self._send(writer, wlock, protocol.busy_reply(
                request["id"], "queue-full",
                {"depth": len(self.queue),
                 "capacity": self.config.queue_depth}))

    async def _send(self, writer, wlock, reply: dict) -> None:
        try:
            async with wlock:
                writer.write(protocol.encode(reply))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # client went away; nothing to tell it

    # -------------------------------------------------------------- workers

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            pending = await self.queue.pop()
            if pending is None:
                return
            queued_ms = (time.perf_counter() - pending.enqueued) * 1000.0
            try:
                reply = await loop.run_in_executor(
                    self.executor, self._process, pending)
            except Exception as exc:  # worker must survive anything
                with self._stats_lock:
                    self._errors += 1
                reply = protocol.error_reply(
                    pending.request["id"],
                    f"internal error: {type(exc).__name__}: {exc}")
            server = reply.get("server")
            if isinstance(server, dict):
                server["queued_ms"] = round(queued_ms, 3)
            await self._send(pending.writer, pending.wlock, reply)

    # ------------------------------------------------------- request engine

    def _request_config(self, pending: _Pending) -> VerifyConfig:
        cfg = self.base.replace(**pending.request["config"])
        if (pending.effective_max_steps is not None
                and cfg.max_steps != pending.effective_max_steps):
            cfg = cfg.replace(max_steps=pending.effective_max_steps)
        return cfg

    def _process(self, pending: _Pending) -> dict:
        """Verify/analyze/diagnose one request (runs on a worker thread)."""
        from ..profiles import UnknownProfileError
        request = pending.request
        try:
            mod = protocol.build_module(request["module"])
        except protocol.ProtocolError as exc:
            with self._stats_lock:
                self._errors += 1
            return protocol.error_reply(request["id"], str(exc))
        cfg = self._request_config(pending)
        try:
            cfg.automation_profile   # fail fast on an unknown name
        except UnknownProfileError as exc:
            # A structured reply (the message lists the shipped names)
            # instead of an opaque internal error.
            with self._stats_lock:
                self._errors += 1
            return protocol.error_reply(request["id"], str(exc))
        if request["verb"] == protocol.ANALYZE:
            with Session(cfg) as session:
                report = session.analyze(mod)
            payload = report.to_json()
            if cfg.effective_triage != "off":
                # Additive (schema stays v2): what the static tier would
                # discharge, per function — no solver is constructed.
                from ..analysis.absint import triage_preview
                try:
                    payload["triage"] = triage_preview(mod)
                except Exception as exc:
                    payload["triage"] = {
                        "error": f"{type(exc).__name__}: {exc}"}
            return protocol.ok_reply(request["id"], result=payload,
                                     server={"path": "analyze",
                                             "solvers_built": 0,
                                             "steps_spent": 0})
        built0 = solver_constructions()
        with Session(cfg) as session:
            if request["verb"] == protocol.DIAGNOSE:
                result = session.diagnose(mod)
            else:
                result = session.verify_module(mod)
        built = solver_constructions() - built0
        stats = result.stats or {}
        spent = steps_spent(stats)
        self.ledger.charge(request["client"], spent)
        path = self._classify(result, built)
        with self._stats_lock:
            self._paths[path] += 1
            self._totals.merge(stats)
        server = {
            "path": path,
            "solvers_built": built,
            "steps_spent": spent,
            "delta_skips": int(stats.get("delta_skips", 0) or 0),
            "cache_hits": int(stats.get("cache_hits", 0) or 0),
            "cache_misses": int(stats.get("cache_misses", 0) or 0),
            "portfolio_races": int(stats.get("portfolio_races", 0) or 0),
            "portfolio_wins": int(stats.get("portfolio_wins", 0) or 0),
            "static_proved": int(stats.get("static_proved", 0) or 0),
            "solver_constructions_avoided": int(
                stats.get("solver_constructions_avoided", 0) or 0),
        }
        return protocol.ok_reply(request["id"], result=result.to_json(),
                                 server=server)

    @staticmethod
    def _classify(result, solvers_built: int) -> str:
        """Which fast path (if any) served the request — delta beats
        cache beats static beats cold, matching how much work each skips.
        ``static``: the static tier answered every obligation, so no
        solver was built and the cache was never asked."""
        stats = result.stats or {}
        if stats.get("delta_skips"):
            return PATH_DELTA
        if stats.get("cache_hits") and solvers_built == 0:
            return PATH_CACHE
        obligations = [o for f in result.functions for o in f.obligations]
        if (solvers_built == 0 and obligations
                and all(o.answered_by == "static" for o in obligations)):
            return PATH_STATIC
        return PATH_COLD

    # -------------------------------------------------------------- status

    def profiles(self) -> dict:
        """The ``profiles`` verb payload: the shipped detents, the race
        order, and the server's base profile and race width."""
        from ..profiles import PROFILES, RACE_ORDER
        return {
            "profiles": [p.describe() for p in PROFILES.values()],
            "race_order": list(RACE_ORDER),
            "base_profile": self.base.profile,
            "base_portfolio": self.base.portfolio,
        }

    def status(self) -> dict:
        """The ``status`` verb payload."""
        with self._stats_lock:
            requests = dict(self._requests)
            paths = dict(self._paths)
            busy = self._busy
            errors = self._errors
            totals = self._totals
            hits, misses = totals.cache_hits, totals.cache_misses
            static_proved = totals.static_proved
            solvers_avoided = totals.solver_constructions_avoided
            tier_totals = {"mem_hits": totals.mem_hits,
                           "disk_hits": totals.disk_hits,
                           "quarantined": totals.quarantined}
        total = hits + misses
        return {
            "uptime_s": round(time.monotonic() - self._started, 3),
            "workers": self.config.workers,
            "requests": requests,
            "paths": paths,
            "busy_replies": busy,
            "errors": errors,
            "queue": (self.queue.snapshot() if self.queue is not None
                      else {"depth": 0,
                            "capacity": self.config.queue_depth,
                            "by_band": {}}),
            # No solver is reused, so nothing is ever warm; the traced
            # edit_daemon runner (perfbench/runners.py) still reads these
            # two keys.
            "warm": {"hits": 0, "misses": 0},
            "quota": self.ledger.snapshot(),
            "cache": {"hits": hits, "misses": misses,
                      "hit_rate": round(hits / total, 4) if total else None,
                      "dir": self.base.cache_dir,
                      "tiers": self.base.cache_tiers,
                      "tier_counters": tier_totals},
            "triage": {"mode": self.base.effective_triage,
                       "static_proved": static_proved,
                       "solver_constructions_avoided": solvers_avoided},
        }
