"""The three workloads: set-up, timed loops, verdict checks and guards.

Each runner returns an :class:`Outcome`: the end-to-end metrics of an
untraced run, or the per-layer metrics of a traced one, plus the counts
and human-readable lines ``run.py`` prints.  Timings (set-up, a module
verification, a block of daemon requests) are scaled to the reference
speed of :mod:`speed`; raw wall times are printed beside them.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from dataclasses import dataclass, field

import layers
import speed
import stats
import workloads as W
from spans import Tracer, layer_totals, uncovered_share

_clock = time.perf_counter

# How long a client waits for one reply before the request counts as
# failed (rejects are bounded per obligation by REJECT_JOB_TIMEOUT).
REQUEST_TIMEOUT = 120.0

# Blocks generated for edit_daemon; a run stops at its deadline, long
# before the stream runs out.
STREAM_BLOCKS = 40

# Blocks of the stream sent after the warming pass and before timing
# starts: the first blocks after a warming pass run up to twice as long
# as later ones, while the daemon's warm contexts and caches fill.
WARM_BLOCKS = 2

# Blocks a traced edit_daemon run sends untraced, as the baseline of the
# tracing overhead.
UNTRACED_BLOCKS = 2


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)     # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    guards_ok: bool = True
    lines: list = field(default_factory=list)
    tracer: object = None                           # traced runs only

    def fail(self, message: str) -> None:
        self.guards_ok = False
        self.lines.append(f"GUARD FAILED: {message}")

    def put(self, name: str, value: float, unit: str, samples) -> None:
        self.metrics[name] = (value, unit)
        self.lines.append(f"{name:28s} {value:14.6f} {unit:6s} "
                          f"(n={samples})")


def all_proved(functions) -> bool:
    """Every obligation of every function is PROVED (and there is one)."""
    statuses = [o for f in functions for o in f]
    return bool(statuses) and all(s == "proved" for s in statuses)


def _series(label: str, values, unit: str = "s") -> str:
    return (f"{label}: " + " ".join(f"{v:.3f}" for v in values)
            + f" (median {stats.median(values):.3f} {unit})")


def _tail_line(label: str, samples) -> str:
    tail = stats.tail_percentile(samples)
    if tail is None:
        return (f"{label}: too few samples ({len(samples)}) for a tail "
                f"percentile with {stats.MIN_BEYOND} beyond it")
    p, value = tail
    return f"{label}_p{p:g}_ms {value:.3f} ms (n={len(samples)})"


def _put_setup(out: Outcome, started: tuple) -> None:
    """``setup_s``: process start to now, scaled to the reference speed
    sampled at process start (``started[1]``) and now."""
    wall = _clock() - started[0]
    out.put("setup_s", speed.scaled(wall, started[1],
                                    speed.reference_seconds()), "s", 1)
    out.lines.append(f"setup wall {wall:.3f} s")


def _install(tracer: Tracer, *extra_targets) -> layers.Claims:
    claims = layers.Claims()
    tracer.install(layers.targets(claims) + list(extra_targets))
    return claims


def _layer_outcome(out: Outcome, tracer, counters, claims, units,
                   extra) -> Outcome:
    out.tracer = tracer
    totals = layer_totals(tracer.spans)
    metrics = layers.per_layer_metrics(totals, counters, claims.count,
                                       units, extra)
    for name, value in metrics.items():
        out.put(name, value, layers.PER_LAYER[name], f"{units:.2f} units")
    out.lines.append(f"spans recorded: {len(tracer.spans)}")
    return out


# ------------------------------------------------------------------ cold

@dataclass
class ModuleRun:
    name: str
    seconds: float          # wall time
    scaled: float           # wall time at the reference speed
    query_bytes: int
    solvers: int
    ok: bool
    stats: dict


def verify_pass(modules, tracer=None) -> list:
    """Verify every ``(spec, module)`` in a fresh cache-less Session."""
    from repro.api import Session, VerifyConfig
    from repro.smt.solver import solver_constructions
    config = VerifyConfig(analyze=True)
    rows = []
    before = speed.reference_seconds()
    for spec, mod in modules:
        if tracer is not None:
            tracer.set_ctx(spec.name)
        built0 = solver_constructions()
        t0 = _clock()
        with Session(config) as session:
            result = session.verify_module(mod)
        seconds = _clock() - t0
        built = solver_constructions() - built0
        after = speed.reference_seconds()
        ok = (result.ok and not result.rejected and all_proved(
            [o.status for o in f.obligations] for f in result.functions))
        rows.append(ModuleRun(spec.name, seconds,
                              speed.scaled(seconds, before, after),
                              result.query_bytes, built, ok,
                              result.stats or {}))
        before = after
    return rows


def run_cold(specs, seed: int, seconds: float, trace: bool,
             started: tuple) -> Outcome:
    """``cold_smt`` / ``cold_idiom``: one closed-loop caller verifying the
    seeded module order pass after pass, each module in a fresh Session
    with no proof cache, the default profile and the analysis gate on."""
    out = Outcome()
    order = W.module_order(specs, seed)

    def fresh_modules():
        return [(spec, W.build_idiom_module(spec, seed)) for spec in order]

    warm = verify_pass(fresh_modules())
    reference = {r.name: (r.solvers, r.query_bytes) for r in warm}
    for r in warm:
        if not r.ok:
            out.fail(f"warm-up: {r.name} did not verify")
    out.lines.append("module order: " + " ".join(s.name for s in order))

    tracer = baseline = None
    if trace:
        baseline = verify_pass(fresh_modules())
        tracer = Tracer()
        claims = _install(tracer)
    else:
        _put_setup(out, started)

    passes = []
    t_start = _clock()
    try:
        while not passes or _clock() - t_start < seconds:
            passes.append(verify_pass(fresh_modules(), tracer))
    finally:
        t_end = _clock()
        if tracer is not None:
            tracer.uninstall()
    rows = [r for pass_rows in passes for r in pass_rows]
    out.attempted = len(rows)
    for r in rows:
        if not r.ok:
            out.failed += 1
            out.lines.append(f"verdict mismatch: {r.name} did not verify")
        elif (r.solvers, r.query_bytes) != reference[r.name]:
            # A timed pass must do the warm-up's work exactly: anything
            # else means state leaked between passes and the run is warm.
            out.failed += 1
            out.fail(f"{r.name}: {r.solvers} solvers / {r.query_bytes} "
                     f"query bytes, warm-up had {reference[r.name]}")
    # A pass is the sum of its modules' times; each module's median over
    # the passes is steadier than the median of the pass sums.
    module_median = {spec.name: stats.median(
        [r.scaled for r in rows if r.name == spec.name]) for spec in order}
    pass_s = sum(module_median.values())
    if not trace:
        out.put("verify_s", pass_s, "s", len(passes))
        out.put("requests_per_s", len(order) / pass_s, "1/s", len(rows))
        out.lines.append(_series("pass scaled", [sum(r.scaled for r in p)
                                                 for p in passes]))
        out.lines.append(_series("pass wall", [sum(r.seconds for r in p)
                                              for p in passes]))
        latencies = [r.seconds * 1000.0 for r in rows]
        out.lines.append(f"request_p50_ms {stats.median(latencies):.3f} ms "
                         f"(n={len(latencies)})")
        out.lines.append(_tail_line("request", latencies))
        out.lines.append(
            f"solvers/pass {sum(v[0] for v in reference.values())}, "
            f"query bytes/pass {sum(v[1] for v in reference.values())}")
        for spec in order:
            mine = [r for r in rows if r.name == spec.name]
            out.lines.append(
                f"  module {spec.name:24s} "
                f"{stats.median([r.scaled for r in mine]):9.4f} s scaled "
                f"{stats.median([r.seconds for r in mine]):9.4f} s wall "
                f"(n={len(mine)})  {spec.system}")
        return out

    counters: dict = {}
    for r in rows:
        layers.add_counters(counters, r.stats, r.query_bytes, r.solvers)
    extra = {"trace.overhead_s": pass_s - sum(r.scaled for r in baseline),
             "trace.uncovered_share":
                 uncovered_share(tracer.spans, t_start, t_end)}
    for r in baseline:
        extra[f"module.{r.name}.verify_s"] = r.scaled
        extra[f"module.{r.name}.query_bytes"] = float(r.query_bytes)
    return _layer_outcome(out, tracer, counters, claims, len(passes), extra)


# ------------------------------------------------------------ edit_daemon

class _Daemon:
    """A VerifyServer on a background thread of this process."""

    def __init__(self, cache_dir: str):
        from repro.api import VerifyConfig
        from repro.server import ServerConfig, VerifyServer
        self.server = VerifyServer(
            ServerConfig(port=0, workers=os.cpu_count() or 1),
            VerifyConfig(cache_dir=cache_dir, cache_tiers="mem,disk"))
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="perfbench-daemon")

    def _run(self):
        async def main():
            await self.server.start()
            self._started.set()
            await self.server.serve_forever()
        asyncio.run(main())

    def start(self) -> "_Daemon":
        self._thread.start()
        if not self._started.wait(60):
            raise RuntimeError("daemon did not start")
        return self

    def client(self, name: str):
        from repro.server import ServerClient
        return ServerClient(port=self.server.port, client=name,
                            timeout=REQUEST_TIMEOUT).connect()

    def stop(self) -> None:
        if self._thread.is_alive() and self.server.port is not None:
            with self.client("perfbench-stop") as client:
                client.shutdown()
        self._thread.join(120)
        if self._thread.is_alive():
            raise RuntimeError("daemon thread did not stop")


@dataclass
class Reply:
    req: dict
    sent: float
    received: float
    reply: dict

    @property
    def ms(self) -> float:
        return (self.received - self.sent) * 1000.0


def check_reply(r: Reply) -> str:
    """Why a reply differs from its known answer ("" when it matches).

    The answers follow from how each request is built: an unchanged or
    edited module (the edit adds a true precondition) verifies in full;
    a reject (a false assert prepended) fails, only in that function.
    """
    reply, req = r.reply, r.req
    if reply.get("status") != "ok":
        return (f"status {reply.get('status')}: "
                f"{reply.get('reason') or reply.get('error')}")
    result = reply.get("result") or {}
    if req["cls"] == W.REJECT:
        failures = result.get("failures") or []
        if result.get("ok") or not failures:
            return "broken edit was not rejected"
        named = {f.get("function") for f in failures}
        if named != {req["function"]}:
            return f"failures name {sorted(named)}, not {req['function']}"
        return ""
    if not result.get("ok") or not all_proved(
            [o["status"] for o in f["obligations"]]
            for f in result.get("functions") or []):
        return "intact module did not verify"
    if req["cls"] == W.DELTA and reply["server"]["path"] != "delta":
        return f"delta request served by {reply['server']['path']}"
    return ""


class _Clients:
    """``count`` closed-loop clients, one connection each, that send a
    list of requests between them and wait for every reply."""

    def __init__(self, daemon: _Daemon, tracer=None, count: int = 2):
        self.tracer = tracer
        self.names = [f"client{i}" for i in range(count)]
        self.conns = [daemon.client(name) for name in self.names]
        self.sent = [0] * count

    def close(self) -> None:
        for conn in self.conns:
            conn.close()

    def run(self, requests: list) -> list:
        lock = threading.Lock()
        cursor = [0]
        replies: list = []

        def loop(idx: int) -> None:
            conn, name, tracer = self.conns[idx], self.names[idx], self.tracer
            while True:
                with lock:
                    if cursor[0] >= len(requests):
                        return
                    req = requests[cursor[0]]
                    cursor[0] += 1
                self.sent[idx] += 1
                frame = None
                if tracer is not None:
                    # ServerClient numbers its requests "<client>-<n>";
                    # the worker's span claims this one as its parent.
                    tracer.set_ctx(req["seq"])
                    frame = tracer.open("client.request")
                    tracer.link(f"{name}-{self.sent[idx]}", frame[0])
                t0 = _clock()
                try:
                    reply = conn.request(
                        req["verb"],
                        module={"source": req["source"], "builder": "build"},
                        config=req["config"] or None)
                except Exception as exc:  # counted as a failed request
                    reply = {"status": "error", "error": repr(exc)}
                t1 = _clock()
                if frame is not None:
                    tracer.close(frame)
                with lock:
                    replies.append(Reply(req, t0, t1, reply))

        threads = [threading.Thread(target=loop, args=(i,), name=name)
                   for i, name in enumerate(self.names)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(len(requests) * REQUEST_TIMEOUT)
            if t.is_alive():
                raise RuntimeError(f"{t.name} did not finish")
        return sorted(replies, key=lambda r: r.req["seq"])


def _block_size() -> int:
    return sum(W.BLOCK_MIX.values()) * len(W.COLD_SMT)


def run_blocks(clients: _Clients, stream: list, seconds: float,
               max_blocks: int = 0) -> tuple:
    """Send the stream block by block until ``seconds`` have passed, or
    ``max_blocks`` blocks when that is given; returns ``(replies, walls,
    scaled)``, one wall and one scaled time per block.  The reference
    loop is timed between blocks, while the daemon is idle."""
    size = _block_size()
    replies, walls, scaled = [], [], []
    t_start = _clock()
    before = speed.reference_seconds()
    for first in range(0, len(stream), size):
        done = (len(walls) >= max_blocks if max_blocks
                else _clock() - t_start >= seconds)
        if walls and done:
            break
        t0 = _clock()
        replies += clients.run(stream[first:first + size])
        wall = _clock() - t0
        after = speed.reference_seconds()
        walls.append(wall)
        scaled.append(speed.scaled(wall, before, after))
        before = after
    return replies, walls, scaled


def run_daemon(seed: int, seconds: float, trace: bool, started: tuple,
               workdir: str) -> Outcome:
    """``edit_daemon``: a resident daemon, warmed by one pass over the
    cold_smt modules and :data:`WARM_BLOCKS` blocks of the stream, then
    two closed-loop clients sending the seeded stream of delta / replan /
    edit / reject requests, block by block.

    A traced run first sends :data:`UNTRACED_BLOCKS` blocks untraced; the
    tracing overhead is the traced minus the untraced mean block time.
    """
    out = Outcome()
    cache_dir = os.path.join(workdir, "cache")
    os.makedirs(cache_dir)
    if os.listdir(cache_dir):
        out.fail(f"cache directory {cache_dir} is not empty")
    daemon = _Daemon(cache_dir).start()
    try:
        with daemon.client("warmer") as warmer:
            for spec in W.COLD_SMT:
                reply = warmer.verify(source=spec.source())
                if reply.get("status") != "ok" or not reply["result"]["ok"]:
                    out.fail(f"warming pass: {spec.name} did not verify")
            editable = {spec.name: W.editable_functions(spec.build())
                        for spec in W.COLD_SMT}
            stream = W.request_stream(seed, W.COLD_SMT, editable,
                                      STREAM_BLOCKS)
            tracer = claims = None
            untraced: tuple = ([], [], [])
            clients = _Clients(daemon)
            try:
                warming = run_blocks(clients, stream, 0.0, WARM_BLOCKS)[0]
                stream = stream[WARM_BLOCKS * _block_size():]
                if trace:
                    untraced = run_blocks(clients, stream, 0.0,
                                          UNTRACED_BLOCKS)
                    stream = stream[UNTRACED_BLOCKS * _block_size():]
                    clients.close()
                    tracer = Tracer()
                    clients = _Clients(daemon, tracer)
                    claims = _install(tracer, layers.server_target())
                else:
                    _put_setup(out, started)
                status0 = warmer.status()["result"]
                t_start = _clock()
                try:
                    replies, walls, scaled = run_blocks(clients, stream,
                                                        seconds)
                finally:
                    t_end = _clock()
                    if tracer is not None:
                        tracer.uninstall()
                status1 = warmer.status()["result"]
            finally:
                clients.close()
    finally:
        daemon.stop()

    checked = warming + untraced[0] + replies
    out.attempted = len(checked)
    for r in checked:
        why = check_reply(r)
        if why:
            out.failed += 1
            out.lines.append(f"verdict mismatch: request {r.req['seq']} "
                             f"({r.req['cls']} {r.req['module']}): {why}")
            if r.req["cls"] == W.DELTA and "served by" in why:
                out.fail(why)
    by_class = {cls: [r.ms for r in replies if r.req["cls"] == cls]
                for cls in W.CLASSES}
    class_p50 = {cls: stats.median(v) for cls, v in by_class.items()}
    latencies = [r.ms for r in replies]
    for cls in W.CLASSES:
        out.lines.append(f"{cls}_p50_ms {class_p50[cls]:.3f} ms "
                         f"(n={len(by_class[cls])})")
    out.lines.append(f"request_p50_ms {stats.median(latencies):.3f} ms "
                     f"(n={len(latencies)})")
    out.lines.append(_tail_line("request", latencies))
    out.lines.append(_series("block wall", walls))
    if not trace:
        # Blocks differ in which functions they edit; the mean over the
        # run's blocks averages that out, where a median of ten would not.
        out.put("verify_s", stats.mean(scaled), "s", len(scaled))
        out.put("requests_per_s", len(replies) / sum(scaled), "1/s",
                len(replies))
        return out

    counters: dict = {}
    queued, overheads = [], []
    paths = dict.fromkeys(layers.SERVER_PATHS, 0)
    for r in replies:
        server = r.reply.get("server") or {}
        result = r.reply.get("result") or {}
        layers.add_counters(counters, result.get("stats") or {},
                            int(result.get("query_bytes") or 0),
                            int(server.get("solvers_built") or 0))
        if "queued_ms" in server:
            queued.append(server["queued_ms"])
            overheads.append(r.ms - server["queued_ms"]
                             - 1000.0 * float(result.get("seconds") or 0))
        if server.get("path") in paths:
            paths[server["path"]] += 1
    warm0, warm1 = status0["warm"], status1["warm"]
    warm_hits = warm1["hits"] - warm0["hits"]
    warm_total = warm_hits + warm1["misses"] - warm0["misses"]
    worker_spans = [s for s in tracer.spans if s.name != "client.request"]
    extra = {
        "server.queued_ms_p95": stats.percentile(queued, 95),
        "server.overhead_ms_p50": stats.median(overheads),
        "server.warm_hit_ratio": warm_hits / warm_total if warm_total else 0.0,
        **{f"server.paths.{p}": n / len(replies) for p, n in paths.items()},
        **{f"traced.{cls}_p50_ms": v for cls, v in class_p50.items()},
        "traced.request_p95_ms": stats.percentile(latencies, 95),
        "trace.overhead_s": stats.mean(scaled) - stats.mean(untraced[2]),
        "trace.uncovered_share": uncovered_share(worker_spans, t_start, t_end),
    }
    return _layer_outcome(out, tracer, counters, claims, len(scaled), extra)
