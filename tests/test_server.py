"""The verification service daemon: repro.server end to end.

Unit layers first (protocol, fair queue, quota ledger), then the daemon
itself running on a real socket in a background thread, driven through
:class:`ServerClient`.

The acceptance bar mirrors the batch pipeline's: a daemon serving
concurrent clients must produce verdicts byte-identical (modulo timing
fields, per ``tests.test_incremental._normalize``) to plain
``Session.verify_module`` runs, and a re-submitted module with one
edited function must re-solve only the changed-fingerprint functions —
asserted via the per-request solver-construction counts the server
reports.
"""

import asyncio
import importlib
import json
import random
import threading
import time

import pytest

from repro.api import Session, VerifyConfig
from repro.server import ServerClient, ServerConfig, VerifyServer
from repro.server import protocol
from repro.server.daemon import PATH_COLD, PATH_DELTA
from repro.server.queue import FairQueue, FairQueueCore, QueueFull
from repro.server.quota import QuotaExceeded, QuotaLedger, steps_spent

from tests.test_incremental import _normalize

#: The five shipped case studies, in the protocol's builder form.
CASE_STUDIES = [
    "repro.systems.ironkv.delegation_map:build_default_module",
    "repro.systems.nr.model:build_nr_core_module",
    "repro.systems.pagetable.view_verified:build_view_module",
    "repro.systems.mimalloc.verified:build_bit_tricks_module",
    "repro.systems.plog.crc_verified:build_crc_table_module",
]

MODULE_V1 = '''
from repro.lang import Module, U64, exec_fn, lit, ret, var

def build():
    mod = Module("served_mod")
    x = var("x", U64)
    exec_fn(mod, "inc", [("x", U64)], ret=("r", U64),
            requires=[x < lit(1000)],
            ensures=[var("r", U64).eq(x + lit(1))],
            body=[ret(x + lit(1))])
    exec_fn(mod, "dbl", [("x", U64)], ret=("r", U64),
            requires=[x < lit(500)],
            ensures=[var("r", U64).eq(x + x)],
            body=[ret(x + x)])
    return mod
'''

# The edit: dbl's contract bound changes; inc's fingerprint is untouched.
MODULE_V2 = MODULE_V1.replace("lit(500)", "lit(400)")

BROKEN_SRC = '''
from repro.lang import Module, U64, exec_fn, lit, ret, var

def build():
    mod = Module("broken_post")
    x = var("x", U64)
    exec_fn(mod, "bad", [("x", U64)], ret=("r", U64),
            requires=[x < lit(10)],
            ensures=[var("r", U64).eq(x + lit(2))],
            body=[ret(x + lit(1))])
    return mod
'''

SLOW_SRC = '''
import time
from repro.lang import Module, U64, exec_fn, lit, ret, var

def build():
    time.sleep({delay})
    mod = Module("slow_mod_{tag}")
    x = var("x", U64)
    exec_fn(mod, "inc", [("x", U64)], ret=("r", U64),
            requires=[x < lit(100)],
            ensures=[var("r", U64).eq(x + lit(1))],
            body=[ret(x + lit(1))])
    return mod
'''


def _build(dotted: str):
    mod_path, _, attr = dotted.partition(":")
    return getattr(importlib.import_module(mod_path), attr)()


# ---------------------------------------------------------------- protocol


class TestProtocol:
    def test_encode_decode_roundtrip(self):
        obj = {"id": "r1", "verb": "status", "nested": {"a": [1, 2]}}
        frame = protocol.encode(obj)
        assert frame.endswith(b"\n") and b"\n" not in frame[:-1]
        assert protocol.decode_line(frame) == obj

    def test_validate_fills_defaults(self):
        req = protocol.validate_request(
            {"id": 7, "verb": "verify",
             "module": {"builder": "pkg.mod:build"}})
        assert req["client"] == protocol.DEFAULT_CLIENT
        assert req["priority"] == 0
        assert req["config"] == {}
        assert req["module"] == {"builder": "pkg.mod:build"}

    @pytest.mark.parametrize("bad", [
        {"verb": "verify", "module": {"builder": "a:b"}},       # no id
        {"id": "r", "verb": "frobnicate"},                      # bad verb
        {"id": "r", "verb": "verify", "module": {"builder": "a:b"},
         "client": ""},                                         # empty client
        {"id": "r", "verb": "verify", "module": {"builder": "a:b"},
         "priority": True},                                     # bool priority
        {"id": "r", "verb": "verify"},                          # no module
        {"id": "r", "verb": "verify",
         "module": {"builder": "no_colon"}},                    # bad builder
        {"id": "r", "verb": "verify", "module": {"source": "x = 1"}},
    ])
    def test_validate_rejects(self, bad):
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_request(bad)

    def test_server_owned_config_fields_rejected(self):
        for field in ("cache_dir", "jobs", "fault_plan", "journal_dir",
                      "incremental"):
            with pytest.raises(protocol.ProtocolError) as exc:
                protocol.validate_request(
                    {"id": "r", "verb": "verify",
                     "module": {"builder": "a:b"},
                     "config": {field: "x"}})
            assert field in str(exc.value)

    def test_allowed_overrides_pass(self):
        req = protocol.validate_request(
            {"id": "r", "verb": "verify", "module": {"builder": "a:b"},
             "config": {"max_steps": 10, "diagnostics": True}})
        assert req["config"] == {"max_steps": 10, "diagnostics": True}

    def test_build_module_dotted(self):
        mod = protocol.build_module(
            {"builder": CASE_STUDIES[4]})
        assert mod.name

    def test_build_module_source(self):
        mod = protocol.build_module({"source": MODULE_V1, "builder": "build"})
        assert mod.name == "served_mod"

    @pytest.mark.parametrize("spec", [
        {"builder": "repro.no_such_module:build"},
        {"builder": "repro.api:no_such_attr"},
        {"source": "def build():\n    raise RuntimeError('boom')",
         "builder": "build"},
        {"source": "x = 1", "builder": "build"},
    ])
    def test_build_module_failures_are_protocol_errors(self, spec):
        with pytest.raises(protocol.ProtocolError):
            protocol.build_module(spec)


# --------------------------------------------------------------- fair queue


class TestFairQueue:
    def test_priority_bands_strict(self):
        q = FairQueueCore(depth=10)
        q.push(0, "a", "low-1")
        q.push(5, "a", "high-1")
        q.push(0, "a", "low-2")
        q.push(5, "b", "high-2")
        assert [q.pop() for _ in range(4)] == \
            ["high-1", "high-2", "low-1", "low-2"]

    def test_round_robin_within_band(self):
        q = FairQueueCore(depth=10)
        for i in range(3):
            q.push(0, "streamer", f"s{i}")
        q.push(0, "visitor", "v0")
        # The visitor waits one rotation, not three slots.
        assert [q.pop() for _ in range(4)] == ["s0", "v0", "s1", "s2"]

    def test_fifo_within_client(self):
        q = FairQueueCore(depth=10)
        for i in range(4):
            q.push(0, "a", i)
        assert [q.pop() for _ in range(4)] == [0, 1, 2, 3]

    def test_queue_full(self):
        q = FairQueueCore(depth=2)
        q.push(0, "a", 1)
        q.push(0, "b", 2)
        with pytest.raises(QueueFull):
            q.push(0, "c", 3)
        assert q.pop() == 1
        q.push(0, "c", 3)           # capacity freed

    def test_pop_empty_is_none(self):
        assert FairQueueCore(depth=2).pop() is None

    def test_snapshot(self):
        q = FairQueueCore(depth=8)
        q.push(0, "a", 1)
        q.push(0, "a", 2)
        q.push(3, "b", 3)
        snap = q.snapshot()
        assert snap == {"depth": 3, "capacity": 8,
                        "by_band": {"0": {"a": 2}, "3": {"b": 1}}}

    def test_async_close_drains_then_none(self):
        async def scenario():
            q = FairQueue(depth=4)
            await q.push(0, "a", "item")
            await q.close()
            first = await q.pop()
            second = await q.pop()
            with pytest.raises(QueueFull):
                await q.push(0, "a", "late")
            return first, second
        assert asyncio.run(scenario()) == ("item", None)


# ------------------------------------------------------------ quota ledger


class TestQuotaLedger:
    def test_disabled_passes_through(self):
        ledger = QuotaLedger(0)
        assert not ledger.enabled
        assert ledger.admit("a", 123) == 123
        assert ledger.admit("a", None) is None
        assert ledger.remaining("a") is None

    def test_effective_cap_is_stable_across_spend(self):
        # The admission cap must be a *constant* per client (min of the
        # request and the full budget) — never the running balance.
        # Budgets participate in proof-cache and delta fingerprints, so
        # a balance-derived cap would give every request a different
        # config and no repeat request would ever hit a cache again.
        ledger = QuotaLedger(100)
        assert ledger.admit("a", None) == 100
        assert ledger.admit("a", 10 ** 9) == 100
        assert ledger.admit("a", 5) == 5
        ledger.charge("a", 90)
        assert ledger.admit("a", None) == 100      # not 10
        assert ledger.remaining("a") == 10

    def test_exhaustion_refuses_and_counts(self):
        ledger = QuotaLedger(50)
        ledger.charge("greedy", 50)
        with pytest.raises(QuotaExceeded) as exc:
            ledger.admit("greedy", None)
        assert exc.value.used == 50 and exc.value.budget == 50
        snap = ledger.snapshot()
        assert snap["clients"]["greedy"]["refused"] == 1
        assert snap["clients"]["greedy"]["remaining"] == 0
        # Other clients are unaffected.
        assert ledger.admit("polite", None) == 50

    def test_steps_spent_sums_solver_counters(self):
        stats = {"conflicts": 3, "rounds": 4, "instantiations": 5,
                 "mbqi_instantiations": 1, "cache_hits": 99}
        assert steps_spent(stats) == 13
        assert steps_spent({}) == 0


# ------------------------------------------------------------------ daemon


class _Daemon:
    """A live VerifyServer on an ephemeral port, in a background thread."""

    def __init__(self, server_cfg=None, verify_cfg=None):
        self.server = VerifyServer(
            server_cfg or ServerConfig(port=0, workers=2),
            verify_cfg if verify_cfg is not None else VerifyConfig())
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            await self.server.start()
            self._started.set()
            await self.server.serve_forever()
        asyncio.run(main())

    def __enter__(self):
        self._thread.start()
        assert self._started.wait(15), "daemon failed to start"
        return self

    def client(self, name="anon", timeout=180.0):
        return ServerClient("127.0.0.1", self.server.port,
                            client=name, timeout=timeout)

    def __exit__(self, exc_type, exc, tb):
        if self._thread.is_alive():
            try:
                with self.client("teardown") as c:
                    c.shutdown()
            except Exception:
                pass
            self._thread.join(30)
        assert not self._thread.is_alive(), "daemon thread did not exit"


class TestDaemon:
    def test_cold_delta_edit_lifecycle(self, tmp_path):
        """Cold solve → identical re-submission rides the delta path with
        zero solver constructions → a one-function edit re-solves only
        the changed fingerprint.  Verdicts stay byte-identical.

        Triage off: the fixture's obligations must actually reach the
        solver so cold-vs-delta solver constructions witness the path."""
        cfg = VerifyConfig(cache_dir=str(tmp_path / "cache"),
                           triage="off")
        with _Daemon(verify_cfg=cfg) as d, d.client("editor") as c:
            cold = c.verify(source=MODULE_V1, builder="build")
            assert cold["status"] == "ok" and cold["result"]["ok"]
            assert cold["server"]["path"] == PATH_COLD
            assert cold["server"]["solvers_built"] > 0
            assert cold["server"]["queued_ms"] >= 0

            again = c.verify(source=MODULE_V1, builder="build")
            assert again["server"]["path"] == PATH_DELTA
            assert again["server"]["solvers_built"] == 0
            assert again["server"]["delta_skips"] == 2
            assert _normalize(again["result"]) == _normalize(cold["result"])

            edited = c.verify(source=MODULE_V2, builder="build")
            assert edited["result"]["ok"]
            assert edited["server"]["delta_skips"] == 1, \
                "only the edited function may re-solve"
            assert edited["server"]["solvers_built"] > 0

            status = c.status()["result"]
            assert status["paths"]["cold"] == 1
            assert status["paths"]["delta"] >= 1
            assert status["requests"]["verify"] == 3
            # Every obligation gets a fresh solver: nothing is warm, but
            # the keys stay for readers of the status payload.
            assert status["warm"] == {"hits": 0, "misses": 0}
            assert status["cache"]["dir"] == cfg.cache_dir

    def test_eight_concurrent_clients_match_batch(self, tmp_path):
        """Acceptance: 8 concurrent clients submitting the five shipped
        case studies get verdicts byte-identical to batch Session runs."""
        with Session(VerifyConfig()) as batch:
            expected = {dotted: _normalize(batch.verify_module(
                _build(dotted)).to_json()) for dotted in CASE_STUDIES}

        cfg = VerifyConfig(cache_dir=str(tmp_path / "cache"))
        failures = []

        def one_client(idx):
            order = list(CASE_STUDIES)
            random.Random(idx).shuffle(order)
            try:
                with d.client(f"client-{idx}") as c:
                    for dotted in order:
                        reply = c.verify(builder=dotted)
                        if reply["status"] != "ok":
                            failures.append((idx, dotted, reply))
                        elif _normalize(reply["result"]) != expected[dotted]:
                            failures.append((idx, dotted, "verdict diverged"))
            except Exception as exc:       # pragma: no cover - diagnostics
                failures.append((idx, "transport", repr(exc)))

        with _Daemon(ServerConfig(port=0, workers=4),
                     verify_cfg=cfg) as d:
            threads = [threading.Thread(target=one_client, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(600)
            status = d.client("observer").status()["result"]

        assert not failures, failures[:3]
        assert status["requests"]["verify"] == 40
        # 40 requests over 5 distinct modules: shared residency means most
        # requests ride a fast path.  Concurrent first submissions of the
        # same module can race past the delta recording (both solve cold),
        # so the bound is loose — but the steady state must be delta.
        assert status["paths"]["cold"] <= 20
        assert status["paths"]["delta"] >= 10
        assert sum(status["paths"].values()) == 40

    def test_per_request_overrides_and_rejection(self, tmp_path):
        with _Daemon() as d, d.client() as c:
            plain = c.verify(source=BROKEN_SRC, builder="build")
            assert plain["status"] == "ok" and not plain["result"]["ok"]
            assert all(f.get("diag") is None
                       for f in plain["result"]["failures"])

            diag = c.verify(source=BROKEN_SRC, builder="build",
                            config={"diagnostics": True})
            assert not diag["result"]["ok"]
            assert any(f.get("diag") for f in diag["result"]["failures"])

            rejected = c.request("verify",
                                 module={"source": BROKEN_SRC,
                                         "builder": "build"},
                                 config={"cache_dir": str(tmp_path)})
            assert rejected["status"] == "error"
            assert "cache_dir" in rejected["error"]

            bad_builder = c.verify(builder="repro.api:no_such_builder")
            assert bad_builder["status"] == "error"

    def test_analyze_verb(self):
        with _Daemon() as d, d.client() as c:
            reply = c.analyze(builder=CASE_STUDIES[4])
            assert reply["status"] == "ok"
            assert reply["result"]["ok"]
            assert reply["server"]["path"] == "analyze"
            assert reply["server"]["solvers_built"] == 0

    def test_quota_exhaustion_busy(self):
        server_cfg = ServerConfig(port=0, workers=1, client_quota=5)
        # Triage off: quotas charge solver steps, which statically
        # discharged obligations never spend.
        with _Daemon(server_cfg,
                     verify_cfg=VerifyConfig(triage="off")) as d:
            with d.client("greedy") as c:
                replies = []
                for i in range(10):
                    replies.append(c.verify(source=MODULE_V1.replace(
                        "lit(1000)", f"lit({1000 + i})"), builder="build"))
                    if replies[-1]["status"] == "busy":
                        break
                busy = replies[-1]
                assert busy["status"] == "busy"
                assert busy["reason"] == "quota"
                assert busy["used"] >= busy["budget"] == 5
            # A different client still gets service.
            with d.client("polite") as c2:
                ok = c2.verify(source=MODULE_V1, builder="build")
                assert ok["status"] == "ok" and ok["result"]["ok"]
                status = c2.status()["result"]
            assert status["quota"]["clients"]["greedy"]["refused"] >= 1

    def test_queue_full_busy(self):
        server_cfg = ServerConfig(port=0, workers=1, queue_depth=1)
        with _Daemon(server_cfg) as d:
            replies = {}

            def submit(tag, delay):
                with d.client(f"c-{tag}") as c:
                    replies[tag] = c.verify(
                        source=SLOW_SRC.format(delay=delay, tag=tag),
                        builder="build")

            t1 = threading.Thread(target=submit, args=("first", 2.0))
            t1.start()
            time.sleep(0.5)       # worker is now sleeping in the build
            t2 = threading.Thread(target=submit, args=("second", 0))
            t2.start()
            time.sleep(0.5)       # queue now holds the second request
            submit("third", 0)    # depth 1 exceeded -> BUSY
            t1.join(60)
            t2.join(60)
            assert replies["third"]["status"] == "busy"
            assert replies["third"]["reason"] == "queue-full"
            assert replies["third"]["capacity"] == 1
            assert replies["first"]["status"] == "ok"
            assert replies["second"]["status"] == "ok"

    def test_journal_resume_across_daemon_restarts(self, tmp_path):
        cfg = VerifyConfig(cache_dir=str(tmp_path / "cache"))
        with _Daemon(verify_cfg=cfg) as d, d.client() as c:
            first = c.verify(source=MODULE_V1, builder="build")
            assert first["result"]["ok"]
            assert first["server"]["path"] == PATH_COLD

        # A new daemon over the same cache directory: re-submission
        # replays every stored function without constructing a solver.
        with _Daemon(verify_cfg=cfg) as d2, d2.client() as c2:
            replay = c2.verify(source=MODULE_V1, builder="build")
            assert replay["result"]["ok"]
            assert replay["server"]["path"] == PATH_DELTA
            assert replay["server"]["solvers_built"] == 0
            assert _normalize(replay["result"]) == \
                _normalize(first["result"])

    def test_priority_bands_order_service(self):
        """With one worker wedged on a slow request, queued requests are
        served by priority band, not arrival order."""
        server_cfg = ServerConfig(port=0, workers=1, queue_depth=8)
        done = []
        with _Daemon(server_cfg) as d:
            def submit(tag, priority, delay=0.0):
                with d.client(f"c-{tag}") as c:
                    reply = c.verify(
                        source=SLOW_SRC.format(delay=delay, tag=tag),
                        builder="build", priority=priority)
                    done.append((tag, reply["status"]))

            wedge = threading.Thread(target=submit, args=("wedge", 0, 1.5))
            wedge.start()
            time.sleep(0.5)
            low = threading.Thread(target=submit, args=("low", 0))
            low.start()
            time.sleep(0.2)
            high = threading.Thread(target=submit, args=("high", 9))
            high.start()
            for t in (wedge, low, high):
                t.join(60)
        order = [tag for tag, _ in done]
        assert order.index("high") < order.index("low")
        assert all(status == "ok" for _, status in done)

    def test_malformed_line_gets_error_reply(self):
        with _Daemon() as d:
            import socket
            with socket.create_connection(("127.0.0.1", d.server.port),
                                          timeout=10) as sock:
                sock.sendall(b"this is not json\n")
                data = b""
                while b"\n" not in data:
                    data += sock.recv(4096)
            reply = json.loads(data)
            assert reply["status"] == "error"
            assert "JSON" in reply["error"]

    def test_shutdown_releases_residency(self, tmp_path):
        # No solver outlives a request; what a clean shutdown must
        # release is the resident worker threads.
        cfg = VerifyConfig(cache_dir=str(tmp_path / "cache"),
                           triage="off")
        d = _Daemon(verify_cfg=cfg)
        with d, d.client() as c:
            assert c.verify(source=MODULE_V1, builder="build")["result"]["ok"]
            workers = [t for t in threading.enumerate()
                       if t.name.startswith("repro-worker")]
            assert workers
            reply = c.shutdown()
            assert reply["status"] == "ok"
        assert not any(t.is_alive() for t in workers)
