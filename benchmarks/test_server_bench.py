"""Service daemon throughput/latency: cold vs warm-resident vs delta.

Drives a live in-process :class:`repro.server.daemon.VerifyServer` (real
socket, real protocol) through the five shipped case studies and times
each request end to end at the client, bucketed by how the daemon
served it:

* **cold** — first-ever submission to a freshly started daemon: full VC
  generation and solving (each cold repetition uses its own daemon with
  an empty proof cache).
* **warm** — re-submission of a known module with the delta fast path
  disabled for the request: served from the daemon's resident proof
  cache.  CRC-table
  style obligations that bypass the proof cache re-solve here, so a few
  warm-bucket requests legitimately report the ``cold`` daemon path.
* **delta** — re-submission with the delta path on: unchanged
  dependency fingerprints replay whole functions without planning.

Emits ``BENCH_server.json`` (repo root) with requests/sec and p50/p95
latency per bucket, and asserts the residency acceptance bar: warm and
delta requests at least 2x faster than cold at the median.

Run:  PYTHONPATH=src python -m pytest benchmarks/test_server_bench.py -q
"""

import asyncio
import json
import os
import threading
import time

from conftest import FULL, banner, table

from repro.api import VerifyConfig
from repro.server import ServerClient, ServerConfig, VerifyServer

BENCH_FILE = os.path.join(os.path.dirname(__file__), "..",
                          "BENCH_server.json")
COMMAND = "PYTHONPATH=src python -m pytest benchmarks/test_server_bench.py -q"

CASE_STUDIES = [
    "repro.systems.ironkv.delegation_map:build_default_module",
    "repro.systems.nr.model:build_nr_core_module",
    "repro.systems.pagetable.view_verified:build_view_module",
    "repro.systems.mimalloc.verified:build_bit_tricks_module",
    "repro.systems.plog.crc_verified:build_crc_table_module",
]

REPS = 5 if FULL else 3


def _percentile(samples, p):
    ordered = sorted(samples)
    if not ordered:
        return None
    k = (len(ordered) - 1) * p
    lo, hi = int(k), min(int(k) + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def _bucket_stats(samples, wall_s, paths):
    return {
        "requests": len(samples),
        "wall_seconds": round(wall_s, 4),
        "requests_per_sec": round(len(samples) / wall_s, 2) if wall_s
        else None,
        "p50_ms": round(_percentile(samples, 0.50) * 1000, 3),
        "p95_ms": round(_percentile(samples, 0.95) * 1000, 3),
        "mean_ms": round(sum(samples) / len(samples) * 1000, 3),
        "daemon_paths": paths,
    }


class _DaemonThread:
    def __init__(self, verify_cfg):
        self.server = VerifyServer(ServerConfig(port=0, workers=2),
                                   verify_cfg)
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

    def __exit__(self, exc_type, exc, tb):
        try:
            with ServerClient(port=self.server.port,
                              client="teardown") as c:
                c.shutdown()
        except Exception:
            pass
        self._thread.join(30)


def _drive(client, config, reps):
    """Submit every case study ``reps`` times; returns latencies+paths."""
    samples, paths = [], {}
    t0 = time.perf_counter()
    for _ in range(reps):
        for dotted in CASE_STUDIES:
            t1 = time.perf_counter()
            reply = client.verify(builder=dotted, config=config)
            samples.append(time.perf_counter() - t1)
            assert reply["status"] == "ok" and reply["result"]["ok"], \
                (dotted, reply.get("status"), reply.get("error"))
            path = reply["server"]["path"]
            paths[path] = paths.get(path, 0) + 1
    return samples, time.perf_counter() - t0, paths


def _merge(into, paths):
    for k, v in paths.items():
        into[k] = into.get(k, 0) + v


def test_server_request_paths(tmp_path):
    cold, cold_wall, cold_paths = [], 0.0, {}
    warm = delta = None
    # Each cold repetition gets its own daemon: an empty proof cache —
    # a genuinely cold front door.  The last daemon stays up
    # and serves the warm and delta re-submission passes.
    for rep in range(REPS):
        cfg = VerifyConfig(cache_dir=str(tmp_path / f"cache{rep}"))
        with _DaemonThread(cfg) as d, \
                ServerClient(port=d.server.port, client="bench",
                             timeout=600.0) as client:
            samples, wall, paths = _drive(client, None, 1)
            cold.extend(samples)
            cold_wall += wall
            _merge(cold_paths, paths)
            if rep == REPS - 1:
                warm = _drive(client, {"delta": False}, REPS)
                delta = _drive(client, None, REPS)
                status = client.status()["result"]
    assert cold_paths == {"cold": len(cold)}, cold_paths

    warm_samples, warm_wall, warm_paths = warm
    # Obligations that bypass the proof cache (CRC-table computation
    # goals) re-solve on every delta-off re-submission; everything else
    # must ride residency.
    assert warm_paths.get("cold", 0) <= REPS, warm_paths

    delta_samples, delta_wall, delta_paths = delta
    assert set(delta_paths) == {"delta"}, delta_paths

    buckets = {
        "cold": _bucket_stats(cold, cold_wall, cold_paths),
        "warm": _bucket_stats(warm_samples, warm_wall, warm_paths),
        "delta": _bucket_stats(delta_samples, delta_wall, delta_paths),
    }
    warm_speedup = round(buckets["cold"]["p50_ms"]
                         / buckets["warm"]["p50_ms"], 2)
    delta_speedup = round(buckets["cold"]["p50_ms"]
                          / buckets["delta"]["p50_ms"], 2)

    banner("repro.server: request latency by path (five case studies)")
    table(["bucket", "reqs", "req/s", "p50 ms", "p95 ms", "speedup"],
          [[name, b["requests"], b["requests_per_sec"], b["p50_ms"],
            b["p95_ms"],
            {"cold": "1.00x", "warm": f"{warm_speedup}x",
             "delta": f"{delta_speedup}x"}[name]]
           for name, b in buckets.items()])

    payload = {
        "description": "Verification daemon request latency over the "
                       "five case studies: cold solves (fresh daemon per "
                       "repetition) vs warm-resident re-submissions "
                       "(delta off: proof cache) vs "
                       "delta-path re-submissions.",
        "command": COMMAND,
        "reps_per_module": REPS,
        "case_studies": CASE_STUDIES,
        "buckets": buckets,
        "warm_p50_speedup_vs_cold": warm_speedup,
        "delta_p50_speedup_vs_cold": delta_speedup,
        "cache": status["cache"],
    }
    with open(BENCH_FILE, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    # Residency acceptance: re-submissions must be at least 2x faster
    # than cold solves at the median (in practice they are 10-100x).
    assert warm_speedup >= 2.0, buckets
    assert delta_speedup >= 2.0, buckets
