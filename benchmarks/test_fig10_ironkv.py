"""Figure 10: IronKV throughput — the Verus port vs the IronFleet original.

Paper result: the ported host performs comparably to the Dafny original
across Get/Set workloads and payload sizes (128/256/512 bytes).
"""

import threading
import time

import pytest

from conftest import FULL, banner, table
from repro.runtime.network import Network
from repro.systems.ironkv.host import IronFleetHost, VerusHost

PAYLOADS = [128, 256, 512]
DURATION = 0.6 if not FULL else 3.0
CLIENTS = 4 if not FULL else 10
KEYS = 1000 if not FULL else 10000


def _run_workload(host_cls, op: str, payload_size: int) -> float:
    """kop/s for the given workload against a 3-host cluster."""
    net = Network()
    hosts = [host_cls(i, net, default_host=0) for i in range(3)]
    servers = [threading.Thread(target=h.serve_forever, daemon=True)
               for h in hosts]
    for t in servers:
        t.start()
    payload = bytes(payload_size)
    # preload for Get workloads
    setup = net.endpoint("setup")
    marshal = hosts[0].marshal
    if op == "Get":
        for k in range(0, KEYS, max(KEYS // 200, 1)):
            setup.send("host0", marshal(
                ("Set", {"rid": k, "key": k, "value": payload})))
            setup.recv(timeout=1.0)
    done = threading.Event()
    counts = [0] * CLIENTS

    def client(ci: int):
        ep = net.endpoint(f"client{ci}")
        rid = ci << 32
        k = ci
        while not done.is_set():
            rid += 1
            k = (k + 7919) % KEYS
            if op == "Get":
                msg = ("Get", {"rid": rid, "key": k})
            else:
                msg = ("Set", {"rid": rid, "key": k, "value": payload})
            ep.send("host0", marshal(msg))
            if ep.recv(timeout=1.0) is not None:
                counts[ci] += 1

    clients = [threading.Thread(target=client, args=(i,))
               for i in range(CLIENTS)]
    start = time.perf_counter()
    for t in clients:
        t.start()
    time.sleep(DURATION)
    done.set()
    for t in clients:
        t.join()
    elapsed = time.perf_counter() - start
    for h in hosts:
        h.stop()
    return sum(counts) / elapsed / 1000.0


@pytest.fixture(scope="module")
def results():
    out = {}
    for op in ("Get", "Set"):
        for size in PAYLOADS:
            out[("IronFleet", op, size)] = _run_workload(IronFleetHost, op,
                                                         size)
            out[("Verus", op, size)] = _run_workload(VerusHost, op, size)
    return out


def test_fig10_throughput(results, benchmark):
    banner("Figure 10: IronKV throughput (kop/s)")
    rows = []
    for op in ("Get", "Set"):
        for size in PAYLOADS:
            rows.append([f"{op} {size}",
                         f"{results[('IronFleet', op, size)]:.1f}",
                         f"{results[('Verus', op, size)]:.1f}"])
    table(["workload", "IronFleet", "Verus"], rows)
    # Shape: the Verus port performs comparably (within 3x either way, and
    # usually at least as fast thanks to the leaner marshaller).
    for key_f, val in results.items():
        assert val > 0, f"no throughput for {key_f}"
    for op in ("Get", "Set"):
        for size in PAYLOADS:
            verus = results[("Verus", op, size)]
            iron = results[("IronFleet", op, size)]
            assert verus > iron / 3.0, (op, size, verus, iron)
    benchmark.pedantic(lambda: _run_workload(VerusHost, "Get", 128),
                       rounds=1, iterations=1)


def test_fig10_solver_rows():
    """Solver-performance rows for the IronKV verified core.

    The throughput rows above exercise the executable port; this
    companion re-verifies its proof side (the delegation map and the
    marshaller roundtrip), a fresh solver per obligation, and records
    best-of-3 wall clock and solver counters into BENCH_solver.json.
    """
    from conftest import record_solver
    from repro.api import Session, VerifyConfig
    from repro.systems.ironkv.delegation_map import build_default_module
    from repro.systems.ironkv.marshal_verified import \
        build_u64_roundtrip_module

    banner("Figure 10 companion: IronKV verification solver rows")
    rows = []
    for label, builder in [("delegation_map", build_default_module),
                           ("marshal", build_u64_roundtrip_module)]:
        f_secs = None
        qbytes = None
        # Triage off: BENCH_solver.json's embedded baseline was captured
        # with every obligation on the solver path.
        for _ in range(3):     # best-of-3 damps scheduler noise
            t0 = time.perf_counter()
            fresh = Session(VerifyConfig(triage="off")).verify_module(
                builder())
            f_s = time.perf_counter() - t0
            f_secs = f_s if f_secs is None else min(f_secs, f_s)
            assert fresh.ok
            assert qbytes is None or fresh.query_bytes == qbytes
            qbytes = fresh.query_bytes
        record_solver(f"fig10_{label}", f_secs, fresh.stats,
                      fresh.query_bytes)
        rows.append([label, f"{f_secs:.2f}",
                     fresh.stats.get("instantiations", 0), qbytes])
    table(["ironkv module", "fresh (s)", "instantiations", "query bytes"],
          rows)
