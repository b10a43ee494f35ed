#!/usr/bin/env python3
"""NR (§4.2.2, §3.4): ghost-checked node replication in action.

Shows VerusSync end-to-end: the cyclic-buffer protocol's inductive
invariants verify; the executable replicated structure then runs with
ghost tokens *dynamically enforcing* the same protocol — including
catching a deliberately misbehaving executor.

Run:  python examples/node_replication.py
"""

import os
import sys
import threading

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.api import Session, VerifyConfig              # noqa: E402
from repro.sync import ProtocolViolation                 # noqa: E402
from repro.systems.nr.log import NodeReplicated          # noqa: E402
from repro.systems.nr.model import build_nr_core_module  # noqa: E402


def verify_core_obligations() -> None:
    print("== verifying core VerusSync obligations ==")
    res = Session(VerifyConfig()).verify_module(build_nr_core_module())
    for result in res.functions:
        status = "ok" if result.ok else "FAILED"
        print(f"  {status} {result.name}")
        assert result.ok


def run_replicated_structure() -> None:
    print("\n== concurrent ghost-checked execution ==")
    nr = NodeReplicated(num_replicas=3, ghost=True)
    errors = []

    def writer(replica_id: int) -> None:
        try:
            for j in range(40):
                nr.write(replica_id, ("set", f"key{replica_id}_{j}", j))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(r,)) for r in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    for r in range(3):
        nr.replicas[r].sync_up()
    states = [nr.replicas[r].ds.state for r in range(3)]
    assert all(s == states[0] for s in states)
    print(f"3 replicas converged on {len(states[0])} keys; every log step "
          f"was validated against the verified protocol")


def catch_protocol_violation() -> None:
    print("\n== a misbehaving executor is caught by the ghost tokens ==")
    nr = NodeReplicated(num_replicas=1, ghost=True)
    nr.write(0, ("set", "k", 1))
    replica = nr.replicas[0]
    instance = nr.log.instance
    try:
        # try to finish a read phase the executor never started
        instance.apply("reader_finish",
                       tokens={"executor": replica._exec_token,
                               "local_versions": replica._version_token},
                       node_id=0, start=0, end=99, cur=99)
        raise AssertionError("protocol violation went uncaught!")
    except ProtocolViolation as err:
        print(f"caught: {err}")


if __name__ == "__main__":
    verify_core_obligations()
    run_replicated_structure()
    catch_protocol_violation()
    print("\nnode_replication: all demonstrations passed")
