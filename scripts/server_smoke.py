#!/usr/bin/env python3
"""Server smoke gate: daemon lifecycle + fast paths + quotas, via the CLIs.

Exercises the shipped entry points end to end, the way CI does:

1. start ``scripts/serve.py`` as a subprocess (ephemeral port, proof
   cache in a temp dir, a small per-client step quota),
2. drive ``scripts/client.py`` through: cold verify → re-verify
   (must report the delta fast path, zero solvers built) → edit one
   function and re-verify (must re-solve *only* the edited function:
   one delta skip, verified result),
3. exhaust a greedy client's quota and assert the structured ``BUSY``
   reply (exit status 2),
4. shut the daemon down cleanly and assert a zero exit.

Any violated expectation exits 1 so CI fails.

Run:  PYTHONPATH=src python scripts/server_smoke.py
"""

import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MODULE_V1 = '''
from repro.lang import Module, U64, exec_fn, lit, ret, var

def build():
    mod = Module("smoke_mod")
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

# The edit: dbl's contract bound changes; inc is untouched.
MODULE_V2 = MODULE_V1.replace("lit(500)", "lit(400)")

# Greedy-client fuel: a fresh fingerprint per iteration (the bound
# varies), so every submission is a cold solve that burns quota steps —
# repeats of a known module would ride the delta path and spend nothing.
MODULE_GREEDY = '''
from repro.lang import Module, U64, exec_fn, lit, ret, var

def build():
    mod = Module("greedy_mod")
    x = var("x", U64)
    exec_fn(mod, "inc", [("x", U64)], ret=("r", U64),
            requires=[x < lit({bound})],
            ensures=[var("r", U64).eq(x + lit(1))],
            body=[ret(x + lit(1))])
    return mod
'''


def _client(port, *args, client="editor"):
    """Run scripts/client.py; returns (exit status, parsed reply)."""
    cmd = [sys.executable, os.path.join(ROOT, "scripts", "client.py"),
           "--port", str(port), "--client", client, "--json", *args]
    env = dict(os.environ,
               PYTHONPATH=os.path.join(ROOT, "src")
               + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=300)
    reply = None
    if proc.stdout.strip():
        try:
            reply = json.loads(proc.stdout)
        except ValueError:
            pass
    return proc.returncode, reply, proc


def _fail(message, proc=None):
    print(f"SMOKE FAIL: {message}")
    if proc is not None:
        print("--- stdout ---\n" + proc.stdout)
        print("--- stderr ---\n" + proc.stderr)
    return 1


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="repro-smoke-")
    v1 = os.path.join(tmp, "module_v1.py")
    v2 = os.path.join(tmp, "module_v2.py")
    with open(v1, "w", encoding="utf-8") as fh:
        fh.write(MODULE_V1)
    with open(v2, "w", encoding="utf-8") as fh:
        fh.write(MODULE_V2)

    env = dict(os.environ,
               PYTHONPATH=os.path.join(ROOT, "src")
               + os.pathsep + os.environ.get("PYTHONPATH", ""),
               # Triage off for this gate: its cold/delta/quota
               # arithmetic assumes every obligation reaches the solver
               # (the static tier has its own gate, triage_smoke.py).
               REPRO_TRIAGE="0")
    serve = subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "scripts", "serve.py"),
         "--port", "0", "--workers", "2",
         "--cache-dir", os.path.join(tmp, "cache"),
         "--quota", "40"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    try:
        line = serve.stdout.readline()
        if "listening on" not in line:
            return _fail(f"daemon did not start: {line!r}")
        port = int(line.split("listening on", 1)[1].split()[0]
                   .rsplit(":", 1)[1])
        print(f"daemon up on port {port}")

        # 1. Cold verify.
        rc, reply, proc = _client(port, "verify", "--source", v1)
        if rc != 0 or not reply or not reply["result"]["ok"]:
            return _fail("cold verify did not succeed", proc)
        if reply["server"]["path"] != "cold":
            return _fail(f"expected cold path, got {reply['server']}", proc)
        print(f"cold verify ok (solvers_built="
              f"{reply['server']['solvers_built']})")

        # 2. Identical re-submission must ride the delta fast path and
        #    build no solver at all.
        rc, reply, proc = _client(port, "verify", "--source", v1)
        if rc != 0 or reply["server"]["path"] != "delta":
            return _fail(f"re-verify not on delta path: "
                         f"{reply and reply['server']}", proc)
        if reply["server"]["solvers_built"] != 0:
            return _fail("delta-path request built a solver", proc)
        if reply["server"]["delta_skips"] != 2:
            return _fail(f"expected 2 delta skips, got "
                         f"{reply['server']['delta_skips']}", proc)
        print("warm re-verify ok: delta fast path, zero solvers built")

        # 3. Edit one function: only the changed fingerprint re-solves.
        rc, reply, proc = _client(port, "verify", "--source", v2)
        if rc != 0 or not reply["result"]["ok"]:
            return _fail("post-edit verify did not succeed", proc)
        if reply["server"]["delta_skips"] != 1:
            return _fail(f"expected exactly 1 delta skip after the edit, "
                         f"got {reply['server']['delta_skips']}", proc)
        print("post-edit verify ok: unchanged function skipped, "
              "edited function re-solved")

        # 4. Quota exhaustion → structured BUSY (exit status 2).  Each
        #    greedy submission is a distinct module (cold solve), so the
        #    ledger drains a few steps per request until admission stops.
        busy = None
        for i in range(40):
            fuel = os.path.join(tmp, f"greedy_{i}.py")
            with open(fuel, "w", encoding="utf-8") as fh:
                fh.write(MODULE_GREEDY.format(bound=100 + i))
            rc, reply, proc = _client(port, "verify", "--source", fuel,
                                      client="greedy")
            if rc == 2:
                busy = reply
                break
            if rc not in (0, 1):
                return _fail(f"unexpected client exit {rc}", proc)
        if busy is None or busy.get("reason") != "quota":
            return _fail(f"no quota BUSY reply observed: {busy}", proc)
        print(f"quota exhaustion ok: BUSY after "
              f"{busy.get('used')}/{busy.get('budget')} steps")

        # 5. status must report the paths and quota ledger.
        rc, reply, proc = _client(port, "status")
        result = reply["result"]
        if result["paths"]["delta"] < 1 or "greedy" not in \
                result["quota"]["clients"]:
            return _fail(f"status payload incomplete: {result}", proc)
        print(f"status ok: paths={result['paths']}, "
              f"cache={result['cache']['hits']} hits")

        # 6. Clean shutdown.
        rc, reply, proc = _client(port, "shutdown")
        if rc != 0:
            return _fail("shutdown request failed", proc)
        deadline = time.time() + 30
        while serve.poll() is None and time.time() < deadline:
            time.sleep(0.2)
        if serve.poll() != 0:
            return _fail(f"daemon exit status {serve.poll()}")
        print("clean shutdown ok")
        print("SMOKE PASS")
        return 0
    finally:
        if serve.poll() is None:
            serve.kill()


if __name__ == "__main__":
    sys.exit(main())
