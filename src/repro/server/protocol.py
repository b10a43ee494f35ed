"""The wire protocol: newline-delimited JSON, one object per line.

Requests
--------

Every request is one JSON object terminated by ``\\n``::

    {"id": "r1", "verb": "verify", "client": "alice", "priority": 0,
     "module": {"builder": "repro.systems.plog.crc_verified:build_crc_table_module"},
     "config": {"max_steps": 20000}}

* ``id`` — caller-chosen request id, echoed on the reply (required).
* ``verb`` — one of ``verify`` / ``analyze`` / ``diagnose`` /
  ``profiles`` / ``status`` / ``shutdown`` (required).  ``profiles``
  lists the shipped automation profiles, the portfolio race order, and
  the server's base profile and race width.
* ``client`` — client name for fairness and quota accounting
  (default ``"anon"``).
* ``priority`` — integer band; higher bands are served first, requests
  within a band round-robin across clients (default ``0``).
* ``module`` — how to obtain the :class:`repro.lang.Module` (required
  for the three verification verbs):

  - ``{"builder": "dotted.module:callable"}`` imports and calls a
    zero-argument builder, or
  - ``{"source": "<python>", "builder": "build"}`` executes the given
    source and calls the named function from its namespace.  **The
    daemon executes submitted source verbatim** — it is a trusted-
    clients-only front door (localhost by default), not a sandbox.

* ``config`` — per-request :class:`~repro.api.VerifyConfig` overrides,
  restricted to :data:`ALLOWED_OVERRIDES` (budget/strategy knobs);
  infrastructure fields (cache dir, jobs, fault plans) are
  server-owned and rejected.

Replies
-------

One JSON object per line, matched to the request by ``id``.  Replies
may arrive out of submission order (workers run concurrently)::

    {"id": "r1", "status": "ok", "result": {...ModuleResult.to_json()...},
     "server": {"path": "delta", "queued_ms": 1.9, "solvers_built": 0, ...}}

``status`` is ``ok``, ``busy`` (queue full or quota exhausted — see
``reason``), or ``error`` (malformed request / builder failure — see
``error``).
"""

from __future__ import annotations

import json
from typing import Optional

VERIFY = "verify"
ANALYZE = "analyze"
DIAGNOSE = "diagnose"
PROFILES = "profiles"
STATUS = "status"
SHUTDOWN = "shutdown"

VERBS = (VERIFY, ANALYZE, DIAGNOSE, PROFILES, STATUS, SHUTDOWN)
MODULE_VERBS = (VERIFY, ANALYZE, DIAGNOSE)

OK = "ok"
BUSY = "busy"
ERROR = "error"

#: VerifyConfig fields a client may override per request.  Everything
#: else (cache_dir, jobs, fault_plan, cache tiers) is infrastructure the
#: daemon owns; letting clients touch it would corrupt shared state.
#: ``profile``/``portfolio`` are per-request automation choices: an
#: unknown profile name passes validation here and becomes a structured
#: ``error`` reply (listing the shipped names) at request time.
ALLOWED_OVERRIDES = ("diagnostics", "job_timeout", "delta", "analyze",
                     "retries", "max_steps", "profile", "portfolio",
                     "triage")

DEFAULT_CLIENT = "anon"


class ProtocolError(ValueError):
    """A structurally invalid request (maps to an ``error`` reply)."""


def encode(obj: dict) -> bytes:
    """One wire frame: compact JSON + newline."""
    return json.dumps(obj, separators=(",", ":"),
                      sort_keys=True).encode() + b"\n"


def decode_line(line: bytes) -> dict:
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    return obj


def validate_request(obj: dict) -> dict:
    """Normalize and validate one decoded request.

    Returns ``{id, verb, client, priority, module, config}`` with
    defaults filled in; raises :class:`ProtocolError` on anything the
    dispatcher could not act on.
    """
    req_id = obj.get("id")
    if not isinstance(req_id, (str, int)):
        raise ProtocolError("missing or non-scalar 'id'")
    verb = obj.get("verb")
    if verb not in VERBS:
        raise ProtocolError(f"unknown verb {verb!r} (expected one of "
                            f"{', '.join(VERBS)})")
    client = obj.get("client", DEFAULT_CLIENT)
    if not isinstance(client, str) or not client:
        raise ProtocolError("'client' must be a non-empty string")
    priority = obj.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ProtocolError("'priority' must be an integer")
    module = obj.get("module")
    if verb in MODULE_VERBS:
        module = validate_module_spec(module)
    else:
        module = None
    config = obj.get("config") or {}
    if not isinstance(config, dict):
        raise ProtocolError("'config' must be an object")
    bad = sorted(set(config) - set(ALLOWED_OVERRIDES))
    if bad:
        raise ProtocolError(
            f"config overrides not permitted: {bad} "
            f"(allowed: {', '.join(ALLOWED_OVERRIDES)})")
    return {"id": req_id, "verb": verb, "client": client,
            "priority": priority, "module": module, "config": config}


def validate_module_spec(spec) -> dict:
    if not isinstance(spec, dict):
        raise ProtocolError("'module' must be an object with a 'builder'")
    builder = spec.get("builder")
    source = spec.get("source")
    if source is not None:
        if not isinstance(source, str):
            raise ProtocolError("'module.source' must be a string")
        if not isinstance(builder, str) or not builder:
            raise ProtocolError("source form needs 'builder': the name "
                                "of a callable defined by the source")
        return {"source": source, "builder": builder}
    if not isinstance(builder, str) or ":" not in builder:
        raise ProtocolError("'module.builder' must be 'dotted.module:callable'")
    return {"builder": builder}


def build_module(spec: dict):
    """Materialize the :class:`repro.lang.Module` a request names.

    Import errors, missing attributes, and builder exceptions surface
    as :class:`ProtocolError` so they become structured ``error``
    replies instead of killing the worker.
    """
    import importlib

    try:
        if "source" in spec:
            namespace: dict = {}
            exec(compile(spec["source"], "<client-module>", "exec"),
                 namespace)
            builder = namespace.get(spec["builder"])
            if not callable(builder):
                raise ProtocolError(
                    f"source does not define callable {spec['builder']!r}")
        else:
            mod_path, _, attr = spec["builder"].partition(":")
            builder = getattr(importlib.import_module(mod_path), attr, None)
            if not callable(builder):
                raise ProtocolError(
                    f"no callable {attr!r} in module {mod_path!r}")
        return builder()
    except ProtocolError:
        raise
    except Exception as exc:  # builder code is arbitrary — contain it
        raise ProtocolError(
            f"module builder failed: {type(exc).__name__}: {exc}") from exc


# ---------------------------------------------------------------------- replies

def ok_reply(req_id, result: Optional[dict] = None,
             server: Optional[dict] = None) -> dict:
    out = {"id": req_id, "status": OK}
    if result is not None:
        out["result"] = result
    if server is not None:
        out["server"] = server
    return out


def busy_reply(req_id, reason: str, detail: Optional[dict] = None) -> dict:
    out = {"id": req_id, "status": BUSY, "reason": reason}
    if detail:
        out.update(detail)
    return out


def error_reply(req_id, message: str) -> dict:
    return {"id": req_id, "status": ERROR, "error": message}
