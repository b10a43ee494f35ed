"""Daemon configuration: the ``REPRO_SERVER_*`` knobs, read once.

Mirrors :class:`repro.api.VerifyConfig`'s discipline — a frozen
dataclass whose :meth:`ServerConfig.from_env` classmethod is the *only*
reader of the environment.  The daemon builds one instance at startup
and never consults ``os.environ`` again; per-request variation happens
through :meth:`repro.api.VerifyConfig.replace` overrides instead.

Knobs (all optional):

* ``REPRO_SERVER_HOST`` — bind address (default ``127.0.0.1``).
* ``REPRO_SERVER_PORT`` — TCP port; ``0`` binds an ephemeral port
  (default ``9178``).
* ``REPRO_SERVER_QUEUE_DEPTH`` — max queued requests before new work
  gets a structured ``BUSY`` reply (default ``64``).
* ``REPRO_SERVER_WORKERS`` — resident worker count (default ``4``).
* ``REPRO_SERVER_CLIENT_QUOTA`` — per-client solver *step* budget
  charged against a ledger; ``0`` = unlimited (the default).
* ``REPRO_SERVER_MAX_SOURCE`` — max request line length in bytes,
  bounding inline module source (default 1 MiB).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

HOST_ENV = "REPRO_SERVER_HOST"
PORT_ENV = "REPRO_SERVER_PORT"
QUEUE_DEPTH_ENV = "REPRO_SERVER_QUEUE_DEPTH"
WORKERS_ENV = "REPRO_SERVER_WORKERS"
CLIENT_QUOTA_ENV = "REPRO_SERVER_CLIENT_QUOTA"
MAX_SOURCE_ENV = "REPRO_SERVER_MAX_SOURCE"

DEFAULT_PORT = 9178


def _env_int(name: str, default: int, floor: int = 0) -> int:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return max(floor, int(raw))
    except ValueError:
        return default


@dataclass(frozen=True)
class ServerConfig:
    """Frozen bundle of daemon-level knobs (see module docstring)."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    queue_depth: int = 64
    workers: int = 4
    client_quota: int = 0
    max_source: int = 1024 * 1024

    @classmethod
    def from_env(cls, **overrides) -> "ServerConfig":
        """Build a config from the ``REPRO_SERVER_*`` environment.

        The single env reader, like :meth:`VerifyConfig.from_env`.
        Keyword overrides with non-``None`` values win.
        """
        cfg = cls(host=os.environ.get(HOST_ENV) or "127.0.0.1",
                  port=_env_int(PORT_ENV, DEFAULT_PORT),
                  queue_depth=_env_int(QUEUE_DEPTH_ENV, 64, floor=1),
                  workers=_env_int(WORKERS_ENV, 4, floor=1),
                  client_quota=_env_int(CLIENT_QUOTA_ENV, 0),
                  max_source=_env_int(MAX_SOURCE_ENV, 1024 * 1024,
                                      floor=4096))
        return cfg.replace(**overrides) if overrides else cfg

    def replace(self, **overrides) -> "ServerConfig":
        """A copy with the given non-``None`` fields replaced."""
        live = {k: v for k, v in overrides.items() if v is not None}
        unknown = set(live) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise TypeError(f"unknown ServerConfig fields: {sorted(unknown)}")
        return dataclasses.replace(self, **live) if live else self
