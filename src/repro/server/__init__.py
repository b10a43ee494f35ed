"""``repro.server`` — the long-lived, multi-client verification daemon.

Everything else in the repo is batch-oriented: one :class:`~repro.api.Session`,
one module, then exit.  This package turns the same machinery into a
resident service (the "proof generation as a service" shape KVerus
describes): an asyncio front door speaking newline-delimited JSON
(:mod:`.protocol`), a fair bounded request queue (:mod:`.queue`),
per-client step-budget quotas (:mod:`.quota`), and — the core win — one
proof-cache root shared by every request, so a client re-submitting an
edited module pays only for the functions whose dependency fingerprints
changed.

Public surface::

    from repro.server import ServerConfig, VerifyServer, ServerClient
"""

from .config import ServerConfig
from .daemon import VerifyServer
from .client import ServerClient

__all__ = ["ServerConfig", "VerifyServer", "ServerClient"]
