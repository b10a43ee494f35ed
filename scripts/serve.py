#!/usr/bin/env python3
"""Start the verification service daemon (repro.server).

Reads the ``REPRO_SERVER_*`` knobs (port, queue depth, warm-context
budget, per-client quota) and the ``REPRO_*`` verification knobs once
at startup; per-request variation happens through protocol config
overrides, never by re-reading the environment.  Flags beat env.

Run:  PYTHONPATH=src python scripts/serve.py
      PYTHONPATH=src python scripts/serve.py --port 0 --workers 4 \\
          --cache-dir .pv_cache --quota 200000
"""

import argparse
import sys

from repro.api import VerifyConfig
from repro.server import ServerConfig, VerifyServer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--host", default=None, help="bind address")
    ap.add_argument("--port", type=int, default=None,
                    help="TCP port (0 = ephemeral; printed on startup)")
    ap.add_argument("--workers", type=int, default=None,
                    help="resident worker threads")
    ap.add_argument("--queue-depth", type=int, default=None,
                    help="max queued requests before BUSY replies")
    ap.add_argument("--warm-budget", type=int, default=None,
                    help="warm solver-context pool budget in bytes")
    ap.add_argument("--quota", type=int, default=None,
                    help="per-client solver-step quota (0 = unlimited)")
    ap.add_argument("--cache-dir", default=None,
                    help="proof-cache root (enables the delta fast path)")
    ap.add_argument("--max-steps", type=int, default=None,
                    help="default per-check solver step budget")
    args = ap.parse_args(argv)

    server_cfg = ServerConfig.from_env(
        host=args.host, port=args.port, workers=args.workers,
        queue_depth=args.queue_depth, warm_budget=args.warm_budget,
        client_quota=args.quota)
    verify_cfg = VerifyConfig.from_env(
        cache_dir=args.cache_dir, max_steps=args.max_steps)
    server = VerifyServer(server_cfg, verify_cfg)

    import asyncio

    async def serve():
        await server.start()
        print(f"repro.server listening on "
              f"{server_cfg.host}:{server.port} "
              f"(workers={server_cfg.workers}, "
              f"queue={server_cfg.queue_depth}, "
              f"cache={server.base.cache_dir or 'off'}, "
              f"delta={'on' if server.base.delta else 'off'})",
              flush=True)
        await server.serve_forever()
        print("repro.server: clean shutdown", flush=True)

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
