"""repro.serve: the analysis pipeline as a queryable network service.

A zero-dependency (stdlib-only) asyncio TCP service exposing the
study's pure, content-addressed analyses — study cells, lint, repair
advice, chaos audits, static conflict prediction — as
request/response queries with explicit backpressure, per-request
deadlines, in-flight coalescing, and read-through reuse of
``.repro-cache/``.

Layers:

* :mod:`repro.serve.protocol` — length-prefixed canonical-JSON frames
  and the four-code error taxonomy;
* :mod:`repro.serve.handlers` — the endpoint registry, keyed
  identically to the batch CLI's cache entries;
* :mod:`repro.serve.server`   — the asyncio front end + process-pool
  back end;
* :mod:`repro.serve.client`   — a retrying client reusing the PFS
  retry discipline.

See ``docs/serving.md`` for the architecture and operational story.
"""

from repro.serve.client import ServeClient, ServeConnectionError, request_sync
from repro.serve.server import (
    AnalysisServer,
    ServeConfig,
    ServerHandle,
    start_background,
)

__all__ = [
    "AnalysisServer",
    "ServeClient",
    "ServeConfig",
    "ServeConnectionError",
    "ServerHandle",
    "request_sync",
    "start_background",
]
