"""Rule-mining service plane: HTTP serving from a warm profile store.

The mining stack answers a warm catalog request in well under a
millisecond of actual lookups — this package puts that behind a network
API.  :class:`RuleService` is the transport-independent core (auth, typed
error bodies, a fingerprint-keyed response LRU, and single-flight request
coalescing); :mod:`repro.service.http` serves it over a dependency-free
stdlib asyncio HTTP/1.1 server.
"""

from __future__ import annotations

from repro.service.app import RuleService, ServiceConfig, map_error_status
from repro.service.http import BackgroundServer, serve_forever

__all__ = [
    "BackgroundServer",
    "RuleService",
    "ServiceConfig",
    "map_error_status",
    "serve_forever",
]
