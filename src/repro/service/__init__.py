"""The optimization service: a long-lived daemon with a result cache.

The service keeps the expensive per-process state -- the compiled rule trie,
the cost model, the rule set -- resident across requests, and answers
repeat submissions of *isomorphic* graphs straight from a bounded LRU cache
keyed on a canonical graph fingerprint plus a configuration digest (see
``docs/service.md``).

* :mod:`repro.service.fingerprint` -- canonical, isomorphism-invariant
  graph fingerprints (:func:`graph_fingerprint`) and config digests.
* :mod:`repro.service.cache` -- the bounded LRU :class:`ResultCache` with
  hit/miss/eviction counters.
* :mod:`repro.service.server` -- the asyncio TCP daemon
  (:class:`OptimizationServer`), the protocol-agnostic request core
  (:class:`OptimizationService`), and :class:`ServiceConfig`.
* :mod:`repro.service.client` -- the blocking :class:`ServiceClient` used
  by the CLI ``submit`` subcommand, tests, and the load benchmark.
"""

from repro.service.cache import CachedResult, ResultCache
from repro.service.client import ServiceClient, ServiceError, parse_overrides
from repro.service.fingerprint import config_digest, graph_fingerprint
from repro.service.server import (
    OptimizationServer,
    OptimizationService,
    ServerThread,
    ServiceConfig,
    run_server,
)

__all__ = [
    "CachedResult",
    "OptimizationServer",
    "OptimizationService",
    "ResultCache",
    "ServerThread",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "config_digest",
    "graph_fingerprint",
    "parse_overrides",
    "run_server",
]
