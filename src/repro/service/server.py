"""The optimization service daemon.

A long-lived asyncio TCP server over :func:`repro.core.batch.optimize_many`
that keeps per-process state resident across requests: the compiled rule
trie (compiled on first use and forked per request), the
rule set, the cost model, and the :class:`~repro.service.cache.ResultCache`
keyed on ``(graph fingerprint, config digest)``.

Wire protocol (``docs/service.md``): one JSON object per line, one JSON
response line per request, over a plain TCP stream::

    {"op": "optimize", "graph": {<graph_to_doc document>}, "config": {...}}
    {"op": "status"} / {"op": "ping"} / {"op": "shutdown"}

Responses carry ``"ok": true`` plus op-specific fields, or ``"ok": false``
with a typed ``error`` object (``type`` in ``protocol`` / ``serialize`` /
``config`` / ``queue_full`` / ``timeout`` / ``internal``).  Cache-missed
optimize requests run on a bounded thread pool (``max_concurrency``
workers, at most ``queue_limit`` requests waiting, ``request_timeout``
seconds per request); everything above the admission limit is rejected
immediately with ``queue_full`` rather than queued without bound.

The request core (:class:`OptimizationService`) is transport-agnostic --
tests and the load benchmark drive it through :class:`ServerThread`, the
CLI ``serve`` subcommand through :func:`run_server`.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields as dataclass_fields
from typing import Callable, Dict, Mapping, Optional

from repro.core.batch import compile_shared_trie, optimize_many
from repro.core.config import ConfigError, TensatConfig
from repro.costs.model import AnalyticCostModel, CostModel
from repro.ir.serialize import SerializeError, graph_from_doc, graph_to_doc
from repro.rules.library import RuleSet, default_ruleset
from repro.service.cache import CachedResult, ResultCache
from repro.service.fingerprint import config_digest, graph_fingerprint

__all__ = [
    "PROTOCOL_VERSION",
    "OptimizationServer",
    "OptimizationService",
    "RequestError",
    "ServerThread",
    "ServiceConfig",
    "run_server",
]

PROTOCOL_VERSION = 1


@dataclass(frozen=True)
class ServiceConfig:
    """Deployment knobs of the service daemon (not the optimizer)."""

    #: Interface the TCP server binds.
    host: str = "127.0.0.1"
    #: Port to bind (0 = pick an ephemeral port; the bound port is reported).
    port: int = 8077
    #: Worker threads running cache-missed optimizations concurrently.
    max_concurrency: int = 2
    #: Requests allowed to wait for a worker beyond the running ones;
    #: admission above ``max_concurrency + queue_limit`` fails fast with a
    #: typed ``queue_full`` error.
    queue_limit: int = 16
    #: Per-request wall-clock budget in seconds; exceeding it returns a typed
    #: ``timeout`` error (the worker thread finishes in the background, but
    #: its result is not cached).
    request_timeout: float = 300.0
    #: Bounded LRU capacity of the result cache (entries).
    cache_capacity: int = 256

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {self.max_concurrency}")
        if self.queue_limit < 0:
            raise ValueError(f"queue_limit must be >= 0, got {self.queue_limit}")
        if self.request_timeout <= 0:
            raise ValueError(f"request_timeout must be positive, got {self.request_timeout}")
        if self.cache_capacity < 1:
            raise ValueError(f"cache_capacity must be >= 1, got {self.cache_capacity}")


class RequestError(Exception):
    """A typed request failure; ``code`` keys the error response."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def _coerce_override(name: str, value: object, reference: object) -> object:
    """Coerce a JSON / CLI override value to the config field's type."""
    if value is None:
        raise RequestError("config", f"config field {name!r} must not be null")
    if isinstance(reference, bool):
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false", "1", "0"):
            return value.lower() in ("true", "1")
        raise RequestError("config", f"config field {name!r} expects a boolean, got {value!r}")
    if isinstance(reference, int) and not isinstance(reference, bool):
        if isinstance(value, bool):
            raise RequestError("config", f"config field {name!r} expects an integer, got {value!r}")
        try:
            return int(value)
        except (TypeError, ValueError, OverflowError):  # OverflowError: JSON Infinity
            raise RequestError(
                "config", f"config field {name!r} expects an integer, got {value!r}"
            ) from None
    if isinstance(reference, float):
        try:
            return float(value)
        except (TypeError, ValueError):
            raise RequestError("config", f"config field {name!r} expects a number, got {value!r}") from None
    if isinstance(reference, str):
        if not isinstance(value, str):
            raise RequestError("config", f"config field {name!r} expects a string, got {value!r}")
        return value
    return value


class OptimizationService:
    """The transport-agnostic request core of the daemon.

    Owns the resident state (rule set, cost model, compiled tries, result
    cache, worker pool) and turns request payload dicts into response dicts.
    One instance serves many connections; all state is thread-safe.
    """

    def __init__(
        self,
        service_config: Optional[ServiceConfig] = None,
        base_config: Optional[TensatConfig] = None,
        rules: Optional[RuleSet] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.config = service_config if service_config is not None else ServiceConfig()
        #: Per-request ``config`` overrides apply on top of this base; the
        #: default is the fast profile -- a service exists for interactive
        #: traffic, and callers opt into paper-scale limits per request.
        self.base_config = base_config if base_config is not None else TensatConfig.fast()
        self.rules = rules if rules is not None else default_ruleset()
        self.cost_model = cost_model if cost_model is not None else AnalyticCostModel()
        self.cache = ResultCache(self.config.cache_capacity)
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_concurrency, thread_name_prefix="repro-service"
        )
        self._trie = None
        self._trie_compiled = False
        self._lock = threading.Lock()
        self._admitted = 0  # optimize requests queued or running
        self._started_at = time.monotonic()
        self._requests: Dict[str, int] = {}
        self._errors = 0
        self._queue_seconds_total = 0.0
        self._optimize_seconds_total = 0.0

    # ------------------------------------------------------------------ #
    # Resident compiled state
    # ------------------------------------------------------------------ #

    def shared_trie(self):
        """The resident compiled rule trie (None for an empty rule set).

        Compiled once, on first use, over the service's rule set -- every
        configuration searches with the same trie; callers receive a
        :meth:`fork` with a private delta cache, so concurrent requests
        never share mutable matcher state.
        """
        with self._lock:
            if not self._trie_compiled:
                self._trie = compile_shared_trie(self.rules)
                self._trie_compiled = True
            trie = self._trie
        return trie.fork() if trie is not None else None

    def resolve_config(self, overrides: object) -> TensatConfig:
        """Apply per-request overrides to the base config, with typed errors.

        Field names are validated against the :class:`TensatConfig`
        dataclass, values are coerced to the field types, and construction
        re-runs the name-table validation -- an unknown field, a null value
        or an unknown extractor / scheduler name fails here with a
        ``config`` error.
        """
        if overrides is None:
            return self.base_config
        if not isinstance(overrides, Mapping):
            raise RequestError("config", f"config overrides must be an object, got {type(overrides).__name__}")
        if not overrides:
            return self.base_config
        known = {f.name: getattr(self.base_config, f.name) for f in dataclass_fields(TensatConfig)}
        coerced = {}
        for name, value in overrides.items():
            if name not in known:
                raise RequestError("config", f"unknown config field {name!r}")
            coerced[name] = _coerce_override(name, value, known[name])
        try:
            return self.base_config.with_overrides(**coerced)
        except (ConfigError, ValueError, TypeError) as exc:
            raise RequestError("config", str(exc)) from exc

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #

    async def handle(self, payload: object) -> Dict[str, object]:
        """One request payload -> one response dict (never raises)."""
        op = payload.get("op") if isinstance(payload, dict) else None
        try:
            if not isinstance(payload, dict):
                raise RequestError("protocol", "request must be a JSON object")
            if op == "optimize":
                response = await self._handle_optimize(payload)
            elif op == "status":
                response = {"ok": True, "op": "status", "status": self.status_payload()}
            elif op == "ping":
                response = {"ok": True, "op": "ping", "protocol": PROTOCOL_VERSION}
            elif op == "shutdown":
                response = {"ok": True, "op": "shutdown"}
            else:
                raise RequestError("protocol", f"unknown op {op!r}")
        except RequestError as exc:
            response = {"ok": False, "op": op, "error": {"type": exc.code, "message": str(exc)}}
        except Exception as exc:  # pragma: no cover - defensive boundary
            response = {
                "ok": False,
                "op": op,
                "error": {"type": "internal", "message": f"{type(exc).__name__}: {exc}"},
            }
        with self._lock:
            key = op if isinstance(op, str) else "<invalid>"
            self._requests[key] = self._requests.get(key, 0) + 1
            if not response.get("ok"):
                self._errors += 1
        return response

    async def _handle_optimize(self, payload: Dict[str, object]) -> Dict[str, object]:
        graph_doc = payload.get("graph")
        if graph_doc is None:
            raise RequestError("protocol", "optimize request needs a 'graph' field")
        config = self.resolve_config(payload.get("config"))
        try:
            graph = graph_from_doc(graph_doc)
        except SerializeError as exc:
            raise RequestError("serialize", str(exc)) from exc

        fingerprint = graph_fingerprint(graph)
        digest = config_digest(config, rules=self.rules, cost_model=self.cost_model)
        key = (fingerprint, digest)
        cached = self.cache.get(key)
        if cached is not None:
            return self._optimize_response(cached, "hit", fingerprint, digest, 0.0, 0.0)

        with self._lock:
            if self._admitted >= self.config.max_concurrency + self.config.queue_limit:
                raise RequestError(
                    "queue_full",
                    f"service is at capacity ({self._admitted} requests admitted, "
                    f"limit {self.config.max_concurrency} running + "
                    f"{self.config.queue_limit} queued); retry later",
                )
            self._admitted += 1
        try:
            loop = asyncio.get_running_loop()
            future = loop.run_in_executor(
                self._pool, self._optimize_sync, graph, config, time.perf_counter()
            )
            try:
                cached, queue_seconds, optimize_seconds = await asyncio.wait_for(
                    future, timeout=self.config.request_timeout
                )
            except asyncio.TimeoutError:
                raise RequestError(
                    "timeout",
                    f"request exceeded the {self.config.request_timeout}s budget "
                    "(the run keeps executing in the background but is not cached)",
                ) from None
        finally:
            with self._lock:
                self._admitted -= 1

        self.cache.put(key, cached)
        return self._optimize_response(
            cached, "miss", fingerprint, digest, queue_seconds, optimize_seconds
        )

    def _optimize_sync(self, graph, config: TensatConfig, enqueued_at: float):
        """Worker-thread body: one cache-missed optimization end-to-end."""
        queue_seconds = time.perf_counter() - enqueued_at
        start = time.perf_counter()
        result = optimize_many(
            [graph],
            cost_model=self.cost_model,
            rules=self.rules,
            config=config,
            shared_trie=self.shared_trie(),
        )[0]
        optimize_seconds = time.perf_counter() - start
        cached = CachedResult(
            graph_json=json.dumps(graph_to_doc(result.optimized), sort_keys=True),
            stats=result.stats.as_dict(),
            original_cost=result.original_cost,
            optimized_cost=result.optimized_cost,
        )
        with self._lock:
            self._queue_seconds_total += queue_seconds
            self._optimize_seconds_total += optimize_seconds
        return cached, queue_seconds, optimize_seconds

    def _optimize_response(
        self,
        cached: CachedResult,
        tier: str,
        fingerprint: str,
        digest: str,
        queue_seconds: float,
        optimize_seconds: float,
    ) -> Dict[str, object]:
        return {
            "ok": True,
            "op": "optimize",
            "cache": tier,
            "fingerprint": fingerprint,
            "config_digest": digest,
            "graph": json.loads(cached.graph_json),
            "stats": cached.stats,
            "original_cost_ms": cached.original_cost,
            "optimized_cost_ms": cached.optimized_cost,
            "queue_seconds": round(queue_seconds, 6),
            "optimize_seconds": round(optimize_seconds, 6),
        }

    def status_payload(self) -> Dict[str, object]:
        """The status counters (also printed by ``serve --json`` on shutdown)."""
        with self._lock:
            requests = dict(sorted(self._requests.items()))
            optimize_runs = max(
                self._requests.get("optimize", 0) - self.cache.hits, 1
            )
            return {
                "protocol": PROTOCOL_VERSION,
                "uptime_seconds": round(time.monotonic() - self._started_at, 3),
                "requests": requests,
                "errors": self._errors,
                "cache": self.cache.stats(),
                "queue": {
                    "admitted": self._admitted,
                    "max_concurrency": self.config.max_concurrency,
                    "queue_limit": self.config.queue_limit,
                    "queue_seconds_total": round(self._queue_seconds_total, 6),
                    "queue_seconds_mean": round(self._queue_seconds_total / optimize_runs, 6),
                    "optimize_seconds_total": round(self._optimize_seconds_total, 6),
                },
                "tries_compiled": int(self._trie_compiled),
            }

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._pool.shutdown(wait=False)


class OptimizationServer:
    """The asyncio TCP front end: newline-delimited JSON requests/responses."""

    def __init__(
        self,
        service: Optional[OptimizationService] = None,
        service_config: Optional[ServiceConfig] = None,
    ) -> None:
        self.service = service if service is not None else OptimizationService(service_config)
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop: Optional[asyncio.Event] = None
        #: The bound port (useful when ServiceConfig.port == 0).
        self.port: Optional[int] = None

    async def start(self) -> None:
        self._stop = asyncio.Event()
        config = self.service.config
        self._server = await asyncio.start_server(self._handle_connection, config.host, config.port)
        self.port = self._server.sockets[0].getsockname()[1]

    def request_stop(self) -> None:
        if self._stop is not None:
            self._stop.set()

    async def serve_until_shutdown(self) -> None:
        """Block until a shutdown request (or :meth:`request_stop`) arrives."""
        assert self._stop is not None, "call start() first"
        try:
            await self._stop.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            self.service.close()

    async def _handle_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                payload: object = None
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as exc:
                    response = {
                        "ok": False,
                        "op": None,
                        "error": {"type": "protocol", "message": f"invalid JSON: {exc}"},
                    }
                else:
                    response = await self.service.handle(payload)
                writer.write((json.dumps(response) + "\n").encode("utf-8"))
                await writer.drain()
                if (
                    isinstance(payload, dict)
                    and payload.get("op") == "shutdown"
                    and response.get("ok")
                ):
                    self.request_stop()
                    break
        except (ConnectionResetError, BrokenPipeError):  # client went away mid-line
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass


def run_server(
    service_config: Optional[ServiceConfig] = None,
    base_config: Optional[TensatConfig] = None,
    rules: Optional[RuleSet] = None,
    cost_model: Optional[CostModel] = None,
    ready: Optional[Callable[[str, int], None]] = None,
) -> Dict[str, object]:
    """Run the daemon until a shutdown request; returns the final status.

    ``ready(host, port)`` is called once the socket is bound (the CLI prints
    the listening address from it; the smoke test parses that line).
    """
    service = OptimizationService(
        service_config=service_config,
        base_config=base_config,
        rules=rules,
        cost_model=cost_model,
    )

    async def main() -> None:
        server = OptimizationServer(service)
        await server.start()
        if ready is not None:
            ready(service.config.host, server.port)
        await server.serve_until_shutdown()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    return service.status_payload()


class ServerThread:
    """A daemon running on a background thread (tests and benchmarks).

    Usage::

        with ServerThread(service_config=ServiceConfig(port=0)) as server:
            client = ServiceClient(port=server.port)
            ...

    The context exit requests a stop and joins the thread; ``port`` is the
    actual bound port (pass ``port=0`` for an ephemeral one).
    """

    def __init__(
        self,
        service: Optional[OptimizationService] = None,
        service_config: Optional[ServiceConfig] = None,
        base_config: Optional[TensatConfig] = None,
        rules: Optional[RuleSet] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.service = service if service is not None else OptimizationService(
            service_config=service_config,
            base_config=base_config,
            rules=rules,
            cost_model=cost_model,
        )
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[OptimizationServer] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, name="repro-service-server", daemon=True)

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._server = OptimizationServer(self.service)
            await self._server.start()
            self.port = self._server.port
            self._ready.set()
            await self._server.serve_until_shutdown()

        try:
            asyncio.run(main())
        except BaseException as exc:  # surface bind errors to start()
            self._error = exc
            self._ready.set()

    def start(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._error is not None:
            raise RuntimeError(f"service server failed to start: {self._error}") from self._error
        if self.port is None:
            raise RuntimeError("service server did not come up within 30s")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._server.request_stop)
        self._thread.join(timeout=30.0)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
