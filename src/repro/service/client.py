"""Blocking client for the optimization service.

One connection per request keeps the client trivially robust (no stream
state to resynchronise after an error); the daemon happily serves many
short-lived connections.  Used by the CLI ``submit`` subcommand, the test
suite, the CI smoke script, and the load benchmark.
"""

from __future__ import annotations

import json
import socket
from typing import Dict, Iterable, Optional

from repro.ir.graph import TensorGraph
from repro.ir.serialize import graph_from_doc, graph_to_doc

__all__ = ["ServiceClient", "ServiceError", "parse_overrides"]


class ServiceError(RuntimeError):
    """An error response (or transport failure); ``type`` is the typed code."""

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"[{error_type}] {message}")
        self.type = error_type


def parse_overrides(pairs: Iterable[str]) -> Dict[str, object]:
    """Parse CLI ``KEY=VALUE`` override strings into a config-override dict.

    Values are decoded leniently (int, float, true/false, else string); the
    server re-coerces and validates against the config dataclass and its
    name tables, so a bad name or value comes back as a typed ``config``
    error naming the problem.  There is no spelling for JSON ``null``: the
    server rejects it for every field.
    """
    overrides: Dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"override {pair!r} is not of the form KEY=VALUE")
        lowered = raw.lower()
        value: object
        if lowered in ("true", "false"):
            value = lowered == "true"
        else:
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
        overrides[key] = value
    return overrides


class ServiceClient:
    """Talk to a running optimization service over its line-JSON protocol."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8077, timeout: float = 600.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #

    def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Send one request payload; return the raw response dict."""
        try:
            with socket.create_connection((self.host, self.port), timeout=self.timeout) as sock:
                sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
                with sock.makefile("rb") as stream:
                    line = stream.readline()
        except OSError as exc:
            raise ServiceError("connection", f"cannot reach {self.host}:{self.port}: {exc}") from exc
        if not line:
            raise ServiceError("connection", "server closed the connection without responding")
        try:
            return json.loads(line)
        except json.JSONDecodeError as exc:
            raise ServiceError("protocol", f"malformed response line: {exc}") from exc

    @staticmethod
    def raise_for_error(response: Dict[str, object]) -> Dict[str, object]:
        """Raise :class:`ServiceError` when ``response`` is an error; else pass it through."""
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ServiceError(str(error.get("type", "unknown")), str(error.get("message", response)))
        return response

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #

    def optimize(
        self,
        graph: Optional[TensorGraph] = None,
        graph_doc: Optional[Dict[str, object]] = None,
        config: Optional[Dict[str, object]] = None,
        check: bool = True,
    ) -> Dict[str, object]:
        """Submit a graph (or a pre-serialized document) for optimization.

        The response carries the optimized graph document (decode it with
        :meth:`optimized_graph`), the run's stats, the cache tier
        (``"hit"`` / ``"miss"``), and the fingerprint / config digest that
        keyed the cache.  With ``check=False`` error responses are returned
        instead of raised.
        """
        if (graph is None) == (graph_doc is None):
            raise ValueError("pass exactly one of graph / graph_doc")
        doc = graph_to_doc(graph) if graph is not None else graph_doc
        response = self.request({"op": "optimize", "graph": doc, "config": config or {}})
        return self.raise_for_error(response) if check else response

    @staticmethod
    def optimized_graph(response: Dict[str, object]) -> TensorGraph:
        """Decode the optimized graph out of an optimize response."""
        return graph_from_doc(response["graph"])

    def status(self) -> Dict[str, object]:
        """The server's status counters (cache traffic, queue wait, uptime)."""
        return self.raise_for_error(self.request({"op": "status"}))["status"]

    def ping(self) -> bool:
        """True when the server answers the ping op."""
        return bool(self.raise_for_error(self.request({"op": "ping"})).get("ok"))

    def shutdown(self) -> None:
        """Ask the server to shut down cleanly."""
        self.raise_for_error(self.request({"op": "shutdown"}))
