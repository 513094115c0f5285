"""Tests for the optimization service: cache, config, daemon round-trips.

The load-bearing guarantee is cache parity: a cache-hit response must decode
to a graph and costs bit-identical to a direct ``optimize()``
run under the same configuration (the cache stores serialized results, so
any divergence would mean the service returns *different answers* depending
on traffic history).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import fields as dataclass_fields

import pytest

from repro.core.config import TensatConfig
from repro.core.optimizer import optimize
from repro.ir.graph import GraphBuilder
from repro.ir.serialize import graph_to_doc
from repro.models import build_model
from repro.service import (
    CachedResult,
    OptimizationService,
    ResultCache,
    ServerThread,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    parse_overrides,
)
from repro.service.server import RequestError

#: The profile the service defaults to; the parity tests pin against it.
FAST = TensatConfig.fast()


def small_graph(name: str = "g", scale: int = 8):
    b = GraphBuilder(name)
    x = b.input("x", (scale, scale))
    w = b.weight("w", (scale, scale))
    return b.finish(outputs=[b.relu(b.matmul(x, w))])


def handle(service: OptimizationService, payload):
    return asyncio.run(service.handle(payload))


# --------------------------------------------------------------------- #
# ResultCache
# --------------------------------------------------------------------- #


def entry(tag: str) -> CachedResult:
    return CachedResult(graph_json=tag, stats={}, original_cost=1.0, optimized_cost=0.5)


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", entry("A"))
        assert cache.get("a").graph_json == "A"
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "size": 1,
            "capacity": 2,
        }

    def test_lru_evicts_least_recently_used(self):
        cache = ResultCache(capacity=2)
        cache.put("a", entry("A"))
        cache.put("b", entry("B"))
        cache.get("a")  # refresh a; b is now the LRU entry
        cache.put("c", entry("C"))
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats()["evictions"] == 1

    def test_put_same_key_updates_without_eviction(self):
        cache = ResultCache(capacity=1)
        cache.put("a", entry("A"))
        cache.put("a", entry("A2"))
        assert cache.get("a").graph_json == "A2"
        assert cache.stats()["evictions"] == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)


# --------------------------------------------------------------------- #
# Override parsing / config resolution
# --------------------------------------------------------------------- #


class TestParseOverrides:
    def test_types_decoded(self):
        assert parse_overrides(["iter_limit=3", "alpha=1.5", "flag=true", "x=none", "s=greedy"]) == {
            "iter_limit": 3,
            "alpha": 1.5,
            "flag": True,
            "x": "none",
            "s": "greedy",
        }

    def test_none_is_sent_as_a_string_and_rejected_by_the_server(self):
        service = OptimizationService()
        with pytest.raises(RequestError) as info:
            service.resolve_config(parse_overrides(["iter_limit=none"]))
        assert info.value.code == "config"
        assert "'none'" in str(info.value)

    def test_malformed_pair_rejected(self):
        with pytest.raises(ValueError, match="KEY=VALUE"):
            parse_overrides(["iter_limit"])


class TestResolveConfig:
    def test_no_overrides_returns_base(self):
        service = OptimizationService()
        assert service.resolve_config(None) is service.base_config
        assert service.resolve_config({}) is service.base_config

    def test_overrides_applied_with_coercion(self):
        service = OptimizationService()
        config = service.resolve_config({"iter_limit": "3", "k_multi": 0})
        assert config.iter_limit == 3 and config.k_multi == 0

    def test_unknown_field_is_typed_config_error(self):
        service = OptimizationService()
        with pytest.raises(RequestError, match="unknown config field 'warp_speed'") as info:
            service.resolve_config({"warp_speed": 9})
        assert info.value.code == "config"

    def test_bad_value_type_is_typed_config_error(self):
        service = OptimizationService()
        with pytest.raises(RequestError) as info:
            service.resolve_config({"iter_limit": "many"})
        assert info.value.code == "config"

    def test_registry_validation_runs(self):
        # Unknown extractor name: must surface as a typed config error from
        # the name-table check, not a raw ConfigError leaking to the transport.
        service = OptimizationService()
        with pytest.raises(RequestError) as info:
            service.resolve_config({"extraction": "quantum"})
        assert info.value.code == "config"
        assert "quantum" in str(info.value)


class TestServiceConfig:
    def test_knobs_validated(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_concurrency=0)
        with pytest.raises(ValueError):
            ServiceConfig(queue_limit=-1)
        with pytest.raises(ValueError):
            ServiceConfig(request_timeout=0.0)
        with pytest.raises(ValueError):
            ServiceConfig(cache_capacity=0)


# --------------------------------------------------------------------- #
# Request core (no sockets)
# --------------------------------------------------------------------- #


class TestRequestCore:
    def test_ping_and_unknown_op(self):
        service = OptimizationService()
        assert handle(service, {"op": "ping"})["ok"] is True
        response = handle(service, {"op": "teleport"})
        assert response["ok"] is False and response["error"]["type"] == "protocol"

    def test_non_object_payload(self):
        response = handle(OptimizationService(), [1, 2])
        assert response["ok"] is False and response["error"]["type"] == "protocol"

    def test_optimize_needs_graph(self):
        response = handle(OptimizationService(), {"op": "optimize"})
        assert response["ok"] is False and response["error"]["type"] == "protocol"

    def test_bad_graph_is_serialize_error(self):
        response = handle(
            OptimizationService(),
            {"op": "optimize", "graph": {"nodes": [{"op": "warp", "inputs": []}], "outputs": [0]}},
        )
        assert response["ok"] is False
        assert response["error"]["type"] == "serialize"
        assert "nodes[0].op" in response["error"]["message"]

    def test_bad_config_is_config_error(self):
        response = handle(
            OptimizationService(),
            {"op": "optimize", "graph": graph_to_doc(small_graph()), "config": {"nope": 1}},
        )
        assert response["ok"] is False and response["error"]["type"] == "config"

    def test_null_override_is_typed_config_error_for_every_field(self):
        service = OptimizationService()
        doc = graph_to_doc(small_graph())
        for field in dataclass_fields(TensatConfig):
            response = handle(service, {"op": "optimize", "graph": doc, "config": {field.name: None}})
            assert response["ok"] is False, field.name
            assert response["error"]["type"] == "config", (field.name, response["error"])
            assert field.name in response["error"]["message"]

    def test_non_finite_number_is_typed_config_error_for_every_numeric_field(self):
        # Python's json accepts Infinity and NaN; none of them may reach
        # int() (OverflowError) or the solver.
        service = OptimizationService()
        doc = graph_to_doc(small_graph())
        numeric = [f.name for f in dataclass_fields(TensatConfig)
                   if type(f.default) in (int, float)]
        assert len(numeric) == 8
        for name in numeric:
            for value in (float("inf"), float("-inf"), float("nan")):
                response = handle(service, {"op": "optimize", "graph": doc, "config": {name: value}})
                assert response["ok"] is False, (name, value)
                assert response["error"]["type"] == "config", (name, value, response["error"])
                assert name in response["error"]["message"]

    def test_out_of_range_float_is_typed_config_error(self):
        service = OptimizationService()
        doc = graph_to_doc(small_graph())
        for name, value in (("exploration_time_limit", 0), ("exploration_time_limit", -1.0),
                            ("ilp_time_limit", -0.0), ("ilp_time_limit", "-1"),
                            ("ilp_mip_gap", -0.5), ("ilp_mip_gap", "1e400")):
            response = handle(service, {"op": "optimize", "graph": doc, "config": {name: value}})
            assert response["ok"] is False, (name, value)
            assert response["error"]["type"] == "config", (name, value, response["error"])
            assert name in response["error"]["message"]

    def test_removed_field_is_unknown_config_field(self):
        service = OptimizationService()
        doc = graph_to_doc(small_graph())
        for name, value in (("max_multi_combinations", 10), ("delta_matching", True),
                            ("extraction_prune", True), ("ilp_integer_topo", False),
                            ("ilp_fallback_to_greedy", True), ("validate_output", True)):
            response = handle(service, {"op": "optimize", "graph": doc, "config": {name: value}})
            assert response["ok"] is False
            assert response["error"] == {"type": "config", "message": f"unknown config field {name!r}"}

    def test_queue_full_fails_fast(self):
        service = OptimizationService(ServiceConfig(max_concurrency=1, queue_limit=0))
        service._admitted = 1  # as if one request were already running
        response = handle(service, {"op": "optimize", "graph": graph_to_doc(small_graph())})
        assert response["ok"] is False and response["error"]["type"] == "queue_full"
        service._admitted = 0
        service.close()

    def test_timeout_is_typed_and_not_cached(self):
        # Deterministic: the worker is pinned slower than the budget (a tiny
        # budget alone races a warm optimization that can finish first).
        service = OptimizationService(ServiceConfig(request_timeout=0.05))
        original = service._optimize_sync

        def slow_optimize(graph, config, enqueued_at):
            time.sleep(0.5)
            return original(graph, config, enqueued_at)

        service._optimize_sync = slow_optimize
        response = handle(service, {"op": "optimize", "graph": graph_to_doc(small_graph())})
        assert response["ok"] is False and response["error"]["type"] == "timeout"
        assert len(service.cache) == 0
        service.close()

    def test_miss_then_hit_and_counters(self):
        service = OptimizationService()
        payload = {"op": "optimize", "graph": graph_to_doc(small_graph())}
        first = handle(service, payload)
        second = handle(service, payload)
        assert first["ok"] and first["cache"] == "miss"
        assert second["ok"] and second["cache"] == "hit"
        assert second["graph"] == first["graph"]
        assert second["fingerprint"] == first["fingerprint"]
        status = service.status_payload()
        assert status["cache"]["hits"] == 1 and status["cache"]["misses"] == 1
        assert status["requests"]["optimize"] == 2
        assert status["queue"]["queue_seconds_total"] >= 0.0
        assert status["tries_compiled"] == 1
        service.close()

    def test_isomorphic_resubmission_hits(self):
        service = OptimizationService()
        first = handle(
            service, {"op": "optimize", "graph": graph_to_doc(small_graph("alpha"))}
        )
        renamed = GraphBuilder("beta")
        x = renamed.input("different_input_name", (8, 8))
        w = renamed.weight("different_weight_name", (8, 8))
        second = handle(
            service,
            {
                "op": "optimize",
                "graph": graph_to_doc(renamed.finish(outputs=[renamed.relu(renamed.matmul(x, w))])),
            },
        )
        assert first["cache"] == "miss" and second["cache"] == "hit"
        service.close()

    def test_changed_config_misses(self):
        service = OptimizationService()
        doc = graph_to_doc(small_graph())
        first = handle(service, {"op": "optimize", "graph": doc})
        second = handle(service, {"op": "optimize", "graph": doc, "config": {"k_multi": 0}})
        assert first["cache"] == "miss" and second["cache"] == "miss"
        assert first["config_digest"] != second["config_digest"]
        service.close()


# --------------------------------------------------------------------- #
# Cache parity: hit responses are bit-identical to direct optimize()
# --------------------------------------------------------------------- #


class TestCacheParity:
    @pytest.mark.parametrize("model", ["nasrnn", "resnext"])
    def test_hit_matches_direct_optimize(self, model):
        graph = build_model(model, "tiny")
        direct = optimize(graph, config=FAST)
        service = OptimizationService(base_config=FAST)
        payload = {"op": "optimize", "graph": graph_to_doc(graph)}
        miss = handle(service, payload)
        hit = handle(service, payload)
        assert miss["cache"] == "miss" and hit["cache"] == "hit"
        # Bit-identical: same serialized graph document, same costs, and the
        # hit is byte-for-byte the miss (it is served from the stored text).
        expected_doc = json.loads(json.dumps(graph_to_doc(direct.optimized), sort_keys=True))
        assert hit["graph"] == expected_doc
        assert hit["graph"] == miss["graph"]
        assert hit["original_cost_ms"] == direct.original_cost
        assert hit["optimized_cost_ms"] == direct.optimized_cost
        service.close()

    def test_changed_config_digest_misses_and_differs(self):
        graph = build_model("nasrnn", "tiny")
        service = OptimizationService(base_config=FAST)
        base = handle(service, {"op": "optimize", "graph": graph_to_doc(graph)})
        other = handle(
            service,
            {"op": "optimize", "graph": graph_to_doc(graph), "config": {"iter_limit": 2}},
        )
        assert base["cache"] == "miss" and other["cache"] == "miss"
        assert base["config_digest"] != other["config_digest"]
        # And the second key is cached independently:
        again = handle(
            service,
            {"op": "optimize", "graph": graph_to_doc(graph), "config": {"iter_limit": 2}},
        )
        assert again["cache"] == "hit" and again["graph"] == other["graph"]
        service.close()


# --------------------------------------------------------------------- #
# TCP daemon round-trips
# --------------------------------------------------------------------- #


class TestDaemon:
    def test_socket_round_trip_and_shutdown(self):
        with ServerThread(service_config=ServiceConfig(port=0)) as server:
            client = ServiceClient(port=server.port)
            assert client.ping()
            graph = small_graph()
            first = client.optimize(graph=graph)
            second = client.optimize(graph=graph)
            assert first["cache"] == "miss" and second["cache"] == "hit"
            decoded = ServiceClient.optimized_graph(second)
            assert graph_to_doc(decoded) == first["graph"]
            status = client.status()
            assert status["cache"]["hits"] == 1
            assert status["requests"]["optimize"] == 2
            client.shutdown()

    def test_typed_error_over_the_wire(self):
        with ServerThread(service_config=ServiceConfig(port=0)) as server:
            client = ServiceClient(port=server.port)
            with pytest.raises(ServiceError) as info:
                client.optimize(graph_doc={"nodes": "nope", "outputs": []})
            assert info.value.type == "serialize"
            response = client.optimize(
                graph=small_graph(), config={"extraction": "quantum"}, check=False
            )
            assert response["ok"] is False and response["error"]["type"] == "config"
            client.shutdown()

    def test_infinity_over_the_wire_is_config_error(self):
        # The client's json.dumps writes float("inf") as the bare token Infinity.
        with ServerThread(service_config=ServiceConfig(port=0)) as server:
            client = ServiceClient(port=server.port)
            for name in ("node_limit", "ilp_time_limit"):
                response = client.optimize(
                    graph=small_graph(), config={name: float("inf")}, check=False
                )
                assert response["ok"] is False
                assert response["error"]["type"] == "config", response["error"]
                assert name in response["error"]["message"]
            assert client.ping()
            client.shutdown()

    def test_removed_knob_is_config_error_and_daemon_keeps_serving(self):
        # The search phase has one path; requests naming its old knobs get
        # the typed config error, and the daemon goes on serving.
        removed = {
            "matcher": "naive",
            "search_mode": "per-rule",
            "multipattern_join": "product",
            "condition_cache": "memo",
            "shape_analysis": "off",
            "search_jobs": 2,
            "search_executor": "process",
        }
        with ServerThread(service_config=ServiceConfig(port=0)) as server:
            client = ServiceClient(port=server.port)
            for name, value in removed.items():
                response = client.optimize(graph=small_graph(), config={name: value}, check=False)
                assert response["ok"] is False
                assert response["error"]["type"] == "config"
                assert f"unknown config field {name!r}" in response["error"]["message"]
            assert client.ping()
            served = client.optimize(graph=small_graph())
            assert served["ok"] and served["cache"] == "miss"
            client.shutdown()

    def test_removed_extraction_knob_is_config_error(self):
        # The portfolio extractor and the ILP backend / warm-start knobs are
        # gone: naming them is a typed config error, not a crash.
        with ServerThread(service_config=ServiceConfig(port=0)) as server:
            client = ServiceClient(port=server.port)
            for name, value in (
                ("ilp_warm_start", False),
                ("ilp_backend", "bnb"),
                ("extraction_deadline", 5.0),
            ):
                response = client.optimize(graph=small_graph(), config={name: value}, check=False)
                assert response["ok"] is False
                assert response["error"]["type"] == "config"
                assert f"unknown config field {name!r}" in response["error"]["message"]
            response = client.optimize(
                graph=small_graph(), config={"extraction": "portfolio"}, check=False
            )
            assert response["ok"] is False
            assert response["error"]["type"] == "config"
            assert "portfolio" in response["error"]["message"]
            assert client.ping()
            client.shutdown()

    def test_connection_error_is_typed(self):
        with ServerThread(service_config=ServiceConfig(port=0)) as server:
            dead_port = server.port
        client = ServiceClient(port=dead_port, timeout=2.0)
        with pytest.raises(ServiceError) as info:
            client.ping()
        assert info.value.type == "connection"
