"""Component-registry tests: the one source of truth for pluggable strategies.

Covers the :class:`~repro.core.registry.Registry` mechanics, the built-in
entries, the derivation of config validation and CLI choices from the
registries, and end-to-end registration of third-party components without
editing the driver.
"""

from __future__ import annotations

import pytest

from repro import TensatConfig, optimize
from repro.cli import build_parser
from repro.core.registry import CYCLE_FILTERS, EXTRACTORS, Registry, SCHEDULERS
from repro.egraph.extraction.greedy import GreedyExtractor
from repro.egraph.scheduler import SimpleScheduler

FAST = TensatConfig.fast()


class TestRegistryMechanics:
    def test_register_get_create_names(self):
        reg = Registry("widget")
        reg.register("a", lambda **kw: ("a", kw))
        reg.register("b", lambda **kw: ("b", kw))
        assert reg.names() == ("a", "b")
        assert "a" in reg and "c" not in reg
        assert len(reg) == 2 and list(reg) == ["a", "b"]
        assert reg.create("b", x=1) == ("b", {"x": 1})

    def test_decorator_registration(self):
        reg = Registry("widget")

        @reg.register("decorated")
        def factory():
            return 42

        assert reg.get("decorated") is factory

    def test_unknown_name_error_lists_available(self):
        reg = Registry("widget")
        reg.register("only", object())
        with pytest.raises(ValueError, match=r"unknown widget 'nope'; available: only"):
            reg.get("nope")
        with pytest.raises(ValueError, match="available"):
            reg.check("nope")
        with pytest.raises(ValueError):
            reg.unregister("nope")

    def test_duplicate_registration_rejected(self):
        reg = Registry("widget")
        reg.register("taken", object())
        with pytest.raises(ValueError, match="already registered"):
            reg.register("taken", object())

    def test_unregister(self):
        reg = Registry("widget")
        reg.register("gone", object())
        reg.unregister("gone")
        assert "gone" not in reg
        reg.register("gone", object())  # name is reusable afterwards

    def test_create_rejects_non_callable_entry(self):
        reg = Registry("mode")
        reg.register("descriptor", "just a description")
        with pytest.raises(TypeError):
            reg.create("descriptor")


class TestBuiltinEntries:
    def test_builtin_names(self):
        assert SCHEDULERS.names() == ("simple", "backoff")
        assert EXTRACTORS.names() == ("ilp", "greedy")
        assert CYCLE_FILTERS.names() == ("efficient", "vanilla", "none")

    def test_config_validation_error_lists_choices(self):
        with pytest.raises(ValueError, match="available"):
            TensatConfig(scheduler="regex")
        with pytest.raises(ValueError, match="available"):
            TensatConfig(extraction="random")
        with pytest.raises(ValueError, match="available"):
            TensatConfig(cycle_filter="sometimes")

    def test_cli_choices_derive_from_registries(self):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if hasattr(a, "choices") and "optimize" in (a.choices or {})
        )
        actions = {a.dest: a for a in subparsers.choices["optimize"]._actions}
        assert tuple(actions["scheduler"].choices) == SCHEDULERS.names()
        assert tuple(actions["extraction"].choices) == EXTRACTORS.names()
        assert tuple(actions["cycle_filter"].choices) == CYCLE_FILTERS.names()


class TestThirdPartyRegistration:
    def test_custom_scheduler_plugs_in_via_config(self, shared_matmul_graph):
        class EagerScheduler(SimpleScheduler):
            name = "test-eager"

        SCHEDULERS.register("test-eager", lambda match_limit, ban_length: EagerScheduler())
        try:
            config = FAST.with_overrides(scheduler="test-eager", extraction="greedy")
            result = optimize(shared_matmul_graph, config=config)
            assert result.optimized_cost <= result.original_cost + 1e-9
            # An identically-behaving scheduler must not change the trajectory.
            baseline = optimize(
                shared_matmul_graph, config=FAST.with_overrides(extraction="greedy")
            )
            assert result.stats.num_enodes == baseline.stats.num_enodes
            assert result.optimized_cost == baseline.optimized_cost
        finally:
            SCHEDULERS.unregister("test-eager")
        with pytest.raises(ValueError):
            TensatConfig(scheduler="test-eager")

    def test_custom_extractor_plugs_in_via_config(self, shared_matmul_graph):
        created = []

        def make_test_extractor(node_cost, config, filter_list):
            extractor = GreedyExtractor(node_cost, filter_list=filter_list)
            created.append(extractor)
            return extractor

        EXTRACTORS.register("test-greedy", make_test_extractor)
        try:
            config = FAST.with_overrides(extraction="test-greedy")
            result = optimize(shared_matmul_graph, config=config)
            assert created, "registered factory was never used"
            baseline = optimize(shared_matmul_graph, config=FAST.with_overrides(extraction="greedy"))
            assert result.optimized_cost == baseline.optimized_cost
        finally:
            EXTRACTORS.unregister("test-greedy")
