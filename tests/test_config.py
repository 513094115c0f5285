"""Tests for TensatConfig and OptimizationStats."""

from dataclasses import fields

import pytest

from repro.core import OptimizationStats, TensatConfig


class TestTensatConfig:
    def test_paper_defaults(self):
        cfg = TensatConfig.paper_defaults()
        assert cfg.node_limit == 50_000
        assert cfg.iter_limit == 15
        assert cfg.k_multi == 1
        assert cfg.extraction == "ilp"
        assert cfg.cycle_filter == "efficient"
        assert not cfg.ilp_cycle_constraints

    def test_fast_preset_is_smaller(self):
        fast = TensatConfig.fast()
        assert fast.node_limit < TensatConfig().node_limit

    def test_with_overrides(self):
        cfg = TensatConfig().with_overrides(k_multi=3, extraction="greedy")
        assert cfg.k_multi == 3
        assert cfg.extraction == "greedy"
        # original untouched (frozen dataclass)
        assert TensatConfig().k_multi == 1

    def test_invalid_extraction_rejected(self):
        with pytest.raises(ValueError):
            TensatConfig(extraction="magic")

    def test_invalid_cycle_filter_rejected(self):
        with pytest.raises(ValueError):
            TensatConfig(cycle_filter="sometimes")

    def test_invalid_backend_rejected(self):
        # Extraction has one exact path (HiGHS, with its greedy fallback);
        # the portfolio extractor and its knobs are gone.
        with pytest.raises(ValueError, match="portfolio"):
            TensatConfig(extraction="portfolio")
        for removed in ("ilp_backend", "ilp_warm_start", "extraction_deadline"):
            with pytest.raises(TypeError):
                TensatConfig(**{removed: None})

    def test_invalid_engine_knobs_rejected(self):
        with pytest.raises(ValueError):
            TensatConfig(scheduler="adaptive")
        with pytest.raises(ValueError):
            TensatConfig(cycle_filter="sometimes")
        # The search phase has one path; its old knobs are not fields.
        for removed in ("matcher", "search_mode", "multipattern_join", "condition_cache",
                        "shape_analysis", "search_jobs", "search_executor"):
            with pytest.raises(TypeError):
                TensatConfig(**{removed: None})
        # Knobs no caller set to anything but their default are not fields.
        for removed in ("max_multi_combinations", "delta_matching", "extraction_prune",
                        "ilp_integer_topo", "ilp_fallback_to_greedy", "validate_output"):
            with pytest.raises(TypeError):
                TensatConfig(**{removed: None})

    def test_fields(self):
        assert [f.name for f in fields(TensatConfig)] == [
            "node_limit", "iter_limit", "k_multi", "exploration_time_limit",
            "scheduler", "scheduler_match_limit", "scheduler_ban_length",
            "cycle_filter", "extraction", "ilp_cycle_constraints", "ilp_time_limit",
            "ilp_mip_gap", "verify_numerically",
        ]

    def test_engine_defaults(self):
        cfg = TensatConfig()
        assert cfg.scheduler == "simple"
        assert cfg.cycle_filter == "efficient"

    def test_nonpositive_limits_rejected(self):
        with pytest.raises(ValueError):
            TensatConfig(node_limit=0)
        with pytest.raises(ValueError):
            TensatConfig(iter_limit=0)
        with pytest.raises(ValueError):
            TensatConfig(k_multi=-1)

    def test_no_cycle_handling_at_all_is_rejected(self):
        # cycle_filter="none" + ILP without cycle constraints could extract a cyclic graph.
        with pytest.raises(ValueError):
            TensatConfig(cycle_filter="none", extraction="ilp", ilp_cycle_constraints=False)

    def test_none_filter_with_cycle_constraints_is_allowed(self):
        cfg = TensatConfig(cycle_filter="none", ilp_cycle_constraints=True)
        assert cfg.cycle_filter == "none"


class TestOptimizationStats:
    def test_speedup_percent(self):
        stats = OptimizationStats(original_cost=2.0, optimized_cost=1.0)
        assert stats.speedup_percent == pytest.approx(100.0)

    def test_speedup_zero_when_no_cost(self):
        assert OptimizationStats().speedup_percent == 0.0

    def test_as_dict_keys(self):
        stats = OptimizationStats(original_cost=2.0, optimized_cost=1.0, stop_reason="saturated")
        d = stats.as_dict()
        assert d["stop_reason"] == "saturated"
        assert d["speedup_percent"] == pytest.approx(100.0)

    def test_as_dict_phase_breakdown(self):
        stats = OptimizationStats(
            exploration_seconds=1.0,
            search_seconds=0.5,
            apply_seconds=0.3,
            rebuild_seconds=0.1,
        )
        d = stats.as_dict()
        assert d["search_seconds"] == pytest.approx(0.5)
        assert d["apply_seconds"] == pytest.approx(0.3)
        assert d["rebuild_seconds"] == pytest.approx(0.1)
