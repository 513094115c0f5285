"""End-to-end tests of the TENSAT optimizer."""

import pytest

from repro import OptimizationSession, TensatConfig, optimize
from repro.backend import execute_graph, outputs_allclose
from repro.costs import AnalyticCostModel
from repro.ir.graph import GraphBuilder
from repro.ir.validate import check_same_interface, validate_graph
from repro.rules import default_ruleset
from repro.search import BacktrackingSearch

# End-to-end saturation runs; deselect with ``-m "not slow"``.
pytestmark = pytest.mark.slow

FAST = TensatConfig.fast()


class TestOptimizeEndToEnd:
    def test_shared_matmuls(self, shared_matmul_graph):
        result = optimize(shared_matmul_graph, config=FAST, verify_numerically=True)
        assert result.speedup_percent > 0
        validate_graph(result.optimized)
        check_same_interface(result.original, result.optimized)

    def test_nasrnn_like_graph(self, nasrnn_like_graph):
        result = optimize(nasrnn_like_graph, config=FAST, verify_numerically=True)
        assert result.speedup_percent > 0
        assert result.stats.num_enodes > len(nasrnn_like_graph)

    def test_never_worse_than_original(self):
        b = GraphBuilder("single")
        x = b.input("x", (8, 64))
        w = b.weight("w", (64, 32))
        g = b.finish(outputs=[b.matmul(x, w)])
        result = optimize(g, config=FAST)
        assert result.optimized_cost <= result.original_cost + 1e-12

    def test_greedy_extraction_mode(self, nasrnn_like_graph):
        result = optimize(nasrnn_like_graph, config=FAST, extraction="greedy")
        assert result.optimized_cost <= result.original_cost + 1e-12

    def test_greedy_never_beats_ilp(self, nasrnn_like_graph):
        greedy = optimize(nasrnn_like_graph, config=FAST, extraction="greedy")
        ilp = optimize(nasrnn_like_graph, config=FAST, extraction="ilp")
        assert ilp.optimized_cost <= greedy.optimized_cost + 1e-9

    def test_ilp_with_cycle_constraints_and_no_filtering(self, shared_matmul_graph):
        result = optimize(
            shared_matmul_graph,
            config=FAST,
            cycle_filter="none",
            ilp_cycle_constraints=True,
        )
        validate_graph(result.optimized)
        assert result.speedup_percent >= 0

    def test_kmulti_zero_disables_merges(self, shared_matmul_graph):
        no_multi = optimize(shared_matmul_graph, config=FAST, k_multi=0)
        with_multi = optimize(shared_matmul_graph, config=FAST, k_multi=1)
        assert with_multi.optimized_cost <= no_multi.optimized_cost
        assert with_multi.speedup_percent > no_multi.speedup_percent

    def test_stats_populated(self, shared_matmul_graph):
        result = optimize(shared_matmul_graph, config=FAST)
        stats = result.stats
        assert stats.exploration_seconds > 0
        assert stats.extraction_seconds > 0
        assert stats.total_seconds >= stats.exploration_seconds
        assert stats.num_enodes > 0
        assert stats.stop_reason in ("saturated", "iteration_limit", "node_limit", "time_limit")
        assert result.summary()

    def test_explore_and_extract_separately(self, shared_matmul_graph):
        session = OptimizationSession(shared_matmul_graph, config=FAST)
        report = session.explore()
        assert report.num_iterations >= 1
        extraction = session.extract()
        assert extraction.expr is not None

    def test_custom_rules_subset(self, shared_matmul_graph):
        rules = default_ruleset().filter(include_tags=["fusion"])
        result = optimize(shared_matmul_graph, rules=rules, config=FAST)
        # Fusion-only rules cannot merge the two matmuls.
        assert result.optimized_cost == pytest.approx(result.original_cost)

    def test_matches_backtracking_on_small_graph(self, nasrnn_like_graph):
        """On a small graph both searches should find the same optimum (paper Table 1 shape)."""
        cm = AnalyticCostModel()
        tensat = optimize(nasrnn_like_graph, cost_model=cm, config=FAST)
        taso = BacktrackingSearch(cm, budget=40, time_limit=120).optimize(nasrnn_like_graph)
        assert tensat.optimized_cost <= taso.optimized_cost + 1e-9

    def test_numerical_equivalence_flag_raises_on_violation(self, shared_matmul_graph):
        # With verification on, a successful run simply passes.
        result = optimize(shared_matmul_graph, config=FAST, verify_numerically=True)
        assert outputs_allclose(
            execute_graph(result.original), execute_graph(result.optimized)
        )
