"""Tests for the TASO-style backtracking baseline."""

from repro.backend import execute_graph, outputs_allclose
from repro.costs import AnalyticCostModel
from repro.ir.graph import GraphBuilder
from repro.ir.validate import check_same_interface, validate_graph
from repro.rules import default_ruleset
from repro.search import BacktrackingSearch


def shared_matmul_graph():
    b = GraphBuilder("pair")
    x = b.input("x", (8, 64))
    w1 = b.weight("w1", (64, 128))
    w2 = b.weight("w2", (64, 96))
    return b.finish(outputs=[b.matmul(x, w1), b.matmul(x, w2)])


def fused_chain_graph():
    b = GraphBuilder("chain")
    x = b.input("x", (16, 64))
    w1 = b.weight("w1", (64, 64))
    w2 = b.weight("w2", (64, 64))
    h = b.relu(b.matmul(x, w1))
    return b.finish(outputs=[b.relu(b.matmul(h, w2))])


class TestBacktrackingSearch:
    def test_finds_merge_on_shared_matmuls(self):
        cm = AnalyticCostModel()
        g = shared_matmul_graph()
        result = BacktrackingSearch(cm, budget=20, time_limit=60).optimize(g)
        assert result.optimized_cost < result.original_cost
        assert result.speedup_percent > 0
        validate_graph(result.optimized)
        check_same_interface(g, result.optimized)
        assert outputs_allclose(execute_graph(g), execute_graph(result.optimized))

    def test_fusion_chain(self):
        cm = AnalyticCostModel()
        g = fused_chain_graph()
        result = BacktrackingSearch(cm, budget=20, time_limit=60).optimize(g)
        assert "relu" not in result.optimized.op_histogram()
        assert outputs_allclose(execute_graph(g), execute_graph(result.optimized))

    def test_budget_limits_iterations(self):
        cm = AnalyticCostModel()
        g = shared_matmul_graph()
        result = BacktrackingSearch(cm, budget=1, time_limit=60).optimize(g)
        assert result.iterations <= 1

    def test_best_time_not_after_total_time(self):
        cm = AnalyticCostModel()
        result = BacktrackingSearch(cm, budget=10, time_limit=60).optimize(shared_matmul_graph())
        assert 0.0 <= result.best_seconds <= result.total_seconds

    def test_trajectory_is_monotone_nonincreasing(self):
        cm = AnalyticCostModel()
        result = BacktrackingSearch(cm, budget=10, time_limit=60).optimize(shared_matmul_graph())
        costs = [c for _, c in result.trajectory]
        assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))

    def test_alpha_below_one_prunes_queue(self):
        cm = AnalyticCostModel()
        g = fused_chain_graph()
        strict = BacktrackingSearch(cm, alpha=0.5, budget=20, time_limit=60).optimize(g)
        relaxed = BacktrackingSearch(cm, alpha=1.05, budget=20, time_limit=60).optimize(g)
        assert strict.graphs_evaluated <= relaxed.graphs_evaluated

    def test_never_worse_than_original(self):
        cm = AnalyticCostModel()
        b = GraphBuilder("single")
        x = b.input("x", (8, 64))
        w = b.weight("w", (64, 32))
        g = b.finish(outputs=[b.matmul(x, w)])
        result = BacktrackingSearch(cm, budget=5, time_limit=60).optimize(g)
        assert result.optimized_cost <= result.original_cost + 1e-12

