"""Tests for the cost models."""

import pickle

import pytest
from table_cost import TableCostModel

from repro.backend.runtime import measure_graph_runtime, speedup_percent
from repro.costs import AnalyticCostModel, DeviceProfile
from repro.costs.device import CPU_REFERENCE, T4
from repro.costs.flops import op_bytes, op_flops
from repro.core.config import TensatConfig
from repro.core.session import OptimizationSession
from repro.costs.model import INVALID_COST
from repro.ir.convert import egraph_from_graph
from repro.ir.graph import GraphBuilder
from repro.ir.ops import Activation
from repro.ir.shapes import infer_symbol
from repro.ir.tensor import ShapeError, TensorData
from repro.models import MODEL_NAMES, build_model


def T(*shape, **kw):
    return TensorData.tensor(shape, **kw)


def I(v):
    return TensorData.integer(v)


class TestFlops:
    def test_matmul_flops(self):
        out = infer_symbol("matmul", [I(0), T(4, 8), T(8, 16)])
        assert op_flops("matmul", [I(0), T(4, 8), T(8, 16)], out) == pytest.approx(2 * 4 * 8 * 16)

    def test_conv_flops(self):
        children = [I(1), I(1), I(0), I(0), T(1, 8, 14, 14), T(16, 8, 3, 3)]
        out = infer_symbol("conv", children)
        expected = 2 * out.num_elements * 8 * 3 * 3
        assert op_flops("conv", children, out) == pytest.approx(expected)

    def test_data_movement_ops_have_zero_flops(self):
        out = infer_symbol("concat2", [I(1), T(4, 8), T(4, 8)])
        assert op_flops("concat2", [I(1), T(4, 8), T(4, 8)], out) == 0.0

    def test_bytes_count_reads_and_writes(self):
        out = infer_symbol("ewadd", [T(4, 8), T(4, 8)])
        assert op_bytes("ewadd", [T(4, 8), T(4, 8)], out) == pytest.approx(4 * (32 + 32 + 32))


class TestAnalyticCostModel:
    def test_bigger_matmul_costs_more(self):
        cm = AnalyticCostModel()
        small = cm.op_cost("matmul", [I(0), T(4, 8), T(8, 16)])
        big = cm.op_cost("matmul", [I(0), T(64, 256), T(256, 512)])
        assert big > small > 0

    def test_merged_matmul_cheaper_than_two(self):
        """The economics that make the Figure-2 rewrite profitable."""
        cm = AnalyticCostModel()
        two = 2 * cm.op_cost("matmul", [I(0), T(8, 64), T(64, 128)])
        merged = cm.op_cost("matmul", [I(0), T(8, 64), T(64, 256)])
        assert merged < two

    def test_weight_only_ops_are_free(self):
        cm = AnalyticCostModel()
        cost = cm.op_cost("concat2", [I(0), T(64, 32, from_weights=True), T(64, 32, from_weights=True)])
        assert cost == 0.0

    def test_activation_concat_is_not_free(self):
        cm = AnalyticCostModel()
        assert cm.op_cost("concat2", [I(0), T(64, 32), T(64, 32)]) > 0.0

    def test_split_is_free(self):
        cm = AnalyticCostModel()
        x = infer_symbol("concat2", [I(1), T(4, 8), T(4, 8)])
        tup = infer_symbol("split", [I(1), x])
        assert cm.op_cost("split", [I(1), x], tup) == 0.0

    def test_parameter_nodes_are_free(self):
        cm = AnalyticCostModel()
        assert cm.op_cost("3", []) == 0.0
        assert cm.op_cost("input", [TensorData.string("x@4 4")]) == 0.0

    def test_fused_activation_cheaper_than_separate(self):
        cm = AnalyticCostModel()
        fused = cm.op_cost("matmul", [I(1), T(32, 64), T(64, 64)])
        unfused = cm.op_cost("matmul", [I(0), T(32, 64), T(64, 64)]) + cm.op_cost("relu", [T(32, 64)])
        assert fused < unfused

    def test_enode_cost_uses_analysis_data(self):
        b = GraphBuilder()
        x = b.input("x", (8, 64))
        w = b.weight("w", (64, 32))
        g = b.finish(outputs=[b.matmul(x, w)])
        eg, root = egraph_from_graph(g)
        cm = AnalyticCostModel()
        matmul_node = next(n for cid, n in eg.enodes() if n.op == "matmul")
        assert cm.enode_cost(matmul_node, eg) > 0

    def test_device_profile_changes_costs(self):
        slow = AnalyticCostModel(CPU_REFERENCE)
        fast = AnalyticCostModel(T4)
        children = [I(0), T(64, 256), T(256, 512)]
        assert slow.op_cost("matmul", children) > fast.op_cost("matmul", children)

    def test_invalid_enode_gets_invalid_cost(self):
        from repro.egraph.egraph import EGraph
        from repro.ir.convert import TensorAnalysis

        eg = EGraph(analysis=TensorAnalysis())
        cls = eg.add_term('(ewadd (input "x@4 8") (input "y@4 9"))')
        cm = AnalyticCostModel()
        bad_node = next(n for cid, n in eg.enodes() if n.op == "ewadd")
        assert cm.enode_cost(bad_node, eg) == INVALID_COST


class TestTableCostModel:
    def test_lookup_and_default(self):
        cm = TableCostModel({"matmul": 3.0}, default=1.0)
        assert cm.op_cost("matmul", []) == 3.0
        assert cm.op_cost("relu", [T(2, 2)]) == 1.0

    def test_non_compute_defaults_to_zero(self):
        cm = TableCostModel({}, default=1.0)
        assert cm.op_cost("input", [TensorData.string("x@2 2")]) == 0.0

    def test_fallback_model(self):
        cm = TableCostModel({"relu": 9.0}, fallback=AnalyticCostModel())
        assert cm.op_cost("relu", [T(2, 2)]) == 9.0
        assert cm.op_cost("matmul", [I(0), T(4, 8), T(8, 16)]) > 0


class TestRuntimeSimulation:
    def test_measure_graph_runtime_equals_cost_without_noise(self):
        b = GraphBuilder()
        x = b.input("x", (8, 64))
        w = b.weight("w", (64, 32))
        g = b.finish(outputs=[b.matmul(x, w)])
        cm = AnalyticCostModel()
        assert measure_graph_runtime(g, cm) == pytest.approx(cm.graph_cost(g))

    def test_noise_is_bounded_and_reproducible(self):
        import numpy as np

        b = GraphBuilder()
        x = b.input("x", (8, 64))
        w = b.weight("w", (64, 32))
        g = b.finish(outputs=[b.matmul(x, w)])
        cm = AnalyticCostModel()
        rng = np.random.default_rng(0)
        noisy = measure_graph_runtime(g, cm, noise=0.05, rng=rng, repeats=5)
        base = cm.graph_cost(g)
        assert abs(noisy - base) / base < 0.2

    def test_speedup_percent(self):
        assert speedup_percent(2.0, 1.0) == pytest.approx(100.0)
        assert speedup_percent(1.0, 1.0) == pytest.approx(0.0)
        with pytest.raises(ValueError):
            speedup_percent(1.0, 0.0)


def _uncached_enode_cost(model, enode, egraph):
    """``CostModel.enode_cost`` without its cache: infer, then price."""
    children = [egraph.analysis_data(c) for c in enode.children]
    if any(c is None for c in children):
        return INVALID_COST
    try:
        output = infer_symbol(enode.op, children)
    except ShapeError:
        return INVALID_COST
    if not output.is_valid:
        return INVALID_COST
    return model.op_cost(enode.op, children, output)


class TestEnodeCostCache:
    """The per-instance e-node cost cache returns the uncached costs exactly."""

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_cached_equals_uncached_on_saturated_egraph(self, model_name):
        config = TensatConfig(node_limit=1_500, iter_limit=8, k_multi=2, extraction="greedy")
        session = OptimizationSession(build_model(model_name, "tiny"), config=config)
        session.explore()
        eg = session.egraph
        models = [AnalyticCostModel(), TableCostModel({"matmul": 2.0}, default=1.0)]
        checked = 0
        for model in models:
            for _ in range(2):  # the second pass reads every cost from the cache
                for eclass in eg.classes():
                    for node in eclass.nodes:
                        node = eg.canonicalize(node)
                        assert model.enode_cost(node, eg) == _uncached_enode_cost(model, node, eg)
                        checked += 1
        assert checked > 0

    def test_pickling_drops_the_cache(self):
        eg, root = egraph_from_graph(_small_matmul_graph())
        model = AnalyticCostModel()
        node = eg[root].nodes[0]
        cost = model.enode_cost(node, eg)
        assert model._enode_costs
        clone = pickle.loads(pickle.dumps(model))
        assert not hasattr(clone, "_enode_costs")
        assert clone.enode_cost(node, eg) == cost


def _small_matmul_graph():
    b = GraphBuilder()
    x = b.input("x", (8, 64))
    w = b.weight("w", (64, 32))
    return b.finish(outputs=[b.matmul(x, w)])
