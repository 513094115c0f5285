"""Tests for GraphBuilder and TensorGraph."""

import pytest
from table_cost import TableCostModel

from repro.ir.graph import GraphBuilder
from repro.ir.ops import Activation, OpKind, Padding
from repro.ir.tensor import ShapeError


class TestBuilderBasics:
    def test_input_and_weight_shapes(self):
        b = GraphBuilder()
        x = b.input("x", (8, 64))
        w = b.weight("w", (64, 32))
        assert b.shape(x) == (8, 64)
        assert b.shape(w) == (64, 32)
        assert b.data(w).from_weights
        assert not b.data(x).from_weights

    def test_hash_consing_dedupes_identical_nodes(self):
        b = GraphBuilder()
        x = b.input("x", (8, 64))
        w = b.weight("w", (64, 32))
        m1 = b.matmul(x, w)
        m2 = b.matmul(x, w)
        assert m1 == m2

    def test_literal_nodes_are_shared(self):
        b = GraphBuilder()
        assert b.num(1) == b.num(1)
        assert b.num(1) != b.num(2)

    def test_shape_error_at_construction(self):
        b = GraphBuilder()
        x = b.input("x", (8, 64))
        w = b.weight("w", (63, 32))
        with pytest.raises(ShapeError):
            b.matmul(x, w)

    def test_matmul_activation_encoded_as_first_input(self):
        b = GraphBuilder()
        x = b.input("x", (8, 64))
        w = b.weight("w", (64, 32))
        m = b.matmul(x, w, activation=Activation.RELU)
        g = b.finish(outputs=[m])
        node = g.nodes[m]
        act_node = g.nodes[node.inputs[0]]
        assert act_node.op == OpKind.NUM and act_node.value == 1

    def test_conv_and_pool_shapes(self):
        b = GraphBuilder()
        x = b.input("x", (1, 8, 14, 14))
        w = b.weight("w", (16, 8, 3, 3))
        c = b.conv(x, w, stride=(2, 2))
        p = b.poolmax(c, (2, 2), (2, 2), Padding.VALID)
        assert b.shape(c) == (1, 16, 7, 7)
        assert b.shape(p) == (1, 16, 3, 3)

    def test_split_returns_two_pieces(self):
        b = GraphBuilder()
        x = b.input("x", (4, 8))
        y = b.input("y", (4, 6))
        cat = b.concat(1, x, y)
        s0, s1 = b.split(1, cat)
        assert b.shape(s0) == (4, 8)
        assert b.shape(s1) == (4, 6)

    def test_split_many(self):
        b = GraphBuilder()
        xs = [b.input(f"x{i}", (4, 2 + i)) for i in range(3)]
        cat = b.concat(1, *xs)
        pieces = b.split_many(1, cat, 3)
        assert [b.shape(p)[1] for p in pieces] == [2, 3, 4]

    def test_activation_helper(self):
        b = GraphBuilder()
        x = b.input("x", (4, 8))
        assert b.activation(x, Activation.NONE) == x
        assert b.shape(b.activation(x, Activation.TANH)) == (4, 8)

    def test_concat_arity_bounds(self):
        b = GraphBuilder()
        x = b.input("x", (4, 8))
        with pytest.raises(ValueError):
            b.concat(1, x)

    def test_add_symbol(self):
        b = GraphBuilder()
        x = b.input("x", (4, 8))
        r = b.add_symbol("relu", [x])
        assert b.shape(r) == (4, 8)

    def test_finish_requires_nodes(self):
        with pytest.raises(ValueError):
            GraphBuilder().finish()

    def test_finish_defaults_to_last_node(self):
        b = GraphBuilder()
        x = b.input("x", (4, 8))
        b.relu(x)
        g = b.finish()
        assert len(g.outputs) == 1


class TestTensorGraph:
    def build(self):
        b = GraphBuilder("g")
        x = b.input("x", (8, 64))
        w = b.weight("w", (64, 32))
        m = b.matmul(x, w)
        r = b.relu(m)
        return b.finish(outputs=[r])

    def test_topological_invariant(self):
        g = self.build()
        for node in g.nodes:
            assert all(c < node.id for c in node.inputs)

    def test_compute_nodes_and_histogram(self):
        g = self.build()
        assert g.num_compute_nodes() == 2
        assert g.op_histogram() == {"matmul": 1, "relu": 1}

    def test_total_cost_uses_cost_model(self):
        g = self.build()
        cm = TableCostModel({"matmul": 2.0, "relu": 0.5})
        assert g.total_cost(cm) == pytest.approx(2.5)

    def test_consumers(self):
        g = self.build()
        consumers = g.consumers()
        matmul_id = next(n.id for n in g.nodes if n.op == OpKind.MATMUL)
        relu_id = next(n.id for n in g.nodes if n.op == OpKind.RELU)
        assert consumers[matmul_id] == [relu_id]

    def test_signature_is_stable(self):
        assert self.build().signature() == self.build().signature()

    def test_signature_differs_for_different_graphs(self):
        g1 = self.build()
        b = GraphBuilder("g")
        x = b.input("x", (8, 64))
        w = b.weight("w", (64, 32))
        g2 = b.finish(outputs=[b.matmul(x, w)])
        assert g1.signature() != g2.signature()

    def test_pruned_removes_dead_nodes(self):
        b = GraphBuilder("g")
        x = b.input("x", (8, 64))
        w = b.weight("w", (64, 32))
        live = b.matmul(x, w)
        b.relu(live)  # dead: not an output
        g = b.finish(outputs=[live])
        pruned = g.pruned()
        assert pruned.num_compute_nodes() == 1
        assert len(pruned) < len(g)

    def test_input_and_weight_node_lists(self):
        g = self.build()
        assert [n.op for n in g.input_nodes()] == [OpKind.INPUT]
        assert [n.op for n in g.weight_nodes()] == [OpKind.WEIGHT]

    def test_describe_mentions_ops(self):
        assert "matmul" in self.build().describe()
