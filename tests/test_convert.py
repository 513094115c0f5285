"""Tests for graph <-> term conversion and the tensor e-class analysis."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.egraph.egraph import EGraph
from repro.egraph.language import RecExpr
from repro.egraph.rewrite import Rewrite
from repro.ir.convert import TensorAnalysis, egraph_from_graph, graph_to_recexpr, recexpr_to_graph
from repro.ir.graph import GraphBuilder
from repro.ir.ops import OpKind
from repro.ir.tensor import DataKind
from repro.ir.validate import validate_graph


def two_output_graph():
    b = GraphBuilder("two")
    x = b.input("x", (8, 64))
    w1 = b.weight("w1", (64, 32))
    w2 = b.weight("w2", (64, 48))
    return b.finish(outputs=[b.matmul(x, w1), b.matmul(x, w2)])


class TestGraphToRecExpr:
    def test_single_output_roundtrip(self):
        b = GraphBuilder("one")
        x = b.input("x", (8, 64))
        w = b.weight("w", (64, 32))
        g = b.finish(outputs=[b.relu(b.matmul(x, w))])
        expr, mapping = graph_to_recexpr(g)
        g2 = recexpr_to_graph(expr)
        validate_graph(g2)
        assert g2.op_histogram() == g.op_histogram()
        assert len(g2.outputs) == 1

    def test_multi_output_gets_noop_root(self):
        g = two_output_graph()
        expr, _ = graph_to_recexpr(g)
        assert expr.nodes[expr.root].op == "noop"
        g2 = recexpr_to_graph(expr)
        assert len(g2.outputs) == 2
        # noop spine is stripped from outputs
        assert all(g2.nodes[o].op != OpKind.NOOP for o in g2.outputs)

    def test_sharing_preserved(self):
        g = two_output_graph()
        expr, _ = graph_to_recexpr(g)
        input_nodes = [n for n in expr.nodes if n.op == "input"]
        assert len(input_nodes) == 1

    def test_mapping_covers_all_nodes(self):
        g = two_output_graph()
        _, mapping = graph_to_recexpr(g)
        assert set(mapping) == {n.id for n in g.nodes}

    def test_output_order_preserved(self):
        g = two_output_graph()
        expr, _ = graph_to_recexpr(g)
        g2 = recexpr_to_graph(expr)
        assert g2.nodes[g2.outputs[0]].shape == (8, 32)
        assert g2.nodes[g2.outputs[1]].shape == (8, 48)


class TestRecExprToGraph:
    def test_parses_literals(self):
        expr = RecExpr.parse('(matmul 0 (input "x@4 8") (weight "w@8 16"))')
        g = recexpr_to_graph(expr)
        assert g.nodes[g.outputs[0]].shape == (4, 16)

    def test_shape_inference_reruns(self):
        expr = RecExpr.parse('(relu (input "x@4 8"))')
        g = recexpr_to_graph(expr)
        validate_graph(g)

    def test_invalid_expression_raises(self):
        expr = RecExpr.parse('(ewadd (input "x@4 8") (input "y@4 9"))')
        with pytest.raises(Exception):
            recexpr_to_graph(expr)

    def test_unknown_operator_raises_in_strict_mode(self):
        from repro.ir.opspec import UnknownOperatorError

        expr = RecExpr.parse('(matmull 0 (input "x@4 8") (weight "w@8 16"))')
        with pytest.raises(UnknownOperatorError):
            recexpr_to_graph(expr)  # strict by default

    def test_lenient_mode_keeps_unknown_as_str(self):
        expr = RecExpr.parse('(frobnicate)')
        g = recexpr_to_graph(expr, strict=False)
        assert g.nodes[g.outputs[0]].op == OpKind.STR


class TestRoundTripProperties:
    """Hypothesis: random multi-output DAGs survive graph -> RecExpr -> graph."""

    @staticmethod
    def random_graph(data):
        b = GraphBuilder("rand")
        m = data.draw(st.integers(2, 5), label="m")
        k = data.draw(st.integers(2, 5), label="k")
        pool = [b.input("x", (m, k))]
        for step in range(data.draw(st.integers(1, 7), label="n_ops")):
            op = data.draw(
                st.sampled_from(["relu", "tanh", "sigmoid", "ewadd", "ewmul",
                                 "matmul", "transpose", "concat_split"]),
                label=f"op{step}",
            )
            src = data.draw(st.sampled_from(pool), label=f"src{step}")
            if op in ("relu", "tanh", "sigmoid"):
                pool.append(getattr(b, op)(src))
            elif op in ("ewadd", "ewmul"):
                same = [n for n in pool if b.shape(n) == b.shape(src)]
                other = data.draw(st.sampled_from(same), label=f"rhs{step}")
                pool.append(getattr(b, op)(src, other))
            elif op == "matmul":
                rows, cols = b.shape(src)
                w = b.weight(f"w{step}", (cols, data.draw(st.integers(2, 5))))
                pool.append(b.matmul(src, w))
            elif op == "transpose":
                pool.append(b.transpose(src, (1, 0)))
            else:  # concat then split back apart
                cat = b.concat(1, src, src)
                s0, s1 = b.split(1, cat)
                pool.extend([s0, s1])
        # GraphBuilder hash-conses, so the pool can hold one node twice;
        # distinct outputs are drawn from the de-duplicated pool.
        distinct = list(dict.fromkeys(pool))
        n_outputs = data.draw(st.integers(1, min(3, len(distinct))), label="n_outputs")
        outputs = data.draw(
            st.lists(st.sampled_from(distinct), min_size=n_outputs, max_size=n_outputs,
                     unique=True),
            label="outputs",
        )
        return b.finish(outputs=outputs)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_preserves_structure(self, data):
        from repro.service.fingerprint import graph_fingerprint

        g = self.random_graph(data)
        expr, mapping = graph_to_recexpr(g)
        g2 = recexpr_to_graph(expr)  # strict symbol resolution
        validate_graph(g2)
        live = g.pruned()
        assert len(g2.outputs) == len(g.outputs)
        for a, c in zip(g.outputs, g2.outputs):
            assert g.nodes[a].data.kind == g2.nodes[c].data.kind
            assert g.nodes[a].shape == g2.nodes[c].shape
        # The expression carries every node of g (even ones unreachable from
        # the drawn outputs), so compare the live subgraphs.
        assert g2.pruned().op_histogram() == live.op_histogram()
        # Canonical fingerprints agree: the round trip is the same
        # computation up to node numbering.
        assert graph_fingerprint(g2) == graph_fingerprint(live)


class TestTensorAnalysis:
    def test_egraph_carries_shapes(self):
        g = two_output_graph()
        eg, root = egraph_from_graph(g)
        data = eg.analysis_data(root)
        assert data.kind == DataKind.TENSOR  # noop root carries an empty-tensor marker

    def test_analysis_data_for_operator_classes(self):
        b = GraphBuilder()
        x = b.input("x", (8, 64))
        w = b.weight("w", (64, 32))
        g = b.finish(outputs=[b.matmul(x, w)])
        eg, root = egraph_from_graph(g)
        assert eg.analysis_data(root).shape == (8, 32)

    def test_rewrite_added_nodes_get_analysis_data(self):
        b = GraphBuilder()
        x = b.input("x", (8, 64))
        w = b.weight("w", (64, 32))
        g = b.finish(outputs=[b.relu(b.matmul(x, w))])
        eg, root = egraph_from_graph(g)
        Rewrite.parse("fuse", "(relu (matmul 0 ?a ?b))", "(matmul 1 ?a ?b)").run(eg)
        eg.rebuild()
        assert eg.analysis_data(root).shape == (8, 32)

    def test_invalid_nodes_marked(self):
        eg = EGraph(analysis=TensorAnalysis())
        cls = eg.add_term('(ewadd (input "x@4 8") (input "y@4 9"))')
        assert not eg.analysis_data(cls).is_valid

    def test_merge_prefers_valid_data(self):
        analysis = TensorAnalysis()
        from repro.ir.tensor import TensorData

        valid = TensorData.tensor((4, 8))
        invalid = TensorData.invalid("x")
        merged, changed = analysis.merge(invalid, valid)
        assert merged.is_valid and changed
        merged, changed = analysis.merge(valid, invalid)
        assert merged.is_valid and not changed

    def test_merge_unions_split_records(self):
        analysis = TensorAnalysis()
        from repro.ir.tensor import TensorData

        a = TensorData.tensor((4, 8))
        b = TensorData.tensor((4, 8)).with_split(1, (3, 5))
        merged, changed = analysis.merge(a, b)
        assert changed
        assert merged.split_sizes_for_axis(1) == (3, 5)

    def test_strict_mode_raises_on_shape_conflict(self):
        analysis = TensorAnalysis(strict=True)
        from repro.ir.tensor import ShapeError, TensorData

        with pytest.raises(ShapeError):
            analysis.merge(TensorData.tensor((4, 8)), TensorData.tensor((4, 9)))
