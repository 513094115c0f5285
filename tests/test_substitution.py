"""Tests for concrete-graph matching and substitution (the sequential baselines' engine)."""

from unittest import mock

import pytest
from oracles.shape_spec import targets_valid_spec

from repro.backend import execute_graph, outputs_allclose
from repro.costs import AnalyticCostModel
from repro.egraph.shapeanalysis import intern_data
from repro.ir.graph import GraphBuilder
from repro.ir.validate import validate_graph
from repro.models import build_model
from repro.rules import default_ruleset
from repro.rules.conditions import TargetsShapeValid
from repro.search.substitution import GraphAnalysisAdapter, apply_to_graph, find_graph_matches


def fuse_graph():
    b = GraphBuilder("fuse")
    x = b.input("x", (8, 64))
    w = b.weight("w", (64, 32))
    return b.finish(outputs=[b.relu(b.matmul(x, w))])


def shared_matmul_graph():
    b = GraphBuilder("pair")
    x = b.input("x", (8, 64))
    w1 = b.weight("w1", (64, 128))
    w2 = b.weight("w2", (64, 96))
    return b.finish(outputs=[b.matmul(x, w1), b.matmul(x, w2)])


RULES = default_ruleset()


class TestMatching:
    def test_single_pattern_match_found(self):
        g = fuse_graph()
        rule = RULES.get("fuse-matmul-relu").rule
        matches = find_graph_matches(g, rule)
        assert len(matches) == 1
        assert matches[0].roots[0] == g.outputs[0]

    def test_condition_respected_on_graphs(self):
        g = fuse_graph()
        # The reverse rule (unfuse) matches nothing here: no fused matmul yet.
        rule = RULES.get("fuse-matmul-relu-rev").rule
        assert find_graph_matches(g, rule) == []

    def test_multi_pattern_match_on_graph(self):
        g = shared_matmul_graph()
        rule = RULES.get("matmul-merge-shared-lhs").rule
        matches = find_graph_matches(g, rule)
        assert len(matches) == 2  # the two orderings of the pair
        assert all(len(m.roots) == 2 for m in matches)

    def test_max_matches_cap(self):
        g = shared_matmul_graph()
        rule = RULES.get("matmul-merge-shared-lhs").rule
        assert len(find_graph_matches(g, rule, max_matches=1)) == 1


class TestAdapterConditionVerdicts:
    """The adapter serves interned facts, like the e-graph's shape analysis.

    Compiled shape conditions cache verdicts under the ids of the facts they
    read; a fact that is not interned can be freed with its graph and its id
    reused by another graph's fact, which would serve a stale verdict.  The
    rule objects below are shared across every model, so their verdict
    caches see the facts of many graphs in turn.
    """

    def test_analysis_data_is_interned(self):
        graph = shared_matmul_graph()
        adapter = GraphAnalysisAdapter(graph)
        for node in graph.nodes:
            assert adapter.analysis_data(node.id) is intern_data(node.data)

    @pytest.mark.parametrize("model", ["nasrnn", "resnext", "bert", "squeezenet"])
    def test_verdicts_equal_shape_spec_for_every_rule(self, model):
        graph = build_model(model, "tiny")
        compiled = {rule_def.name: find_graph_matches(graph, rule_def.rule) for rule_def in RULES}

        def spec_call(self, egraph, match):
            return targets_valid_spec(egraph, self.targets, match.subst)

        with mock.patch.object(TargetsShapeValid, "__call__", spec_call):
            spec = {rule_def.name: find_graph_matches(graph, rule_def.rule) for rule_def in RULES}
        assert compiled == spec
        assert any(compiled.values())


class TestApplication:
    def test_fusion_substitution_preserves_semantics(self):
        g = fuse_graph()
        rule = RULES.get("fuse-matmul-relu").rule
        match = find_graph_matches(g, rule)[0]
        g2 = apply_to_graph(g, rule, match)
        assert g2 is not None
        validate_graph(g2)
        assert "relu" not in g2.op_histogram()
        assert outputs_allclose(execute_graph(g), execute_graph(g2))

    def test_multi_pattern_substitution_preserves_semantics(self):
        g = shared_matmul_graph()
        rule = RULES.get("matmul-merge-shared-lhs").rule
        match = find_graph_matches(g, rule)[0]
        g2 = apply_to_graph(g, rule, match)
        assert g2 is not None
        validate_graph(g2)
        assert g2.op_histogram().get("matmul") == 1
        assert outputs_allclose(execute_graph(g), execute_graph(g2))

    def test_dead_nodes_are_pruned(self):
        g = fuse_graph()
        rule = RULES.get("fuse-matmul-relu").rule
        match = find_graph_matches(g, rule)[0]
        g2 = apply_to_graph(g, rule, match)
        # The unfused matmul and the relu disappear entirely.
        assert g2.num_compute_nodes() == 1

    def test_substitution_lowers_cost_for_merge(self):
        cm = AnalyticCostModel()
        g = shared_matmul_graph()
        rule = RULES.get("matmul-merge-shared-lhs").rule
        match = find_graph_matches(g, rule)[0]
        g2 = apply_to_graph(g, rule, match)
        assert cm.graph_cost(g2) < cm.graph_cost(g)

    def test_application_is_non_destructive(self):
        g = fuse_graph()
        before = g.signature()
        rule = RULES.get("fuse-matmul-relu").rule
        match = find_graph_matches(g, rule)[0]
        apply_to_graph(g, rule, match)
        assert g.signature() == before
