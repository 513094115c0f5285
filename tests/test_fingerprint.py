"""Tests for the canonical graph fingerprint (service cache keying).

The contract (docs/service.md): fingerprints are invariant under node
reordering and input/weight renaming, sensitive to any op/shape/edge
change, and stable across processes (pinned by the golden hex digests).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from table_cost import TableCostModel

from repro.core.config import TensatConfig
from repro.costs import AnalyticCostModel
from repro.ir.graph import GraphBuilder
from repro.models import MODEL_NAMES, build_model
from repro.rules import default_ruleset
from repro.service.fingerprint import canonical_form, config_digest, graph_fingerprint

# --------------------------------------------------------------------- #
# Random same-shape expression trees, built under different names and
# construction orders
# --------------------------------------------------------------------- #

#: Square-shape ops compose freely at (8, 8), so any tree is a valid graph.
_UNARY = ("relu", "tanh", "sigmoid")
_BINARY = ("ewadd", "ewmul", "matmul")


def _tree_strategy():
    leaf = st.tuples(st.just("leaf"), st.integers(min_value=0, max_value=3))
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.tuples(st.sampled_from(_UNARY), sub),
            st.tuples(st.sampled_from(_BINARY), sub, sub),
        ),
        max_leaves=12,
    )


def _build_tree(tree, prefix: str, mirrored: bool):
    """Build ``tree`` into a graph; ``mirrored`` builds right subtrees first.

    Mirroring changes the *construction* order (and therefore every node id)
    without changing the graph: children are attached in their original
    positions either way.
    """
    builder = GraphBuilder(f"{prefix}graph")

    def build(node) -> int:
        if node[0] == "leaf":
            return builder.input(f"{prefix}leaf{node[1]}", (8, 8))
        if node[0] in _UNARY:
            return getattr(builder, node[0])(build(node[1]))
        op, left, right = node
        if mirrored:
            right_id = build(right)
            left_id = build(left)
        else:
            left_id = build(left)
            right_id = build(right)
        return getattr(builder, op)(left_id, right_id)

    return builder.finish(outputs=[build(tree)])


class TestInvariance:
    @settings(max_examples=60, deadline=None)
    @given(tree=_tree_strategy())
    def test_rename_and_reorder_invariant(self, tree):
        original = _build_tree(tree, "a_", mirrored=False)
        renamed_reordered = _build_tree(tree, "zz_", mirrored=True)
        assert graph_fingerprint(original) == graph_fingerprint(renamed_reordered)

    @settings(max_examples=30, deadline=None)
    @given(tree=_tree_strategy())
    def test_canonical_form_is_deterministic(self, tree):
        graph = _build_tree(tree, "x_", mirrored=False)
        assert canonical_form(graph) == canonical_form(graph)


class TestSensitivity:
    @staticmethod
    def _two_matmul(combine_same: bool):
        b = GraphBuilder("g")
        x = b.input("x", (8, 8))
        m1 = b.matmul(x, b.weight("w1", (8, 8)))
        m2 = m1 if combine_same else b.matmul(x, b.weight("w2", (8, 8)))
        return b.finish(outputs=[b.ewadd(m1, m2)])

    def test_edge_change_differs(self):
        # ewadd(m1, m2) vs ewadd(m1, m1): same ops, different wiring.
        assert graph_fingerprint(self._two_matmul(False)) != graph_fingerprint(self._two_matmul(True))

    @staticmethod
    def _unary_chain(op: str, shape):
        b = GraphBuilder("g")
        x = b.input("x", shape)
        w = b.weight("w", shape)
        return b.finish(outputs=[getattr(b, op)(b.matmul(x, w))])

    def test_op_change_differs(self):
        assert graph_fingerprint(self._unary_chain("relu", (8, 8))) != graph_fingerprint(
            self._unary_chain("tanh", (8, 8))
        )

    def test_shape_change_differs(self):
        assert graph_fingerprint(self._unary_chain("relu", (8, 8))) != graph_fingerprint(
            self._unary_chain("relu", (16, 16))
        )

    def test_parameter_change_differs(self):
        def conv(stride):
            b = GraphBuilder("g")
            x = b.input("x", (1, 8, 8, 8))
            w = b.weight("w", (8, 8, 3, 3))
            return b.finish(outputs=[b.conv(x, w, stride=stride)])

        assert graph_fingerprint(conv((1, 1))) != graph_fingerprint(conv((2, 2)))

    def test_output_order_is_significant(self):
        # The two branches must be structurally distinct: swapping the
        # outputs of two *symmetric* branches is a genuine isomorphism
        # (rename the weights) and correctly keeps the fingerprint.
        def two_out(flip: bool):
            b = GraphBuilder("g")
            x = b.input("x", (4, 8))
            m1 = b.matmul(x, b.weight("w1", (8, 8)))
            m2 = b.relu(b.matmul(x, b.weight("w2", (8, 8))))
            outs = [m2, m1] if flip else [m1, m2]
            return b.finish(outputs=outs)

        assert graph_fingerprint(two_out(False)) != graph_fingerprint(two_out(True))

    def test_symmetric_output_swap_is_an_isomorphism(self):
        # The counterpart of the previous test: interchangeable branches
        # swapped at the outputs *should* collide (rename w1 <-> w2).
        def two_out(flip: bool):
            b = GraphBuilder("g")
            x = b.input("x", (4, 8))
            m1 = b.matmul(x, b.weight("w1", (8, 8)))
            m2 = b.matmul(x, b.weight("w2", (8, 8)))
            outs = [m2, m1] if flip else [m1, m2]
            return b.finish(outputs=outs)

        assert graph_fingerprint(two_out(False)) == graph_fingerprint(two_out(True))

    def test_input_vs_weight_differs(self):
        def leaf(kind: str):
            b = GraphBuilder("g")
            x = b.input("x", (8, 8))
            other = getattr(b, kind)("y", (8, 8))
            return b.finish(outputs=[b.ewadd(x, other)])

        assert graph_fingerprint(leaf("input")) != graph_fingerprint(leaf("weight"))


#: Golden fingerprints of the built-in models at tiny scale.  These are pure
#: SHA-256 digests of the canonical form -- no id(), no hash seed -- so they
#: must be byte-identical in every process and Python version; a change here
#: means the fingerprint (or a model) changed and every service cache key
#: with it.
GOLDEN_TINY_FINGERPRINTS = {
    "nasrnn": "b8ae47247ddd21fbdc62f8e9ba5a055b4051943f6c8c60824f0a91445b7a2852",
    "bert": "8b985ffd20dfc48805cc76fab03a65116f6641b9d860072b6795f2af088a0234",
    "resnext": "22cf146bc487513a03f461d0265daf96ac83d66ba0a66c105224e538c4052f3c",
    "nasnet": "b1be9a1fc77e04ee8afe888a7d31ece14512ad70c25b7eaa6711a5706321d6f1",
    "squeezenet": "605cd3075ceeaaf1022a72eb6a798c482e16e8aa6efd417cd342c9860fe167ee",
    "vgg": "35ebaf91f0fa748eea4df4e41609bf127d171731fc95d3c8012cc0bc706108aa",
    "inception": "a1ada33d6c6ce3f7278a7b72ec87c0a02795fe83fd5ec4d4c155947e75679e58",
    "resnet": "ce770faf507fd81c4ecf91efbf3ef2d90c62a98d9d20670fec782b7bacf2a8a3",
}


class TestModelRegression:
    def test_covers_every_builtin_model(self):
        assert sorted(GOLDEN_TINY_FINGERPRINTS) == sorted(MODEL_NAMES)

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_model_fingerprint_is_process_stable(self, model):
        assert graph_fingerprint(build_model(model, "tiny")) == GOLDEN_TINY_FINGERPRINTS[model]

    def test_model_fingerprints_are_distinct(self):
        assert len(set(GOLDEN_TINY_FINGERPRINTS.values())) == len(MODEL_NAMES)


class TestConfigDigest:
    def test_same_config_same_digest(self):
        assert config_digest(TensatConfig.fast()) == config_digest(TensatConfig.fast())

    def test_any_field_changes_the_digest(self):
        base = TensatConfig.fast()
        assert config_digest(base) != config_digest(base.with_overrides(k_multi=2))
        assert config_digest(base) != config_digest(base.with_overrides(extraction="greedy"))
        # Conservative by design: even no-result-impact knobs separate entries.
        assert config_digest(base) != config_digest(base.with_overrides(ilp_time_limit=61.0))

    def test_rules_and_cost_model_enter_the_digest(self):
        base = TensatConfig.fast()
        rules = default_ruleset()
        fewer = rules.filter(include_tags=["merge"])
        assert config_digest(base, rules=rules) != config_digest(base, rules=fewer)
        assert config_digest(base, cost_model=AnalyticCostModel()) != config_digest(
            base, cost_model=TableCostModel({}, default=1.0)
        )
