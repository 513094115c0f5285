"""Tests for rewrite-rule preconditions (shape checking)."""

import pickle

import pytest
from oracles.shape_spec import pattern_data, targets_valid_spec

from repro.egraph import shapeanalysis
from repro.egraph.ematch import Match, search_pattern
from repro.egraph.pattern import Pattern
from repro.ir.convert import egraph_from_graph
from repro.ir.graph import GraphBuilder
from repro.rules.conditions import (
    all_of,
    conv_not_grouped,
    enlarge_compatible,
    targets_shape_valid,
    var_is_int,
    var_rank_is,
    var_shape_axis_equal,
)
from repro.ir.tensor import ShapeError


def matmul_pair_graph(cols1=32, cols2=48):
    b = GraphBuilder()
    x = b.input("x", (8, 64))
    w1 = b.weight("w1", (64, cols1))
    w2 = b.weight("w2", (64, cols2))
    return b.finish(outputs=[b.matmul(x, w1), b.matmul(x, w2)])


def matmul_pair_egraph(cols1=32, cols2=48):
    return egraph_from_graph(matmul_pair_graph(cols1, cols2))


def match_for(egraph, pattern_text):
    matches = search_pattern(egraph, Pattern.parse(pattern_text))
    assert matches, f"expected a match for {pattern_text}"
    return matches[0]


class TestPatternData:
    def test_infers_target_shape(self):
        eg, _ = matmul_pair_egraph()
        m = match_for(eg, "(matmul 0 ?x ?w1)")
        data = pattern_data(eg, Pattern.parse("(matmul 0 ?x ?w1)"), m.subst)
        assert data.shape == (8, 32) or data.shape == (8, 48)

    def test_raises_on_ill_typed_target(self):
        eg, _ = matmul_pair_egraph()
        m = match_for(eg, "(matmul 0 ?x ?w1)")
        with pytest.raises(ShapeError):
            # ?w1 @ ?x has incompatible inner dimensions.
            pattern_data(eg, Pattern.parse("(matmul 0 ?w1 ?x)"), m.subst)

    def test_unbound_variable_raises(self):
        eg, _ = matmul_pair_egraph()
        with pytest.raises(ShapeError):
            pattern_data(eg, Pattern.parse("?missing"), {})


class TestConditions:
    def test_targets_shape_valid_accepts_good_target(self):
        eg, _ = matmul_pair_egraph()
        m = match_for(eg, "(matmul 0 ?x ?w1)")
        cond = targets_shape_valid([Pattern.parse("(matmul 1 ?x ?w1)")])
        assert cond(eg, m)

    def test_targets_shape_valid_rejects_bad_target(self):
        eg, _ = matmul_pair_egraph()
        m = match_for(eg, "(matmul 0 ?x ?w1)")
        cond = targets_shape_valid([Pattern.parse("(ewadd ?x ?w1)")])
        assert not cond(eg, m)

    def test_var_is_int(self):
        eg, _ = matmul_pair_egraph()
        m = match_for(eg, "(matmul ?act ?x ?w1)")
        assert var_is_int("act")(eg, m)
        assert var_is_int("act", 0)(eg, m)
        assert not var_is_int("act", 1)(eg, m)
        assert not var_is_int("x")(eg, m)

    def test_var_rank_is(self):
        eg, _ = matmul_pair_egraph()
        m = match_for(eg, "(matmul ?act ?x ?w1)")
        assert var_rank_is("x", 2)(eg, m)
        assert not var_rank_is("x", 3)(eg, m)

    def test_var_shape_axis_equal(self):
        eg, _ = matmul_pair_egraph(cols1=32, cols2=32)
        m = match_for(eg, "(noop (matmul 0 ?x ?w1) (matmul 0 ?x ?w2))")
        assert var_shape_axis_equal("w1", "w2", 1)(eg, m)
        assert var_shape_axis_equal("w1", "w2", 0)(eg, m)

    def test_var_shape_axis_unequal(self):
        eg, _ = matmul_pair_egraph(cols1=32, cols2=48)
        m = match_for(eg, "(noop (matmul 0 ?x ?w1) (matmul 0 ?x ?w2))")
        assert not var_shape_axis_equal("w1", "w2", 1)(eg, m)

    def test_all_of(self):
        eg, _ = matmul_pair_egraph()
        m = match_for(eg, "(matmul ?act ?x ?w1)")
        assert all_of(var_is_int("act"), var_rank_is("x", 2))(eg, m)
        assert not all_of(var_is_int("act"), var_rank_is("x", 3))(eg, m)


class TestConvConditions:
    def conv_egraph(self, in_channels=8, weight_in=8, k1=1, k2=3):
        b = GraphBuilder()
        x = b.input("x", (1, in_channels, 10, 10))
        w1 = b.weight("w1", (6, weight_in, k1, k1))
        w2 = b.weight("w2", (10, weight_in, k2, k2))
        g = b.finish(outputs=[b.conv(x, w1), b.conv(x, w2)])
        return egraph_from_graph(g)

    def test_conv_not_grouped_true_for_normal_conv(self):
        eg, _ = self.conv_egraph()
        m = match_for(eg, "(conv 1 1 0 0 ?x ?w1)")
        assert conv_not_grouped("x", "w1")(eg, m)

    def test_conv_not_grouped_false_for_grouped(self):
        eg, _ = self.conv_egraph(in_channels=8, weight_in=4, k1=3, k2=3)
        m = match_for(eg, "(conv 1 1 0 0 ?x ?w1)")
        assert not conv_not_grouped("x", "w1")(eg, m)

    def test_enlarge_compatible(self):
        eg, _ = self.conv_egraph(k1=1, k2=3)
        m = match_for(eg, "(noop (conv 1 1 0 0 ?x ?w1) (conv 1 1 0 0 ?x ?w2))")
        assert enlarge_compatible("w1", "w2")(eg, m)
        # Same-size kernels are excluded (handled by the plain merge rule).
        assert not enlarge_compatible("w1", "w1")(eg, m)
        # Reverse direction (shrinking) is excluded.
        assert not enlarge_compatible("w2", "w1")(eg, m)

    def test_enlarge_incompatible_even_target(self):
        eg, _ = self.conv_egraph(k1=1, k2=4)
        m = match_for(eg, "(noop (conv 1 1 0 0 ?x ?w1) (conv 1 1 0 0 ?x ?w2))")
        assert not enlarge_compatible("w1", "w2")(eg, m)


class TestCompiledSpecParity:
    """The compiled condition programs must agree with on-demand inference.

    ``targets_shape_valid`` runs compiled programs over the interned
    per-class facts; the oracle (``tests/oracles/shape_spec.py``) re-runs
    bottom-up inference for every check.  Every verdict must coincide.
    """

    PATTERNS = [
        "(matmul 0 ?x ?w1)",
        "(matmul ?act ?x ?w1)",
        "(noop (matmul 0 ?x ?w1) (matmul 0 ?x ?w2))",
    ]
    TARGETS = [
        ["(matmul 1 ?x ?w1)"],
        ["(ewadd ?x ?w1)"],
        ["(matmul 0 ?x ?w1)", "(matmul 0 ?x ?w2)"],
        ["(matmul 0 ?x (ewadd ?w1 ?w2))"],
        ["(ewadd (matmul 0 ?x ?w1) (matmul 0 ?x ?w2))"],
        ["(matmul 0 ?x ?unbound)"],
    ]

    @pytest.mark.parametrize("cols", [(32, 48), (32, 32)])
    def test_verdicts_match_on_every_binding(self, cols):
        eg, _ = egraph_from_graph(matmul_pair_graph(*cols))
        checked = 0
        for pattern_text in self.PATTERNS:
            matches = search_pattern(eg, Pattern.parse(pattern_text))
            for targets in self.TARGETS:
                patterns = [Pattern.parse(t) for t in targets]
                cond = targets_shape_valid(patterns)
                for m in matches:
                    assert cond(eg, m) == targets_valid_spec(eg, patterns, m.subst), (
                        f"compiled/spec divergence for {targets} on {m.subst}"
                    )
                    checked += 1
        assert checked > 0

    def test_compiled_memo_reused_across_bindings(self):
        # The verdict cache is keyed on the ids of the bound variables'
        # interned facts: w1 and w2 share one fact (same shape), so the second
        # binding is a pure lookup and infers nothing new.
        eg, _ = matmul_pair_egraph(cols1=32, cols2=32)
        matches = search_pattern(eg, Pattern.parse("(matmul 0 ?x ?w1)"))
        assert len(matches) == 2
        assert matches[0].subst["w1"] != matches[1].subst["w1"]
        cond = targets_shape_valid([Pattern.parse("(matmul 1 ?x ?w1)")])
        assert cond(eg, matches[0])
        assert len(cond._verdicts) == 1
        inferred = len(shapeanalysis._INFER)
        assert cond(eg, matches[1])
        assert len(cond._verdicts) == 1
        assert len(shapeanalysis._INFER) == inferred

    def test_verdict_cache_matches_uncached_and_spec_paths(self):
        # Cached verdict == the uncached compiled program == the spec path,
        # on first evaluation and on the cache hit after it.  One condition
        # instance serves all three graphs, so a verdict that depends on the
        # operand shapes must come back different across them.
        conds = [targets_shape_valid([Pattern.parse(t) for t in targets]) for targets in self.TARGETS]
        verdicts = set()
        for cols in [(32, 48), (32, 32), (48, 48)]:
            eg, _ = egraph_from_graph(matmul_pair_graph(*cols))
            for pattern_text in self.PATTERNS:
                for m in search_pattern(eg, Pattern.parse(pattern_text)):
                    for i, cond in enumerate(conds):
                        expected = targets_valid_spec(eg, cond.targets, m.subst)
                        facts = [eg.analysis_data(m.subst[v]) for v in cond._loads if v in m.subst]
                        if len(facts) == len(cond._loads) and all(f.is_valid for f in facts):
                            assert cond._run_program(facts) == expected
                        assert cond(eg, m) == expected
                        assert cond(eg, m) == expected
                        verdicts.add((i, expected))
        # Some target is accepted under one binding and rejected under another.
        assert any((i, True) in verdicts and (i, False) in verdicts for i in range(len(conds)))

    def test_pickled_condition_recompiles_with_an_empty_cache(self):
        eg, _ = matmul_pair_egraph()
        m = match_for(eg, "(matmul 0 ?x ?w1)")
        cond = targets_shape_valid([Pattern.parse("(matmul 1 ?x ?w1)")])
        assert cond(eg, m)
        clone = pickle.loads(pickle.dumps(cond))
        assert clone._verdicts == {}
        assert clone._instrs == cond._instrs
        assert clone(eg, m) and targets_valid_spec(eg, clone.targets, m.subst)

    def test_shared_subterms_compile_to_one_slot(self):
        cond = targets_shape_valid(
            [
                Pattern.parse("(ewadd (matmul 0 ?x ?w1) (matmul 0 ?x ?w1))"),
                Pattern.parse("(matmul 0 ?x ?w1)"),
            ]
        )
        # ?x, ?w1, (matmul 0 ?x ?w1), the literal 0, and the ewadd: the
        # repeated matmul subterm dedups to a single instruction slot.
        ops = [instr[1] for instr in cond._instrs if instr[1] is not None]
        assert ops.count("matmul") == 1
