"""Compiled right-hand sides against the recursive instantiation oracle.

``Pattern.instantiate`` runs a flat post-order :class:`RHSProgram`, with
every maximal ground sub-term memoised as one block.  For every right-hand
side and multi-pattern target of the default rule set, and any sequence of
instantiations sharing one ground memo (as an apply phase does), it must
return the same e-classes and add the same e-nodes in the same order -- the
same e-class ids and birth stamps -- as the recursive walk it replaced.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.instantiate import instantiate as oracle_instantiate
from repro.egraph.egraph import EGraph
from repro.egraph.language import ENode
from repro.egraph.pattern import Pattern
from repro.rules.library import default_ruleset

_RULES = default_ruleset()
TARGETS = [rule.rhs for rule in _RULES.rewrites] + [
    target for rule in _RULES.multi_rewrites for target in rule.targets
]
N_BASE = 6


def base_egraph() -> EGraph:
    eg = EGraph()
    for i in range(N_BASE):
        eg.add(ENode(f"t{i}"))
    return eg


def state(eg: EGraph):
    """Every e-node with its class and birth stamp, in storage order."""
    return [(cls, node, eg.node_birth(node)) for cls, node in eg.enodes()]


def run_both(steps):
    oracle_eg, compiled_eg = base_egraph(), base_egraph()
    oracle_memo, compiled_memo = {}, {}
    for pattern, picks in steps:
        subst = {name: picks[i % len(picks)] for i, name in enumerate(pattern.variables())}
        expected = oracle_instantiate(pattern, oracle_eg, subst, oracle_memo)
        got = pattern.instantiate(compiled_eg, subst, ground_memo=compiled_memo)
        assert got == expected, str(pattern)
        assert state(compiled_eg) == state(oracle_eg), str(pattern)
    assert oracle_eg.num_enodes == compiled_eg.num_enodes


steps = st.lists(
    st.tuples(
        st.sampled_from(TARGETS),
        st.lists(st.integers(0, N_BASE - 1), min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=12,
)


class TestCompiledParity:
    def test_every_target_alone(self):
        # One instantiation per target, all sharing one memo, in rule order.
        run_both([(target, [0, 1, 2, 3]) for target in TARGETS])

    @settings(max_examples=120, deadline=None)
    @given(steps)
    def test_random_sequences_share_one_memo(self, sequence):
        run_both(sequence)

    @pytest.mark.parametrize(
        "text",
        [
            "?x",
            "(f a a)",
            "(f (g a) (g a))",
            "(f (g ?x) (g ?x) (h 0 (k 1)))",
            "(split0 (split 1 (matmul 0 ?x (concat2 1 ?w1 ?w2))))",
        ],
    )
    def test_edge_shapes(self, text):
        pattern = Pattern.parse(text)
        run_both([(pattern, [0, 1]), (pattern, [1, 0]), (pattern, [0, 1])])

    def test_ground_memo_is_keyed_per_block(self):
        pattern = Pattern.parse("(f (g ?x) (h 0 (k 1)))")
        memo = {}
        eg = base_egraph()
        pattern.instantiate(eg, {"x": 0}, ground_memo=memo)
        # One entry: the maximal ground sub-term, not its parts.
        assert list(memo) == ["(h 0 (k 1))"]
