"""Equivalence of the compiled e-matching trie and the naive matcher.

The shared-prefix rule trie (:mod:`repro.egraph.machine`) -- run over many
patterns by the runner and over one by ``search_pattern`` /
``search_eclass`` -- must return exactly the same canonical match lists as
the interpretive backtracking matcher for every rule in the library, on
clean e-graphs, on dirty e-graphs (pending unions mid-iteration), and
through incremental (delta-seeded) searches.  These tests treat the naive
matcher (``tests/oracles/naive_match.py``) as the executable specification.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from oracles.naive_match import naive_search_eclass, naive_search_pattern

from repro.egraph.egraph import EGraph
from repro.egraph.ematch import Match, search_eclass, search_pattern
from repro.egraph.language import RecExpr
from repro.egraph.machine import (
    BIND,
    COMPARE,
    LOOKUP,
    YIELD,
    TrieMatcher,
    build_rule_trie,
    compile_pattern,
)
from repro.egraph.pattern import Pattern, PatternNode
from repro.ir.convert import egraph_from_graph
from repro.ir.graph import GraphBuilder
from repro.rules import default_ruleset

RULESET = default_ruleset()


def all_source_patterns():
    """Every source pattern the exploration phase ever e-matches."""
    patterns = [rw.lhs for rw in RULESET.rewrites]
    for rule in RULESET.multi_rewrites:
        patterns.extend(rule.sources)
    return patterns


SOURCE_PATTERNS = all_source_patterns()


def canonical_match_set(egraph, matches):
    return {
        (egraph.find(m.eclass), frozenset((k, egraph.find(v)) for k, v in m.subst.items()))
        for m in matches
    }


def assert_equivalent(egraph, pattern):
    trie = search_pattern(egraph, pattern)
    naive = naive_search_pattern(egraph, pattern)
    assert canonical_match_set(egraph, trie) == canonical_match_set(egraph, naive), str(pattern)
    # Both matchers also agree on the deterministic list order, which is what
    # makes them interchangeable trajectory-for-trajectory in the runner.
    assert trie == naive, str(pattern)


# --------------------------------------------------------------------- #
# Strategies: random terms over the rule library's operator vocabulary
# --------------------------------------------------------------------- #


def op_vocabulary():
    vocab = set()

    def go(term):
        if isinstance(term, PatternNode):
            vocab.add((term.op, len(term.children)))
            for child in term.children:
                go(child)

    for pattern in SOURCE_PATTERNS:
        go(pattern.root)
    return sorted(vocab)


OPS = op_vocabulary()
LEAF_ATOMS = ["a", "b", "c", "x", "y", "0", "1", "2"]


@st.composite
def term_sexprs(draw, depth=3):
    """Random S-expressions using the rule library's operators and arities."""
    if depth == 0 or draw(st.integers(min_value=0, max_value=2)) == 0:
        return draw(st.sampled_from(LEAF_ATOMS))
    op, arity = draw(st.sampled_from(OPS))
    if arity == 0:
        return op
    return [op] + [draw(term_sexprs(depth=depth - 1)) for _ in range(arity)]


@st.composite
def egraph_scripts(draw):
    """A few random terms plus a random union script over their e-classes."""
    trees = draw(st.lists(term_sexprs(), min_size=2, max_size=4))
    n_unions = draw(st.integers(min_value=0, max_value=5))
    seeds = [draw(st.integers(min_value=0, max_value=10 ** 6)) for _ in range(2 * n_unions)]
    return trees, seeds


def build_from_script(trees, union_seeds):
    egraph = EGraph()
    for tree in trees:
        egraph.add_expr(RecExpr.from_sexpr(tree))
    ids = egraph.eclass_ids()
    for a_seed, b_seed in zip(union_seeds[::2], union_seeds[1::2]):
        egraph.union(ids[a_seed % len(ids)], ids[b_seed % len(ids)])
    return egraph


# --------------------------------------------------------------------- #
# Hand-built e-graphs: every rule, clean and dirty
# --------------------------------------------------------------------- #


def _tensor_egraph():
    b = GraphBuilder("equiv")
    x = b.input("x", (8, 64))
    w1 = b.weight("w1", (64, 32))
    w2 = b.weight("w2", (64, 32))
    m1 = b.matmul(x, w1)
    m2 = b.matmul(x, w2)
    s = b.ewadd(m1, m2)
    graph = b.finish(outputs=[b.relu(s)])
    egraph, root = egraph_from_graph(graph)
    return egraph, root


class TestEveryRuleOnHandBuiltGraphs:
    def test_all_rules_on_tensor_egraph(self):
        egraph, _root = _tensor_egraph()
        for pattern in SOURCE_PATTERNS:
            assert_equivalent(egraph, pattern)

    def test_all_rules_after_applying_rewrites(self):
        egraph, _root = _tensor_egraph()
        # Apply every rule once (naive path) to grow the e-graph, rebuild,
        # then compare the matchers on the richer graph.
        for rewrite in RULESET.rewrites:
            for match in rewrite.filter_matches(egraph, naive_search_pattern(egraph, rewrite.lhs)):
                rewrite.apply_match(egraph, match)
        egraph.rebuild()
        for pattern in SOURCE_PATTERNS:
            assert_equivalent(egraph, pattern)

    def test_all_rules_on_dirty_egraph(self):
        """Mid-iteration searches run with unions pending; both matchers must agree."""
        egraph, _root = _tensor_egraph()
        ids = egraph.eclass_ids()
        egraph.union(ids[1], ids[2])
        egraph.union(ids[0], ids[-1])
        assert not egraph.is_clean()
        for pattern in SOURCE_PATTERNS:
            assert_equivalent(egraph, pattern)

    def test_search_eclass_agrees(self):
        var_root = Pattern.parse("?x")
        absent_root = Pattern.parse("(conv ?a ?b ?c ?d ?e ?f)")  # no class holds a conv
        for dirty in (False, True):
            egraph, _root = _tensor_egraph()
            # Grow the e-graph with every rule once, so classes hold several
            # e-nodes of one op and a pattern can match one root several ways.
            for rewrite in RULESET.rewrites:
                for match in rewrite.filter_matches(egraph, naive_search_pattern(egraph, rewrite.lhs)):
                    rewrite.apply_match(egraph, match)
            egraph.rebuild()
            ids = egraph.eclass_ids()
            if dirty:  # ids[1] and ids[0] become non-canonical
                egraph.union(ids[2], ids[1])
                egraph.union(ids[-1], ids[0])
                assert not egraph.is_clean()
            n_multi = 0
            for eclass_id in ids:
                for pattern in SOURCE_PATTERNS + [var_root, absent_root]:
                    matches = search_eclass(egraph, pattern, eclass_id)
                    # Same list, order included, as the interpretive matcher.
                    naive = naive_search_eclass(egraph, pattern, eclass_id)
                    assert matches == naive, (dirty, str(pattern))
                    n_multi += len(matches) > 1
                canon = egraph.find(eclass_id)
                assert search_eclass(egraph, var_root, eclass_id) == [
                    Match(eclass=canon, subst={"x": canon})
                ]
                assert search_eclass(egraph, absent_root, eclass_id) == []
            assert n_multi > 0  # the list order was actually exercised


# --------------------------------------------------------------------- #
# Property-based: random e-graphs, random union/rebuild sequences
# --------------------------------------------------------------------- #


class TestEquivalenceProperties:
    @given(egraph_scripts())
    @settings(max_examples=20, deadline=None)
    def test_every_rule_after_random_unions_and_rebuild(self, script):
        trees, union_seeds = script
        egraph = build_from_script(trees, union_seeds)
        egraph.rebuild()
        for pattern in SOURCE_PATTERNS:
            assert_equivalent(egraph, pattern)

    @given(egraph_scripts())
    @settings(max_examples=15, deadline=None)
    def test_every_rule_on_dirty_graph(self, script):
        trees, union_seeds = script
        egraph = build_from_script(trees, union_seeds)  # unions pending, no rebuild
        for pattern in SOURCE_PATTERNS:
            assert_equivalent(egraph, pattern)

    @given(egraph_scripts(), st.lists(term_sexprs(), min_size=1, max_size=2))
    @settings(max_examples=15, deadline=None)
    def test_incremental_matches_full_search(self, script, extra_trees):
        """cached-matches ∪ delta-closure re-search == full naive search."""
        trees, union_seeds = script
        egraph = build_from_script(trees, union_seeds)
        egraph.rebuild()

        matchers = [TrieMatcher([p]) for p in SOURCE_PATTERNS]
        for matcher in matchers:
            matcher.search_all(egraph)  # populate caches with a full search
        egraph.take_dirty()

        # Grow the e-graph: new terms plus a union, then rebuild.
        for tree in extra_trees:
            egraph.add_expr(RecExpr.from_sexpr(tree))
        ids = egraph.eclass_ids()
        egraph.union(ids[0], ids[-1])
        egraph.rebuild()
        delta = egraph.take_dirty()

        for matcher in matchers:
            (incremental,) = matcher.search_all(egraph, delta=delta)
            (pattern,) = matcher.patterns
            assert incremental == naive_search_pattern(egraph, pattern), str(pattern)

    def test_union_at_max_variable_depth_creates_match_incrementally(self):
        """Regression: a union of classes bound by a repeated variable at the
        pattern's deepest level creates a match rooted ``depth`` parent hops
        above the dirty class, so the delta closure must climb ``depth`` hops
        (not ``depth - 1``)."""
        egraph = EGraph()
        egraph.add_term("(ewadd (ewmul a b) (ewmul c d))")
        pattern = Pattern.parse("(ewadd (ewmul ?x ?z) (ewmul ?y ?z))")
        matcher = TrieMatcher([pattern])
        assert matcher.search_all(egraph) == [[]]  # b != d: the repeated ?z fails
        egraph.take_dirty()

        b = egraph.add_term("b")
        d = egraph.add_term("d")
        egraph.union(b, d)
        egraph.rebuild()
        delta = egraph.take_dirty()

        (incremental,) = matcher.search_all(egraph, delta=delta)
        full = naive_search_pattern(egraph, pattern)
        assert incremental == full
        assert len(incremental) == 1


# --------------------------------------------------------------------- #
# Shared-prefix rule trie: one traversal per op bucket == R per-rule sweeps
# --------------------------------------------------------------------- #


def assert_trie_equivalent(egraph, patterns, trie_matcher=None, delta=None):
    """The trie's per-rule lists must equal the naive per-rule lists."""
    matcher = trie_matcher if trie_matcher is not None else TrieMatcher(patterns)
    all_matches = matcher.search_all(egraph, delta=delta)
    assert len(all_matches) == len(patterns)
    for pattern, trie_matches in zip(patterns, all_matches):
        assert trie_matches == naive_search_pattern(egraph, pattern), str(pattern)


class TestTrieEquivalence:
    def test_all_rules_on_tensor_egraph(self):
        egraph, _root = _tensor_egraph()
        assert_trie_equivalent(egraph, SOURCE_PATTERNS)

    def test_all_rules_on_dirty_egraph(self):
        egraph, _root = _tensor_egraph()
        ids = egraph.eclass_ids()
        egraph.union(ids[1], ids[2])
        egraph.union(ids[0], ids[-1])
        assert not egraph.is_clean()
        assert_trie_equivalent(egraph, SOURCE_PATTERNS)

    def test_trie_shares_instruction_prefixes(self):
        trie = build_rule_trie(SOURCE_PATTERNS)
        stats = trie.sharing_stats()
        # The rule library has many rules per root operator; merging their
        # Bind/Compare prefixes must eliminate a real number of instructions.
        assert stats["insts_saved"] > 0
        assert stats["insts_shared"] < stats["insts_unshared"]
        assert len(trie.buckets) < trie.n_rules

    def test_variable_root_patterns_supported(self):
        egraph, _root = _tensor_egraph()
        patterns = [Pattern.parse("?x"), Pattern.parse("(relu ?a)")]
        assert_trie_equivalent(egraph, patterns)

    @given(egraph_scripts())
    @settings(max_examples=20, deadline=None)
    def test_trie_equals_per_rule_and_naive_on_random_egraphs(self, script):
        trees, union_seeds = script
        egraph = build_from_script(trees, union_seeds)
        egraph.rebuild()
        assert_trie_equivalent(egraph, SOURCE_PATTERNS)

    @given(egraph_scripts())
    @settings(max_examples=10, deadline=None)
    def test_trie_equals_per_rule_and_naive_on_random_dirty_egraphs(self, script):
        trees, union_seeds = script
        egraph = build_from_script(trees, union_seeds)  # unions pending
        assert_trie_equivalent(egraph, SOURCE_PATTERNS)

    @given(egraph_scripts(), st.lists(term_sexprs(), min_size=1, max_size=2))
    @settings(max_examples=15, deadline=None)
    def test_trie_incremental_matches_full_search(self, script, extra_trees):
        """Per-rule caches ∪ bucket delta-closure re-search == full naive search."""
        trees, union_seeds = script
        egraph = build_from_script(trees, union_seeds)
        egraph.rebuild()

        matcher = TrieMatcher(SOURCE_PATTERNS)
        matcher.search_all(egraph)  # populate per-rule caches
        egraph.take_dirty()

        for tree in extra_trees:
            egraph.add_expr(RecExpr.from_sexpr(tree))
        ids = egraph.eclass_ids()
        egraph.union(ids[0], ids[-1])
        egraph.rebuild()
        delta = egraph.take_dirty()

        assert_trie_equivalent(egraph, SOURCE_PATTERNS, trie_matcher=matcher, delta=delta)

    def test_skip_suppresses_maintenance_and_reactivation_recovers(self):
        """``skip`` indices return [] without cache upkeep (the runner uses
        this for multi-pattern slots past the k_multi window); un-skipping a
        previously skipped index must fall back to a full, correct search."""
        egraph, _root = _tensor_egraph()
        patterns = [Pattern.parse("(relu ?a)"), Pattern.parse("(matmul ?x ?y ?z)")]
        matcher = TrieMatcher(patterns)
        matcher.search_all(egraph)
        egraph.take_dirty()

        extra = egraph.add_term("(relu (matmul 0 q r))")
        egraph.rebuild()
        delta = egraph.take_dirty()

        skipped = matcher.search_all(egraph, delta=delta, skip=[1])
        assert skipped[0] == naive_search_pattern(egraph, patterns[0])
        assert skipped[1] == []

        # Re-activate index 1: its cache was dropped, so the matcher must
        # recover with a full search and agree with the naive matcher again.
        egraph.take_dirty()
        reactivated = matcher.search_all(egraph, delta=set())
        for pattern, matches in zip(patterns, reactivated):
            assert matches == naive_search_pattern(egraph, pattern), str(pattern)
        del extra

    def test_trie_incremental_union_at_max_variable_depth(self):
        """Bucket closures climb the *max* depth of their rules; the deepest
        rule's matches must still appear (same regression as the per-rule
        matcher, through the shared path)."""
        egraph = EGraph()
        egraph.add_term("(ewadd (ewmul a b) (ewmul c d))")
        patterns = [
            Pattern.parse("(ewadd ?x ?y)"),  # shallow rule in the same bucket
            Pattern.parse("(ewadd (ewmul ?x ?z) (ewmul ?y ?z))"),
        ]
        matcher = TrieMatcher(patterns)
        assert matcher.search_all(egraph)[1] == []  # b != d: repeated ?z fails
        egraph.take_dirty()

        b = egraph.add_term("b")
        d = egraph.add_term("d")
        egraph.union(b, d)
        egraph.rebuild()
        delta = egraph.take_dirty()

        assert_trie_equivalent(egraph, patterns, trie_matcher=matcher, delta=delta)
        assert len(matcher.search_all(egraph, delta=set())[1]) == 1


# --------------------------------------------------------------------- #
# Compiled programs and the Lookup instruction
# --------------------------------------------------------------------- #


class TestPrograms:
    def test_programs_cached_per_pattern(self):
        p1 = Pattern.parse("(ewadd ?a (matmul 0 ?b ?c))")
        p2 = Pattern.parse("(ewadd ?a (matmul 0 ?b ?c))")
        assert compile_pattern(p1) is compile_pattern(p2)

    def test_program_shape(self):
        program = compile_pattern(Pattern.parse("(ewadd (matmul 0 ?a ?b) (matmul 0 ?a ?c))"))
        opcodes = [inst[0] for inst in program.insts]
        assert opcodes[-1] == YIELD
        assert opcodes.count(COMPARE) == 1  # the repeated ?a
        assert opcodes.count(BIND) >= 3
        assert program.depth == 3  # ewadd -> matmul -> the literal 0 leaf
        assert program.root_op == "ewadd"

    def test_ground_subterm_compiles_to_lookup(self):
        program = compile_pattern(Pattern.parse("(ewadd ?y (matmul 0 x w1))"))
        assert any(inst[0] == LOOKUP for inst in program.insts)

    def test_lookup_matches_on_clean_and_dirty_graphs(self):
        pattern = Pattern.parse("(ewadd ?y (matmul 0 x w1))")
        egraph = EGraph()
        egraph.add_term("(ewadd (matmul 0 x w2) (matmul 0 x w1))")
        assert egraph.is_clean()
        assert_equivalent(egraph, pattern)
        assert len(search_pattern(egraph, pattern)) == 1

        # Dirty: congruent-but-unmerged copies must still be found.
        a = egraph.add_term("(ewadd q (matmul 0 x w3))")
        w3 = egraph.add_term("w3")
        w1 = egraph.add_term("w1")
        egraph.union(w3, w1)
        assert not egraph.is_clean()
        assert_equivalent(egraph, pattern)
        del a

    def test_rules_hold_precompiled_programs(self):
        for rewrite in RULESET.rewrites:
            assert rewrite.program is compile_pattern(rewrite.lhs)
