"""Tests for multi-pattern rewrites (paper Algorithm 1).

The join tests treat the Cartesian-product combine
(``tests/oracles/product_join.py``) as the executable specification: for
every scenario -- hand-built and property-generated -- ``combine`` must
yield a sequence *identical* to the product's list, element for element and
in the same order, because the saturation trajectory depends on that order.

The streamed-apply tests pin what drawing the streams in the apply phase
may change: only the match and dedup counts of an iteration the node limit
cuts short, never the e-graph.
"""

import gc
import itertools
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from oracles.naive_match import NaiveSearchAll
from oracles.product_join import combine_product, recording_product

from repro.core.config import TensatConfig
from repro.core.events import RecordingObserver
from repro.core.session import OptimizationSession
from repro.egraph.egraph import EGraph
from repro.egraph.ematch import search_pattern
from repro.egraph.language import RecExpr
from repro.egraph.multipattern import MultiPatternRewrite, MultiPatternSearcher
from repro.egraph.runner import Runner, RunnerLimits, StopReason, collect_trie_patterns
from repro.models import build_model
from repro.rules.library import default_ruleset


def matmul_merge_rule(condition=None):
    """The paper's Figure-2 rule (without shape checking unless provided)."""
    return MultiPatternRewrite.parse(
        "matmul-merge",
        sources=["(matmul ?a ?x ?w1)", "(matmul ?a ?x ?w2)"],
        targets=[
            "(split0 (split 1 (matmul ?a ?x (concat2 1 ?w1 ?w2))))",
            "(split1 (split 1 (matmul ?a ?x (concat2 1 ?w1 ?w2))))",
        ],
        condition=condition,
    )


def shared_input_egraph():
    eg = EGraph()
    root = eg.add_term("(noop (matmul 0 x w1) (matmul 0 x w2))")
    return eg, root


class TestConstruction:
    def test_mismatched_outputs_rejected(self):
        with pytest.raises(ValueError):
            MultiPatternRewrite.parse("bad", ["(f ?x)", "(g ?x)"], ["(h ?x)"])

    def test_unbound_target_variable_rejected(self):
        with pytest.raises(ValueError):
            MultiPatternRewrite.parse("bad", ["(f ?x)"], ["(g ?y)"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MultiPatternRewrite(name="bad", sources=[], targets=[])


class TestSearch:
    def test_finds_compatible_combination(self):
        eg, _ = shared_input_egraph()
        rule = matmul_merge_rule()
        combos = rule.search(eg)
        # (m1, m2) and (m2, m1): identical pairs are skipped by skip_identical.
        assert len(combos) == 2
        for combo in combos:
            assert len(set(combo.eclasses)) == 2

    def test_incompatible_shared_variable_rejected(self):
        eg = EGraph()
        eg.add_term("(noop (matmul 0 x w1) (matmul 0 y w2))")
        combos = matmul_merge_rule().search(eg)
        # The two matmuls do not share ?x, so the only surviving combinations
        # pair each matmul with itself -- and those are skipped.
        assert combos == []

    def test_skip_identical_can_be_disabled(self):
        eg, _ = shared_input_egraph()
        rule = matmul_merge_rule()
        rule.skip_identical = False
        combos = rule.search(eg)
        assert len(combos) == 4  # (m1,m1), (m1,m2), (m2,m1), (m2,m2)

    def test_condition_filters_combinations(self):
        eg, _ = shared_input_egraph()
        rule = matmul_merge_rule(condition=lambda g, m: False)
        assert rule.search(eg) == []


class TestApply:
    def test_apply_unions_both_outputs(self):
        eg, _ = shared_input_egraph()
        rule = matmul_merge_rule()
        combos = rule.search(eg)
        assert rule.apply_match(eg, combos[0])
        eg.rebuild()
        m1 = eg.add_term("(matmul 0 x w1)")
        assert eg.represents(m1, RecExpr.parse("(split0 (split 1 (matmul 0 x (concat2 1 w1 w2))))")) or \
            eg.represents(m1, RecExpr.parse("(split1 (split 1 (matmul 0 x (concat2 1 w2 w1))))"))

    def test_runner_applies_multi_rules_only_before_kmulti(self):
        eg, _ = shared_input_egraph()
        runner = Runner(
            eg,
            rewrites=[],
            multi_rewrites=[matmul_merge_rule()],
            limits=RunnerLimits(iter_limit=4, k_multi=0),
        )
        report = runner.run()
        # k_multi = 0: multi rules never fire, e-graph saturates immediately.
        assert report.iterations[0].n_applied == 0

    def test_runner_with_kmulti_one_grows_egraph(self):
        eg, _ = shared_input_egraph()
        before = eg.num_enodes
        runner = Runner(
            eg,
            rewrites=[],
            multi_rewrites=[matmul_merge_rule()],
            limits=RunnerLimits(iter_limit=4, k_multi=1),
        )
        runner.run()
        assert eg.num_enodes > before


class TestSearcherSharing:
    def test_alpha_equivalent_sources_share_canonical_patterns(self):
        rule_a = matmul_merge_rule()
        rule_b = MultiPatternRewrite.parse(
            "other-merge",
            sources=["(matmul ?act ?input ?wa)", "(matmul ?act ?input ?wb)"],
            targets=["?wa", "?wb"],
        )
        searcher = MultiPatternSearcher([rule_a, rule_b])
        # All four source patterns are alpha-equivalent -> one canonical pattern.
        assert searcher.num_unique_patterns == 1

    def test_searcher_results_match_standalone_search(self):
        eg, _ = shared_input_egraph()
        rule = matmul_merge_rule()
        searcher = MultiPatternSearcher([rule])
        results = searcher.search(eg)
        assert len(results) == 1
        _, combos = results[0]
        standalone = rule.search(eg)
        assert {c.eclasses for c in combos} == {c.eclasses for c in standalone}

    def test_search_canonical_plus_combine_equals_search(self):
        """The split halves compose back into exactly what search() returns."""
        eg, _ = shared_input_egraph()
        rule = matmul_merge_rule()
        searcher = MultiPatternSearcher([rule])
        canonical = searcher.search_canonical(eg)
        assert set(canonical) == {key for key, _ in searcher.canonical_patterns()}
        recombined = searcher.combine_matches(eg, canonical)
        assert recombined == searcher.search(eg)


# --------------------------------------------------------------------- #
# Hash join == Cartesian product (the executable spec)
# --------------------------------------------------------------------- #


def three_source_rule(condition=None):
    """All three sources share ?a and ?x; w1/w2/w3 are free per source."""
    return MultiPatternRewrite.parse(
        "matmul-merge-three",
        sources=["(matmul ?a ?x ?w1)", "(matmul ?a ?x ?w2)", "(matmul ?a ?x ?w3)"],
        targets=["?w1", "?w2", "?w3"],
        condition=condition,
    )


def zero_shared_rule(condition=None):
    """No variable is shared between the sources: the join degenerates to a product."""
    return MultiPatternRewrite.parse(
        "relu-sqrt-pair",
        sources=["(relu ?x)", "(sqrt ?y)"],
        targets=["?x", "?y"],
        condition=condition,
    )


def assert_join_equals_product(egraph, rule):
    per_source = [search_pattern(egraph, p) for p in rule.sources]
    product = combine_product(rule, egraph, per_source)
    hashed = list(rule.combine(egraph, per_source))
    assert hashed == product  # same combinations, same order
    return product


class TestHashJoinEqualsProduct:
    def test_basic_shared_input(self):
        eg, _ = shared_input_egraph()
        combos = assert_join_equals_product(eg, matmul_merge_rule())
        assert len(combos) == 2

    def test_zero_shared_variables_pure_product(self):
        eg = EGraph()
        eg.add_term("(noop (relu a) (relu b) (sqrt c) (sqrt d) (sqrt e))")
        combos = assert_join_equals_product(eg, zero_shared_rule())
        # Every (relu, sqrt) pairing is compatible: 2 x 3 combinations.
        assert len(combos) == 6

    def test_variable_shared_across_all_three_sources(self):
        eg = EGraph()
        eg.add_term("(noop (matmul 0 x w1) (matmul 0 x w2) (matmul 0 x w3))")
        combos = assert_join_equals_product(eg, three_source_rule())
        # All 27 triples agree on ?a and ?x; only the 3 fully-identical
        # triples are dropped by skip_identical.
        assert len(combos) == 24

    def test_three_sources_with_incompatible_matches(self):
        eg = EGraph()
        eg.add_term("(noop (matmul 0 x w1) (matmul 0 x w2) (matmul 0 y w3))")
        combos = assert_join_equals_product(eg, three_source_rule())
        # Triples drawing from the ?y matmul never agree on ?x with the other
        # two, so only the two x-matmuls (and self-pairings) survive.
        assert combos and all(len(set(c.eclasses)) <= 2 for c in combos)

    def test_join_respects_multicondition(self):
        eg, _ = shared_input_egraph()
        condition = lambda g, m: m.subst["w1"] < m.subst["w2"]  # noqa: E731
        rule = matmul_merge_rule(condition=condition)
        combos = assert_join_equals_product(eg, rule)
        # The symmetric pair is filtered down to the one ordered combination.
        assert len(combos) == 1
        assert all(c.subst["w1"] < c.subst["w2"] for c in combos)

    def test_join_respects_multicondition_on_three_sources(self):
        eg = EGraph()
        eg.add_term("(noop (matmul 0 x w1) (matmul 0 x w2) (matmul 0 x w3))")
        condition = lambda g, m: len({m.subst["w1"], m.subst["w2"], m.subst["w3"]}) == 3  # noqa: E731
        combos = assert_join_equals_product(eg, three_source_rule(condition=condition))
        assert len(combos) == 6  # the 3! orderings of the three distinct weights

    def test_skip_identical_disabled_parity(self):
        eg, _ = shared_input_egraph()
        rule = matmul_merge_rule()
        rule.skip_identical = False
        combos = assert_join_equals_product(eg, rule)
        assert len(combos) == 4

    def test_empty_source_short_circuits(self):
        eg = EGraph()
        eg.add_term("(relu a)")  # no sqrt anywhere: one source has no matches
        assert assert_join_equals_product(eg, zero_shared_rule()) == []


# --------------------------------------------------------------------- #
# Property-based: join == product on random e-graphs
# --------------------------------------------------------------------- #

JOIN_OPS = [("matmul", 3), ("relu", 1), ("sqrt", 1), ("ewadd", 2)]
JOIN_LEAVES = ["a", "b", "x", "y", "w1", "w2", "0", "1"]


@st.composite
def join_term_sexprs(draw, depth=3):
    if depth == 0 or draw(st.integers(min_value=0, max_value=2)) == 0:
        return draw(st.sampled_from(JOIN_LEAVES))
    op, arity = draw(st.sampled_from(JOIN_OPS))
    return [op] + [draw(join_term_sexprs(depth=depth - 1)) for _ in range(arity)]


@st.composite
def join_egraphs(draw):
    trees = draw(st.lists(join_term_sexprs(), min_size=2, max_size=5))
    egraph = EGraph()
    for tree in trees:
        egraph.add_expr(RecExpr.from_sexpr(tree))
    ids = egraph.eclass_ids()
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        a = draw(st.integers(min_value=0, max_value=len(ids) - 1))
        b = draw(st.integers(min_value=0, max_value=len(ids) - 1))
        egraph.union(ids[a], ids[b])
    egraph.rebuild()
    return egraph


JOIN_RULES = [matmul_merge_rule(), three_source_rule(), zero_shared_rule()]
JOIN_VARS = ["a", "x", "y", "w1"]


def _rejects_some(egraph, multi):
    return (sum(multi.eclasses) + sum(multi.subst.values())) % 3 != 0


@st.composite
def random_join_rules(draw):
    """A 2- or 3-source rule over JOIN_OPS with randomly shared variables."""
    sources = []
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        op, arity = draw(st.sampled_from(JOIN_OPS))
        args = " ".join("?" + draw(st.sampled_from(JOIN_VARS)) for _ in range(arity))
        sources.append(f"({op} {args})")
    return MultiPatternRewrite.parse(
        "random-join",
        sources=sources,
        targets=sources,
        condition=_rejects_some if draw(st.booleans()) else None,
        skip_identical=draw(st.booleans()),
    )


class TestHashJoinProperties:
    @given(join_egraphs())
    @settings(max_examples=40, deadline=None)
    def test_join_equals_product_on_random_egraphs(self, egraph):
        for rule in JOIN_RULES:
            assert_join_equals_product(egraph, rule)

    @given(join_egraphs())
    @settings(max_examples=20, deadline=None)
    def test_searcher_join_equals_product_on_random_egraphs(self, egraph):
        searcher = MultiPatternSearcher(JOIN_RULES)
        canonical = searcher.search_canonical(egraph)
        hashed = searcher.combine_matches(egraph, canonical)
        calls = []
        with mock.patch.object(MultiPatternRewrite, "combine", recording_product(calls)):
            product = searcher.combine_matches(egraph, canonical)
        assert calls == [rule.name for rule in JOIN_RULES]
        assert hashed == product

    @given(join_egraphs(), random_join_rules())
    @settings(max_examples=150, deadline=None)
    def test_stream_equals_product_for_random_rules(self, egraph, rule):
        """2- and 3-source rules with any variable sharing, ``skip_identical``
        on or off, with or without a condition that rejects some
        combinations: same combinations, same order, same condition calls."""
        checked = []
        if rule.condition is not None:
            condition = rule.condition
            rule.condition = lambda g, multi: checked.append(multi) or condition(g, multi)
        per_source = [search_pattern(egraph, p) for p in rule.sources]
        product = combine_product(rule, egraph, per_source)
        product_checked, checked[:] = list(checked), []
        assert list(rule.combine(egraph, per_source)) == product
        assert checked == product_checked

    def test_streams_leave_no_reference_cycle(self):
        """A drawn or abandoned stream is freed by reference counting.

        A cycle would keep its probe indexes -- and through the condition's
        arguments the e-graph -- alive until the next cyclic collection,
        raising the peak memory of a long closed loop.
        """
        eg = EGraph()
        eg.add_term("(noop (matmul 0 x w1) (matmul 0 x w2) (matmul 0 x w3))")
        rule = three_source_rule(condition=lambda g, m: True)
        per_source = [search_pattern(eg, p) for p in rule.sources]
        gc.collect()
        gc.disable()
        try:
            assert len(list(rule.combine(eg, per_source))) == 24
            abandoned = rule.combine(eg, per_source)
            next(abandoned)
            del abandoned
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_drawing_calls_the_condition_only_for_drawn_combinations(self):
        eg = EGraph()
        eg.add_term("(noop (matmul 0 x w1) (matmul 0 x w2) (matmul 0 x w3))")
        checked = []

        def condition(g, multi):
            checked.append(multi)
            return True

        rule = three_source_rule(condition=condition)
        per_source = [search_pattern(eg, p) for p in rule.sources]
        stream = rule.combine(eg, per_source)
        assert checked == []
        drawn = list(itertools.islice(stream, 5))
        assert len(drawn) == 5
        assert checked == drawn
        rest = list(stream)
        assert len(checked) == 24
        assert drawn + rest == checked


# --------------------------------------------------------------------- #
# Runner trajectory parity: join mode and search path are invisible
# --------------------------------------------------------------------- #


def _naive_matcher(rewrites, multi_rewrites):
    """The interpretive matcher over the patterns the runner's trie would hold."""
    patterns, _keys = collect_trie_patterns(rewrites, MultiPatternSearcher(multi_rewrites))
    return NaiveSearchAll(patterns)


def _runner_trajectory(naive=False):
    eg = EGraph()
    eg.add_term(
        "(noop (relu (matmul 0 x w1)) (sqrt (matmul 0 x w2)) (matmul 0 x w3))"
    )
    multi_rewrites = [matmul_merge_rule(), three_source_rule()]
    runner = Runner(
        eg,
        rewrites=[],
        multi_rewrites=multi_rewrites,
        limits=RunnerLimits(iter_limit=4, k_multi=2, node_limit=4_000),
        trie_matcher=_naive_matcher([], multi_rewrites) if naive else None,
    )
    report = runner.run()
    return (
        report.stop_reason,
        report.n_enodes,
        report.n_eclasses,
        tuple(it.n_matches for it in report.iterations),
        tuple(it.n_applied for it in report.iterations),
        tuple(it.n_deduped for it in report.iterations),
    )


class TestRunnerJoinParity:
    def test_hash_and_product_runs_identical(self):
        hashed = _runner_trajectory()
        calls = []
        with mock.patch.object(MultiPatternRewrite, "combine", recording_product(calls)):
            assert _runner_trajectory() == hashed
        # Both rules, in each of the k_multi=2 iterations.
        assert calls == ["matmul-merge", "matmul-merge-three"] * 2

    def test_all_search_paths_identical_with_multi_rules(self):
        assert _runner_trajectory() == _runner_trajectory(naive=True)

    def test_trie_admission_with_single_and_multi_rules(self):
        """Multi canonical sources ride the same trie as single-rule LHSs."""
        from repro.rules import default_ruleset

        ruleset = default_ruleset()
        records = {}
        for mode in ("naive", "trie"):
            eg = EGraph()
            eg.add_term("(noop (matmul 0 x w1) (matmul 0 x w2))")
            naive = _naive_matcher(ruleset.rewrites, ruleset.multi_rewrites)
            runner = Runner(
                eg,
                rewrites=ruleset.rewrites,
                multi_rewrites=ruleset.multi_rewrites,
                limits=RunnerLimits(iter_limit=3, k_multi=1, node_limit=3_000),
                trie_matcher=naive if mode == "naive" else None,
            )
            report = runner.run()
            records[mode] = (
                report.n_enodes,
                tuple(it.n_matches for it in report.iterations),
                tuple(it.n_applied for it in report.iterations),
            )
        assert records["trie"] == records["naive"]

    def test_multi_join_seconds_reported(self):
        eg, _ = shared_input_egraph()
        runner = Runner(
            eg,
            rewrites=[],
            multi_rewrites=[matmul_merge_rule()],
            limits=RunnerLimits(iter_limit=2, k_multi=1),
        )
        report = runner.run()
        assert report.iterations[0].multi_join_seconds >= 0.0
        assert report.multi_join_seconds == pytest.approx(
            sum(it.multi_join_seconds for it in report.iterations)
        )


# --------------------------------------------------------------------- #
# Streams drawn by the apply phase
# --------------------------------------------------------------------- #

#: The ``saturate`` benchmark's exploration budget: nasrnn tiny stops on the
#: node limit inside the second iteration's multi-pattern combinations.
NASRNN_CUT = dict(extraction="greedy", k_multi=2, node_limit=1500, iter_limit=8)


def _explored(config_overrides, observers=()):
    session = OptimizationSession(
        build_model("nasrnn", "tiny"), config=TensatConfig(**config_overrides), observers=observers
    )
    report = session.explore()
    egraph = session.egraph
    state = {
        "classes": {cls.id: frozenset(cls.nodes) for cls in egraph.classes()},
        "enodes": egraph.num_enodes,
        "unions": egraph.num_unions,
        "filtered": frozenset(session.runner.filter_list),
        "applied": [it.n_applied for it in report.iterations],
        "stop": report.stop_reason,
    }
    return state, report


def _eager_combine(lengths):
    """``combine`` drawn to a list up front, recording each list's length."""
    real = MultiPatternRewrite.combine

    def combine(rule, egraph, per_source):
        combos = list(real(rule, egraph, per_source))
        lengths.append(len(combos))
        return combos

    return combine


def _counting_combine(drawn):
    """``combine`` whose stream counts, per rule, the combinations drawn."""
    real = MultiPatternRewrite.combine

    def combine(rule, egraph, per_source):
        for multi in real(rule, egraph, per_source):
            drawn[rule.name] += 1
            yield multi

    return combine


def _duplicate_target_rules():
    """Two rules with one right-hand side: the second's draws all dedup."""
    return [
        MultiPatternRewrite.parse(
            name,
            sources=["(matmul ?a ?x ?w1)", "(matmul ?a ?x ?w2)"],
            targets=["(split0 (split 1 (matmul ?a ?x (concat2 1 ?w1 ?w2))))",
                     "(split1 (split 1 (matmul ?a ?x (concat2 1 ?w1 ?w2))))"],
        )
        for name in ("merge", "merge-again")
    ]


class TestStreamedApply:
    def test_node_limit_cut_leaves_the_eager_lists_egraph(self):
        streamed, report = _explored(NASRNN_CUT)
        lengths = []
        with mock.patch.object(MultiPatternRewrite, "combine", _eager_combine(lengths)):
            eager, eager_report = _explored(NASRNN_CUT)
        assert streamed == eager
        assert report.stop_reason is StopReason.NODE_LIMIT
        # Both runs count what the plan drew ...
        counted = [it.n_matches for it in report.iterations]
        assert [it.n_matches for it in eager_report.iterations] == counted
        # ... and the cut is real: the eager lists alone held more.
        assert sum(lengths) > sum(counted)

    def test_counts_and_batches_are_the_draws(self):
        recorder = RecordingObserver()
        drawn = Counter()
        with mock.patch.object(MultiPatternRewrite, "combine", _counting_combine(drawn)):
            _state, report = _explored(NASRNN_CUT, observers=[recorder])
        multi_names = {rule.name for rule in default_ruleset().multi_rewrites}
        batches = recorder.of_kind("match_batch")
        multi_batches = Counter()
        for _kind, iteration, name, count, _admitted in batches:
            if name in multi_names:
                multi_batches[name] += count
        assert multi_batches == +drawn
        for iteration, it_report in enumerate(report.iterations):
            in_iteration = [e for e in batches if e[1] == iteration]
            assert sum(e[3] for e in in_iteration) == it_report.n_matches
            # One batch per multi rule in each multi-pattern iteration, even
            # for a rule whose stream the cut never reached.
            multi_events = [e for e in in_iteration if e[2] in multi_names]
            expected = len(multi_names) if iteration < NASRNN_CUT["k_multi"] else 0
            assert len(multi_events) == expected

    def test_dedup_counts_only_drawn_combinations(self):
        def run(node_limit):
            eg = EGraph()
            eg.add_term("(noop (matmul 0 x w1) (matmul 0 x w2) (matmul 0 x w3))")
            recorder = RecordingObserver()
            runner = Runner(
                eg,
                multi_rewrites=_duplicate_target_rules(),
                limits=RunnerLimits(iter_limit=1, k_multi=1, node_limit=node_limit or 10_000),
                observers=[recorder],
            )
            start = eg.num_enodes
            report = runner.run()
            batches = {e[2]: e[3] for e in recorder.of_kind("match_batch")}
            return start, report.iterations[0], batches

        start, full, batches = run(None)
        assert batches == {"merge": 6, "merge-again": 6}
        assert full.n_deduped == 6 and full.n_applied == 6

        start, cut, batches = run(start + 1)
        # The first application crosses the limit: one draw, nothing deduped,
        # the second rule's stream never reached.
        assert batches == {"merge": 1, "merge-again": 0}
        assert (cut.n_matches, cut.n_deduped, cut.n_applied) == (1, 0, 1)

    def test_runner_hands_streams_to_the_plan_not_combine_matches(self):
        eg, _ = shared_input_egraph()
        searcher = MultiPatternSearcher([matmul_merge_rule()])
        # The list view stays a list for search() and benchmark hooks.
        (_rule, combos), = searcher.combine_matches(eg, searcher.search_canonical(eg))
        assert isinstance(combos, list) and len(combos) == 2

        def forbidden(*_args, **_kwargs):
            raise AssertionError("the runner must not draw streams through combine_matches")

        with mock.patch.object(MultiPatternSearcher, "combine_matches", forbidden):
            runner = Runner(
                eg, multi_rewrites=[matmul_merge_rule()], limits=RunnerLimits(iter_limit=2, k_multi=1)
            )
            report = runner.run()
        assert report.iterations[0].n_matches == 2
