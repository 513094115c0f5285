"""Tests for single-pattern rewrites and the saturation runner."""

import pytest

from repro.core.stats import OptimizationStats
from repro.egraph.egraph import EGraph
from repro.egraph.ematch import Match
from repro.egraph.language import RecExpr
from repro.egraph.rewrite import Rewrite, bidirectional
from repro.egraph.runner import Runner, RunnerLimits, StopReason


class TestRewriteConstruction:
    def test_parse(self):
        rw = Rewrite.parse("strength", "(* ?x 2)", "(<< ?x 1)")
        assert rw.name == "strength"
        assert rw.lhs.variables() == ["x"]

    def test_unbound_rhs_variable_rejected(self):
        with pytest.raises(ValueError):
            Rewrite.parse("bad", "(* ?x 2)", "(<< ?y 1)")

    def test_bidirectional_creates_reverse(self):
        rules = bidirectional("comm", "(ewadd ?x ?y)", "(ewadd ?y ?x)")
        assert len(rules) == 2
        assert rules[1].name == "comm-rev"

    def test_bidirectional_skips_reverse_when_variables_lost(self):
        rules = bidirectional("drop", "(first ?x ?y)", "?x")
        assert len(rules) == 1


class TestApply:
    def test_apply_adds_information(self):
        eg = EGraph()
        root = eg.add_term("(* a 2)")
        rw = Rewrite.parse("strength", "(* ?x 2)", "(<< ?x 1)")
        changed = rw.run(eg)
        eg.rebuild()
        assert changed == 1
        assert eg.represents(root, RecExpr.parse("(<< a 1)"))
        # Original form is still represented (non-destructive).
        assert eg.represents(root, RecExpr.parse("(* a 2)"))

    def test_apply_is_idempotent_once_saturated(self):
        eg = EGraph()
        eg.add_term("(* a 2)")
        rw = Rewrite.parse("strength", "(* ?x 2)", "(<< ?x 1)")
        rw.run(eg)
        eg.rebuild()
        assert rw.run(eg) == 0

    def test_condition_blocks_application(self):
        eg = EGraph()
        eg.add_term("(* a 2)")
        rw = Rewrite.parse("never", "(* ?x 2)", "(<< ?x 1)", condition=lambda g, m: False)
        assert rw.search(eg) == []
        assert rw.run(eg) == 0

    def test_condition_receives_match(self):
        seen = []

        def cond(egraph, match):
            seen.append(match)
            return True

        eg = EGraph()
        eg.add_term("(* a 2)")
        Rewrite.parse("check", "(* ?x 2)", "(<< ?x 1)", condition=cond).search(eg)
        assert len(seen) == 1
        assert isinstance(seen[0], Match)


class TestFilterMatches:
    def test_unconditioned_rule_returns_the_given_list(self):
        eg = EGraph()
        eg.add_term("(* a 2)")
        rw = Rewrite.parse("strength", "(* ?x 2)", "(<< ?x 1)")
        matches = [Match(eclass=0, subst={})]
        assert rw.filter_matches(eg, matches) is matches

    def test_mutating_a_search_result_leaves_the_trie_cache_intact(self):
        from repro.egraph.machine import TrieMatcher
        from repro.egraph.pattern import Pattern

        eg = EGraph()
        eg.add_term("(f a)")
        eg.add_term("(f b)")
        matcher = TrieMatcher([Pattern.parse("(f ?x)")])
        (first,) = matcher.search_all(eg)
        assert len(first) == 2
        kept = Rewrite.parse("r", "(f ?x)", "(g ?x)").filter_matches(eg, first)
        kept.clear()  # the runner owns the list it was handed
        eg.take_dirty()
        (again,) = matcher.search_all(eg, delta=eg.take_dirty())
        assert [(m.eclass, m.subst) for m in again] == [
            (m.eclass, m.subst) for m in TrieMatcher([Pattern.parse("(f ?x)")]).search_all(eg)[0]
        ]
        assert len(again) == 2


class TestRunner:
    def rules(self):
        return [
            Rewrite.parse("strength", "(* ?x 2)", "(<< ?x 1)"),
            Rewrite.parse("cancel", "(/ (* ?x ?y) ?y)", "?x"),
            Rewrite.parse("comm", "(* ?x ?y)", "(* ?y ?x)"),
        ]

    def test_classic_example_saturates(self):
        eg = EGraph()
        root = eg.add_term("(/ (* a 2) 2)")
        report = Runner(eg, rewrites=self.rules(), limits=RunnerLimits(iter_limit=10)).run()
        assert report.stop_reason == StopReason.SATURATED
        # The optimum (just "a") is represented.
        assert eg.represents(root, RecExpr.parse("a"))
        # And so is the shifted version, i.e. information was only added.
        assert eg.represents(root, RecExpr.parse("(/ (<< a 1) 2)"))

    def test_iteration_limit(self):
        eg = EGraph()
        eg.add_term("(f a)")
        # Keeps producing new terms (f (g ... (g a))) forever, so it never saturates.
        grow = Rewrite.parse("grow", "(f ?x)", "(f (g ?x))")
        report = Runner(eg, rewrites=[grow], limits=RunnerLimits(iter_limit=3)).run()
        assert report.stop_reason == StopReason.ITERATION_LIMIT
        assert report.num_iterations == 3

    def test_node_limit(self):
        eg = EGraph()
        eg.add_term("(f a)")
        grow = Rewrite.parse("grow", "(f ?x)", "(f (g ?x))")
        report = Runner(eg, rewrites=[grow], limits=RunnerLimits(iter_limit=200, node_limit=30)).run()
        assert report.stop_reason == StopReason.NODE_LIMIT
        assert eg.num_enodes >= 30

    def test_saturation_when_rule_reaches_fixpoint(self):
        eg = EGraph()
        eg.add_term("(f (f a))")
        # f(x) = f(f(x)) collapses the nest into a single self-referential class.
        collapse = Rewrite.parse("collapse", "(f ?x)", "(f (f ?x))")
        report = Runner(eg, rewrites=[collapse], limits=RunnerLimits(iter_limit=10)).run()
        assert report.stop_reason == StopReason.SATURATED

    def test_report_iteration_details(self):
        eg = EGraph()
        eg.add_term("(/ (* a 2) 2)")
        report = Runner(eg, rewrites=self.rules(), limits=RunnerLimits(iter_limit=10)).run()
        assert report.num_iterations >= 1
        first = report.iterations[0]
        assert first.n_matches >= 2
        assert first.n_applied >= 1
        summary = OptimizationStats.from_runner_report(report).as_dict()
        assert summary["stop_reason"] == "saturated"
        assert summary["iterations"] == report.num_iterations
