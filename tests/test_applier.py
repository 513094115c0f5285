"""Unit tests for the batched apply plan (plan construction, dedup, execution)."""

import pytest

from repro.egraph.applier import ApplyPlan
from repro.egraph.cycles import VanillaCycleFilter
from repro.egraph.egraph import EGraph
from repro.egraph.ematch import Match
from repro.egraph.multipattern import MultiMatch, MultiPatternRewrite
from repro.egraph.rewrite import Rewrite


def _seeded():
    eg = EGraph()
    root = eg.add_term("(f (g a) (g b))")
    return eg, root


class TestDedup:
    def test_identical_substitutions_apply_once(self):
        eg, _ = _seeded()
        rule = Rewrite.parse("swap", "(f ?x ?y)", "(f ?y ?x)")
        matches = rule.search(eg)
        assert len(matches) == 1

        plan = ApplyPlan()
        assert plan.add_rewrite(rule, matches[0]) is True
        assert plan.add_rewrite(rule, matches[0]) is False  # identical instantiation
        assert plan.n_planned == 2
        assert plan.n_deduped == 1
        assert len(plan) == 1

        stats = plan.execute(eg)
        assert stats.n_applied == 1
        assert stats.n_deduped == 1

    def test_rules_sharing_rhs_dedup_across_rules(self):
        eg, _ = _seeded()
        rule_a = Rewrite.parse("a", "(f ?x ?y)", "(h ?x)")
        rule_b = Rewrite.parse("b", "(f ?x ?y)", "(h ?x)")
        match = rule_a.search(eg)[0]
        plan = ApplyPlan()
        assert plan.add_rewrite(rule_a, match) is True
        assert plan.add_rewrite(rule_b, match) is False
        assert plan.n_deduped == 1

    def test_matches_differing_only_in_rhs_ignored_variables_dedup(self):
        eg = EGraph()
        eg.add_term("(f a b)")
        eg.add_term("(f a c)")
        # The RHS only uses ?x, so both matches instantiate the same term; but
        # they union it with the same root only if the roots coincide.
        rule = Rewrite.parse("drop", "(f ?x ?y)", "(h ?x)")
        matches = rule.search(eg)
        assert len(matches) == 2
        plan = ApplyPlan()
        for m in matches:
            plan.add_rewrite(rule, m)
        # Different root e-classes: both survive despite identical RHS.
        assert plan.n_deduped == 0

        eg2 = EGraph()
        eg2.add_term("(g (f a b) (f a c))")
        f1 = eg2.add_term("(f a b)")
        f2 = eg2.add_term("(f a c)")
        eg2.union(f1, f2)
        eg2.rebuild()
        matches2 = rule.search(eg2)
        assert len(matches2) == 2  # same root, different ?y bindings
        plan2 = ApplyPlan()
        for m in matches2:
            plan2.add_rewrite(rule, m)
        assert plan2.n_deduped == 1

    def test_multi_match_dedup(self):
        rule = MultiPatternRewrite.parse(
            "pair", ["(f ?x)", "(g ?x)"], ["(p ?x)", "(q ?x)"]
        )
        eg = EGraph()
        eg.add_term("(root (f a) (g a))")
        combos = rule.search(eg)
        assert len(combos) == 1
        plan = ApplyPlan()
        # A multi rule's stream is drawn (and deduped) during execution.
        plan.add_multi(rule, [combos[0], combos[0]])
        assert plan.n_planned == 0
        stats = plan.execute(eg)
        assert stats.multi_drawn == [2]
        assert stats.n_planned == 2
        assert stats.n_deduped == 1
        assert stats.n_applied == 1


class TestExecution:
    def test_unions_are_queued_and_flushed_once(self):
        eg, root = _seeded()
        rule = Rewrite.parse("swap", "(f ?x ?y)", "(f ?y ?x)")
        plan = ApplyPlan()
        for m in rule.search(eg):
            plan.add_rewrite(rule, m)
        unions_before = eg.num_unions
        stats = plan.execute(eg)
        # The swapped term was added, but no union has been performed yet.
        assert stats.n_applied == 1
        assert stats.n_unions_queued == 1
        assert eg.num_unions == unions_before
        assert eg.num_deferred_unions == 1

        merged = eg.flush_deferred_unions()
        assert merged == 1
        assert eg.num_deferred_unions == 0
        eg.rebuild()
        assert eg.represents(root, eg.extract_any(root))

    def test_node_limit_truncates_deterministically(self):
        eg = EGraph()
        eg.add_term("(s (f a) (f b) (f c) (f d))")
        rule = Rewrite.parse("grow", "(f ?x)", "(f (g ?x))")
        plan = ApplyPlan()
        for m in rule.search(eg):
            plan.add_rewrite(rule, m)
        limit = eg.num_enodes + 1
        stats = plan.execute(eg, node_limit=limit)
        assert stats.truncated
        assert stats.n_applied < plan.n_planned

    def test_cycle_filter_skips_are_counted(self):
        eg = EGraph()
        eg.add_term("(f (g a))")
        # (f X) -> X's child g already reaches f? Build a rewrite whose RHS
        # hangs the matched class below one of its own descendants.
        rule = Rewrite.parse("cyc", "(f ?x)", "(h ?x)")
        matches = rule.search(eg)
        plan = ApplyPlan()
        for m in matches:
            plan.add_rewrite(rule, m)
        # VanillaCycleFilter: a leaf that reaches the matched class is vetoed.
        # Here ?x is a strict descendant of the match root, so the veto fires
        # only if leaf reaches root -- it does not, so nothing is skipped.
        stats = plan.execute(eg, cycle_filter=VanillaCycleFilter())
        assert stats.n_skipped_cycle == 0
        assert stats.n_applied == len(matches)

    def test_ground_rhs_shares_hash_cons_work(self):
        eg = EGraph()
        eg.add_term("(f a)")
        eg.add_term("(f b)")
        rule = Rewrite.parse("const", "(f ?x)", "(f (zero one))")
        plan = ApplyPlan()
        for m in rule.search(eg):
            plan.add_rewrite(rule, m)
        stats = plan.execute(eg)
        assert stats.n_applied == 2
        eg.flush_deferred_unions()
        eg.rebuild()
        # The ground RHS fragment exists exactly once.
        assert len(eg.classes_with_op("zero")) == 1


class TestDeferredUnionDeltaInteraction:
    """Delta matching must observe e-classes merged by flush_deferred_unions.

    The runner's rebuild stage flushes the queued unions and only then drains
    the dirty set, so the merges always reach the next iteration's delta.
    These regression tests pin that contract directly at the e-graph /
    matcher level, including the adversarial interleaving where
    ``take_dirty()`` runs *between* plan execution and the flush (draining
    the structural marks of the batch's adds): the flush itself re-dirties
    every merged root, so the delta still covers the merges.
    """

    def test_flushed_merges_survive_interleaved_take_dirty(self):
        from repro.egraph.language import ENode

        eg = EGraph()
        a = eg.add(ENode("a"))
        b = eg.add(ENode("b"))
        eg.union_deferred(a, b)
        # Interleaved drain (e.g. an observer inspecting the delta) between
        # plan execution and the flush.
        eg.take_dirty()
        eg.flush_deferred_unions()
        eg.rebuild()
        assert eg.find(a) in eg.take_dirty()

    def test_delta_search_observes_flushed_merge(self):
        from repro.egraph.language import ENode
        from repro.egraph.machine import TrieMatcher
        from repro.egraph.pattern import Pattern

        eg = EGraph()
        a = eg.add(ENode("a"))
        b = eg.add(ENode("b"))
        gb = eg.add(ENode("g", (b,)))
        matcher = TrieMatcher([Pattern.parse("(g (f ?x))")])
        assert matcher.search_all(eg) == [[]]  # seeds the incremental cache
        eg.take_dirty()

        # Batched apply: add an RHS against the frozen union-find, queue the
        # union, and interleave a take_dirty before the flush.
        fa = eg.add(ENode("f", (a,)))
        eg.union_deferred(b, fa)
        eg.take_dirty()
        eg.flush_deferred_unions()
        eg.rebuild()

        delta = eg.take_dirty()
        (matches,) = matcher.search_all(eg, delta=delta)
        assert [m.eclass for m in matches] == [eg.find(gb)]
        assert matches[0].subst == {"x": eg.find(a)}
        # And the delta search equals a fresh full search.
        assert [matches] == TrieMatcher([Pattern.parse("(g (f ?x))")]).search_all(eg)


class TestPipelineEquivalence:
    def test_batched_apply_equals_immediate_apply(self):
        """Plan execution + flush + rebuild reaches the same e-graph as the
        legacy interleaved apply (adds and unions are the same facts)."""
        rule = Rewrite.parse("swap", "(f ?x ?y)", "(f ?y ?x)")

        eg_batch, _ = _seeded()
        plan = ApplyPlan()
        for m in rule.search(eg_batch):
            plan.add_rewrite(rule, m)
        plan.execute(eg_batch)
        eg_batch.flush_deferred_unions()
        eg_batch.rebuild()

        eg_imm, _ = _seeded()
        for m in rule.search(eg_imm):
            rule.apply_match(eg_imm, m)
        eg_imm.rebuild()

        assert eg_batch.num_enodes == eg_imm.num_enodes
        assert eg_batch.num_eclasses == eg_imm.num_eclasses
