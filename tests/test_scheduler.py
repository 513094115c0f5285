"""Tests for the rule schedulers of the exploration pipeline."""

import pytest
from oracles.naive_match import NaiveSearchAll

from repro.egraph.egraph import EGraph
from repro.egraph.rewrite import Rewrite
from repro.egraph.runner import Runner, RunnerLimits, StopReason
from repro.egraph.scheduler import BackoffScheduler, SimpleScheduler, make_scheduler
from repro.models import build_model
from repro.core import TensatConfig, optimize
from repro.costs import AnalyticCostModel


class TestSchedulerObjects:
    def test_factory(self):
        assert isinstance(make_scheduler("simple"), SimpleScheduler)
        backoff = make_scheduler("backoff", match_limit=7, ban_length=3)
        assert isinstance(backoff, BackoffScheduler)
        assert backoff.match_limit == 7 and backoff.ban_length == 3
        with pytest.raises(ValueError):
            make_scheduler("adaptive")

    def test_simple_never_bans(self):
        s = SimpleScheduler()
        assert not s.is_banned(0, 0)
        assert s.admit_matches(0, 0, 10 ** 9)

    def test_backoff_ban_doubles_per_offence(self):
        s = BackoffScheduler(match_limit=2, ban_length=2)
        assert s.admit_matches(0, 0, 2)  # at the limit: admitted
        assert not s.admit_matches(0, 1, 3)  # over: banned for 2 iterations
        assert s.is_banned(0, 2) and not s.is_banned(0, 3)
        # Second offence: threshold and ban length double.
        assert s.admit_matches(0, 4, 4)
        assert not s.admit_matches(0, 5, 5)
        assert s.is_banned(0, 8) and not s.is_banned(0, 9)


def explosive_rules():
    """One harmless rule plus one whose match count grows every iteration."""
    return [
        Rewrite.parse("rename", "(h ?x)", "(h2 ?x)"),
        Rewrite.parse("grow", "(f ?x)", "(f (g ?x))"),
    ]


class TestBackoffScheduler:
    def test_invalid_scheduler_rejected(self):
        eg = EGraph()
        eg.add_term("(f a)")
        with pytest.raises(ValueError):
            Runner(eg, limits=RunnerLimits(scheduler="adaptive"))

    def test_backoff_bans_explosive_rule(self):
        eg = EGraph()
        eg.add_term("(noop (f a) (h b))")
        limits = RunnerLimits(iter_limit=6, scheduler="backoff", match_limit=2, ban_length=2)
        runner = Runner(eg, rewrites=explosive_rules(), limits=limits)
        report = runner.run()
        assert any(it.n_rules_banned > 0 for it in report.iterations)

    def test_backoff_produces_smaller_egraph_than_simple(self):
        def run(scheduler):
            eg = EGraph()
            eg.add_term("(f a)")
            limits = RunnerLimits(
                iter_limit=8, node_limit=10_000, scheduler=scheduler, match_limit=2, ban_length=8
            )
            Runner(eg, rewrites=[Rewrite.parse("grow", "(f ?x)", "(f (g ?x))")], limits=limits).run()
            return eg.num_enodes

        assert run("backoff") <= run("simple")

    def test_banned_iteration_is_not_reported_as_saturation(self):
        eg = EGraph()
        eg.add_term("(f a)")
        limits = RunnerLimits(iter_limit=4, scheduler="backoff", match_limit=0, ban_length=10)
        report = Runner(eg, rewrites=[Rewrite.parse("grow", "(f ?x)", "(f (g ?x))")], limits=limits).run()
        # The only rule is banned immediately and stays banned; the runner must
        # not claim saturation.
        assert report.stop_reason == StopReason.ITERATION_LIMIT

    def test_simple_scheduler_never_bans(self):
        eg = EGraph()
        eg.add_term("(f a)")
        limits = RunnerLimits(iter_limit=3, scheduler="simple", match_limit=0)
        report = Runner(eg, rewrites=[Rewrite.parse("grow", "(f ?x)", "(f (g ?x))")], limits=limits).run()
        assert all(it.n_rules_banned == 0 for it in report.iterations)

    def test_backoff_ban_lift_identical_across_matchers(self):
        """Regression: the ban-lift path used to reset the rule's compiled
        incremental matcher unconditionally.  The trie must survive a full
        ban/lift cycle and walk the exact trajectory the interpretive
        reference matcher (``tests/oracles/naive_match.py``) walks."""
        rules = explosive_rules()

        def run(trie_matcher=None):
            eg = EGraph()
            eg.add_term("(noop (f a) (h b))")
            limits = RunnerLimits(iter_limit=8, scheduler="backoff", match_limit=2, ban_length=2)
            runner = Runner(eg, rewrites=rules, limits=limits, trie_matcher=trie_matcher)
            report = runner.run()
            return (
                report.stop_reason,
                tuple(it.n_matches for it in report.iterations),
                tuple(it.n_applied for it in report.iterations),
                tuple(it.n_rules_banned for it in report.iterations),
                eg.num_enodes,
            )

        golden = run(NaiveSearchAll([rw.lhs for rw in rules]))
        assert any(banned > 0 for banned in golden[3]), "test needs a real ban"
        assert run() == golden


class TestSchedulerEndToEnd:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TensatConfig(scheduler="adaptive")

    def test_backoff_config_optimizes_model(self):
        cm = AnalyticCostModel()
        graph = build_model("nasrnn", "tiny")
        config = TensatConfig.fast().with_overrides(
            scheduler="backoff", scheduler_match_limit=100, scheduler_ban_length=3
        )
        result = optimize(graph, cost_model=cm, config=config)
        assert result.optimized_cost <= result.original_cost + 1e-12
