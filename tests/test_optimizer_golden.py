"""Golden regression tests: the production search reproduces the test oracles.

For a few small seed models, the optimizer runs once on its production path
(the shared-prefix rule trie, the streamed multi-pattern join, compiled shape
conditions) and once with one of those swapped for its oracle from
``tests/oracles/`` -- the interpretive matcher, the Cartesian-product join,
bottom-up shape inference per check.  Each pair searches the same frozen
e-graph every iteration and hands the planner identical ordered match lists,
so the exploration trajectories must coincide *bit-for-bit*: same match
counts, same apply plan, same e-graph growth, same stop reason, same
extracted cost.  Any divergence means the production path changed the
semantics of the pipeline, not just its speed.
"""

from __future__ import annotations

import pytest
from oracles.naive_match import NaiveSearchAll
from oracles.product_join import recording_product
from oracles.shape_spec import targets_valid_spec

from repro.core.config import TensatConfig
from repro.core.session import OptimizationSession
from repro.egraph.machine import TrieMatcher
from repro.egraph.multipattern import MultiPatternRewrite, MultiPatternSearcher
from repro.egraph.runner import collect_trie_patterns
from repro.models import build_model
from repro.rules.conditions import TargetsShapeValid
from repro.rules.library import default_ruleset

#: Small, fast exploration budgets; golden tests check equivalence, not scale.
GOLDEN_CASES = [
    # (model, config overrides)
    ("nasrnn", dict(extraction="greedy")),
    ("resnext", dict(extraction="greedy", k_multi=2)),
    ("squeezenet", dict(extraction="ilp", ilp_time_limit=20.0)),
]

BASE = dict(node_limit=2_000, iter_limit=5, k_multi=1)


def _naive_matcher() -> NaiveSearchAll:
    """The interpretive matcher over the patterns a session's trie would hold."""
    rules = default_ruleset()
    patterns, _keys = collect_trie_patterns(
        rules.rewrites, MultiPatternSearcher(rules.multi_rewrites)
    )
    return NaiveSearchAll(patterns)


def _session(model: str, overrides: dict, matcher=None) -> OptimizationSession:
    config = TensatConfig(**{**BASE, **overrides})
    return OptimizationSession(build_model(model, "tiny"), config=config, shared_trie=matcher)


def _golden_record(model: str, overrides: dict, matcher=None) -> dict:
    result = _session(model, overrides, matcher).result()
    report = result.runner_report
    return {
        "num_enodes": result.stats.num_enodes,
        "original_cost": result.stats.original_cost,
        "optimized_cost": result.stats.optimized_cost,
        "stop_reason": result.stats.stop_reason,
        # Finer-grained trajectory data: any matcher divergence shows up here
        # before it shows up in the headline numbers.
        "iterations": report.num_iterations,
        "per_iteration_matches": tuple(it.n_matches for it in report.iterations),
        "per_iteration_applied": tuple(it.n_applied for it in report.iterations),
        "per_iteration_deduped": tuple(it.n_deduped for it in report.iterations),
        "per_iteration_enodes": tuple(it.n_enodes for it in report.iterations),
    }


@pytest.mark.slow
@pytest.mark.parametrize("model,overrides", GOLDEN_CASES, ids=[m for m, _ in GOLDEN_CASES])
def test_vm_paths_reproduce_naive_golden_record(model, overrides):
    golden = _golden_record(model, overrides, matcher=_naive_matcher())
    assert _golden_record(model, overrides) == golden


@pytest.mark.slow
def test_multipattern_hash_join_reproduces_product_golden_record(monkeypatch):
    """The streamed multi-pattern join must not change the nasrnn trajectory.

    The Cartesian product + filter (paper Algorithm 1) is the oracle; the
    streamed join must walk the identical trajectory bit-for-bit, with
    multi-pattern rules active long enough (k_multi=2) for the join to
    matter.
    """
    overrides = dict(extraction="greedy", k_multi=2)
    record = _golden_record("nasrnn", overrides)
    calls = []
    monkeypatch.setattr(MultiPatternRewrite, "combine", recording_product(calls))
    assert _golden_record("nasrnn", overrides) == record
    # The oracle really served the run: one call per multi rule per
    # multi-pattern iteration.
    n_multi = len(default_ruleset().multi_rewrites)
    assert len(calls) == n_multi * overrides["k_multi"]


@pytest.mark.slow
@pytest.mark.parametrize("model", ["nasrnn", "resnext"])
def test_shape_analysis_off_matches_on(model, monkeypatch):
    """Compiled per-class shape facts must not change the trajectory.

    The oracle re-runs bottom-up shape inference per candidate binding; the
    compiled conditions read precomputed interned facts from the e-class
    analysis and run flat programs for the target spine.  Inference is a
    pure function of the bound classes' facts, so every condition verdict --
    and therefore the whole trajectory -- must be bit-for-bit identical.  A
    divergence here means the analysis served a stale or wrongly-merged
    fact.  k_multi=2 keeps the multi-pattern combination checks (the hot
    path the analysis targets) active.
    """
    overrides = dict(extraction="greedy", k_multi=2)
    record = _golden_record(model, overrides)

    def spec_call(self, egraph, match):
        return targets_valid_spec(egraph, self.targets, match.subst)

    monkeypatch.setattr(TargetsShapeValid, "__call__", spec_call)
    assert _golden_record(model, overrides) == record


@pytest.mark.slow
@pytest.mark.parametrize("model", ["nasrnn", "resnext"])
def test_birth_stamps_bit_identical_across_search_paths(model):
    """Node birth stamps must not depend on the search path.

    Regression for the eager ``next()`` default in
    ``EGraph._repair_classes``: every repaired parent burned a birth stamp
    even when the canonical node inherited one, so stamps (which cycle
    filtering uses to pick the newest node) depended on rebuild order.  With the fix, the full
    ``node -> stamp`` map is bit-for-bit identical between the interpretive
    matcher and the trie.
    """

    def birth_map(matcher=None):
        session = _session(model, {"extraction": "greedy"}, matcher)
        session.explore()
        return dict(session.egraph._node_birth)

    assert birth_map() == birth_map(_naive_matcher())


class _FullSearchTrie(TrieMatcher):
    """The production trie, but every iteration searches the whole e-graph."""

    def search_all(self, egraph, delta=None, skip=()):
        return super().search_all(egraph, None, skip)


@pytest.mark.slow
def test_delta_matching_off_matches_delta_on():
    """Searching the full e-graph every iteration must not change the trajectory."""
    rules = default_ruleset()
    patterns, _keys = collect_trie_patterns(
        rules.rewrites, MultiPatternSearcher(rules.multi_rewrites)
    )
    overrides = dict(extraction="greedy")
    assert _golden_record("nasrnn", overrides) == _golden_record(
        "nasrnn", overrides, matcher=_FullSearchTrie(patterns)
    )
