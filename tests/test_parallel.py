"""Whole-session parallelism: ``optimize_many`` fan-out and its preflights.

``optimize_many(jobs=, executor=)`` runs each graph as its own serial
session on a thread or process pool, so every result must equal the
``jobs=1`` result, in submission order.  Thread workers share one compiled
rule trie through :meth:`~repro.egraph.machine.TrieMatcher.fork`; process
workers need every user-supplied component to pickle, which a preflight
checks up front.
"""

from __future__ import annotations

import pytest

from repro.core.batch import ensure_picklable, optimize_many
from repro.core.config import ConfigError, TensatConfig
from repro.core.events import RecordingObserver
from repro.egraph.machine import TrieMatcher
from repro.ir.convert import egraph_from_graph
from repro.models import build_model
from repro.rules.library import default_ruleset

BASE = dict(node_limit=2_000, iter_limit=5, k_multi=1, extraction="greedy")


def _nasrnn_egraph():
    egraph, _root = egraph_from_graph(build_model("nasrnn", "tiny"))
    return egraph


def _small_config(**overrides):
    return TensatConfig(**{**BASE, "iter_limit": 3, **overrides})


def test_trie_matcher_fork_shares_trie_not_cache():
    patterns = [rw.lhs for rw in default_ruleset().rewrites]
    matcher = TrieMatcher(patterns)
    egraph = _nasrnn_egraph()
    matcher.search_all(egraph)
    fork = matcher.fork()
    assert fork.trie is matcher.trie and fork.patterns is matcher.patterns
    assert fork._cache is None and matcher._cache is not None
    assert fork.search_all(egraph) == matcher.search_all(egraph)


def test_ensure_picklable_names_the_offender():
    with pytest.raises(ConfigError, match="the broken piece"):
        ensure_picklable({"the broken piece": lambda: None}, "this test")


def test_optimize_many_process_rejects_unpicklable_rules():
    """A lambda condition in a custom rule set fails the batch preflight."""
    rules = default_ruleset()
    rules.rewrites[0].condition = lambda egraph, match: True
    with pytest.raises(ConfigError, match="the rule set"):
        optimize_many(
            [build_model("nasrnn", "tiny")],
            rules=rules,
            config=TensatConfig(**BASE),
            jobs=2,
            executor="process",
        )


def test_optimize_many_rejects_bad_fanout_arguments():
    graphs = [build_model("nasrnn", "tiny")]
    with pytest.raises(ConfigError, match="jobs must be >= 1"):
        optimize_many(graphs, config=TensatConfig(**BASE), jobs=0)
    with pytest.raises(ConfigError, match="executor must be"):
        optimize_many(graphs, config=TensatConfig(**BASE), jobs=2, executor="fiber")
    with pytest.raises(ConfigError, match="observer"):
        optimize_many(
            graphs,
            config=TensatConfig(**BASE),
            observers=[RecordingObserver()],
            jobs=2,
            executor="process",
        )


@pytest.mark.slow
@pytest.mark.parametrize("executor", ["thread", "process"])
def test_optimize_many_jobs_parity_and_order(executor):
    """Fanned-out batches return jobs=1 results in submission order."""
    graphs = [build_model(m, "tiny") for m in ("nasrnn", "squeezenet", "resnext")]
    config = TensatConfig(**BASE)
    serial = optimize_many(graphs, config=config)
    fanned = optimize_many(graphs, config=config, jobs=2, executor=executor)
    assert [r.original.name for r in fanned] == [g.name for g in graphs]
    for a, b in zip(serial, fanned):
        assert a.stats.optimized_cost == b.stats.optimized_cost
        assert a.stats.num_enodes == b.stats.num_enodes
        assert a.stats.stop_reason == b.stats.stop_reason


def test_optimize_many_thread_fanout_delivers_observer_events():
    graphs = [build_model("nasrnn", "tiny"), build_model("squeezenet", "tiny")]
    observer = RecordingObserver()
    optimize_many(graphs, config=_small_config(), observers=[observer], jobs=2, executor="thread")
    phases = observer.of_kind("phase")
    # Two runs, each completing exploration/extraction/materialization.
    assert sum(1 for e in phases if e[1] == "exploration") == 2
    assert sum(1 for e in phases if e[1] == "materialization") == 2
