"""Concurrency surface: one serial batch loop, one forkable trie matcher.

``optimize_many`` runs its graphs one after another; whole-session fan-out
(the former ``jobs=`` / ``executor=`` options) is gone, and a stale keyword
now fails loudly as an unknown config override.  The service's worker
threads still share one compiled rule trie through
:meth:`~repro.egraph.machine.TrieMatcher.fork`.
"""

from __future__ import annotations

import pytest

from repro.core.batch import optimize_many
from repro.core.config import TensatConfig
from repro.egraph.machine import TrieMatcher
from repro.ir.convert import egraph_from_graph
from repro.models import build_model
from repro.rules.library import default_ruleset


def test_trie_matcher_fork_shares_trie_not_cache():
    patterns = [rw.lhs for rw in default_ruleset().rewrites]
    matcher = TrieMatcher(patterns)
    egraph, _root = egraph_from_graph(build_model("nasrnn", "tiny"))
    matcher.search_all(egraph)
    fork = matcher.fork()
    assert fork.trie is matcher.trie and fork.patterns is matcher.patterns
    assert fork._cache is None and matcher._cache is not None
    assert fork.search_all(egraph) == matcher.search_all(egraph)


@pytest.mark.parametrize("stale", [{"jobs": 2}, {"executor": "process"}])
def test_optimize_many_rejects_stale_fanout_keywords(stale):
    """The removed fan-out options reach ``TensatConfig`` and are unknown there."""
    with pytest.raises(TypeError, match=next(iter(stale))):
        optimize_many([build_model("nasrnn", "tiny")], config=TensatConfig.fast(), **stale)
