"""Batch front door: many graphs, one compiled search state, plus compare().

``optimize_many`` amortises the per-run setup the paper's single-graph flow
repeats: the rule trie (every rule's compiled program merged into one
shared-prefix trie per root operator) is compiled **once** and reused by
every run.  Compilation depends only on the rule set, never on the e-graph,
and the trie matcher's per-e-graph cache resets itself on a new e-graph, so
batched results are bit-for-bit identical to sequential ``optimize`` calls
(pinned by ``tests/test_session.py``).

``compare`` is the one implementation of the "TENSAT vs. TASO-style
backtracking" evaluation that both the CLI's ``compare`` subcommand and the
benchmark harness (``benchmarks/common.py``) call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.config import TensatConfig
from repro.core.session import OptimizationResult, OptimizationSession
from repro.costs.model import AnalyticCostModel, CostModel
from repro.egraph.machine import TrieMatcher
from repro.egraph.multipattern import MultiPatternSearcher
from repro.egraph.runner import collect_trie_patterns
from repro.ir.graph import TensorGraph
from repro.rules.library import RuleSet, default_ruleset
from repro.search.backtracking import BacktrackingResult, BacktrackingSearch

__all__ = [
    "ComparisonResult",
    "compare",
    "compile_shared_trie",
    "optimize_many",
]


def compile_shared_trie(
    rules: RuleSet, config: Optional[TensatConfig] = None
) -> Optional[TrieMatcher]:
    """Compile the rule trie a run over ``rules`` builds (None without rules).

    Every configuration searches with the same trie, so ``config`` does not
    change the result.  The trie can be passed to any number of
    :class:`OptimizationSession` s over the same rules, as long as the
    sessions run one after another -- interleaving steps of two sessions
    stays *correct* (the cache self-invalidates per e-graph) but forfeits
    the delta-search speedup.
    """
    searcher = MultiPatternSearcher(rules.multi_rewrites) if rules.multi_rewrites else None
    patterns, _keys = collect_trie_patterns(rules.rewrites, searcher)
    return TrieMatcher(patterns) if patterns else None


def optimize_many(
    graphs: Iterable[TensorGraph],
    cost_model: Optional[CostModel] = None,
    rules: Optional[RuleSet] = None,
    config: Optional[TensatConfig] = None,
    observers: Sequence[object] = (),
    shared_trie: Optional[TrieMatcher] = None,
    **config_overrides,
) -> List[OptimizationResult]:
    """Optimize several graphs under one configuration, sharing compiled state.

    The graphs run one after another.  Results are returned in input order
    and are identical to calling :func:`repro.core.optimizer.optimize` per
    graph; ``observers`` subscribe to every run's event stream.  Keyword
    arguments override ``config`` fields, as in
    :func:`~repro.core.optimizer.optimize`.

    ``shared_trie`` lets a long-lived caller (the optimization service)
    pass in an already-compiled rule trie for ``rules`` instead of
    recompiling per call; it must come from
    :func:`compile_shared_trie` (or a :meth:`~repro.egraph.machine.TrieMatcher.fork`
    of its result) over the same rule set.
    """
    config = config if config is not None else TensatConfig()
    if config_overrides:
        config = config.with_overrides(**config_overrides)
    cost_model = cost_model if cost_model is not None else AnalyticCostModel()
    rules = rules if rules is not None else default_ruleset()
    if shared_trie is None:
        shared_trie = compile_shared_trie(rules)
    return [
        OptimizationSession(
            graph,
            cost_model=cost_model,
            rules=rules,
            config=config,
            observers=observers,
            shared_trie=shared_trie,
        ).result()
        for graph in graphs
    ]


@dataclass
class ComparisonResult:
    """TENSAT and the TASO-style backtracking baseline on one graph."""

    graph: TensorGraph
    original_cost: float
    tensat: OptimizationResult
    tensat_seconds: float
    taso: BacktrackingResult

    def as_dict(self) -> Dict[str, object]:
        """The CLI's ``compare --json`` payload (stable schema)."""
        return {
            "model": self.graph.name,
            "original_cost_ms": self.original_cost,
            "tensat": {
                "speedup_percent": self.tensat.speedup_percent,
                "seconds": self.tensat_seconds,
            },
            "taso": {
                "speedup_percent": self.taso.speedup_percent,
                "total_seconds": self.taso.total_seconds,
                "best_seconds": self.taso.best_seconds,
            },
        }


def compare(
    graph: TensorGraph,
    cost_model: Optional[CostModel] = None,
    rules: Optional[RuleSet] = None,
    config: Optional[TensatConfig] = None,
    observers: Sequence[object] = (),
    taso_budget: int = 30,
    taso_time_limit: float = 3600.0,
    taso_alpha: float = 1.0,
) -> ComparisonResult:
    """Optimize ``graph`` with TENSAT and with the backtracking baseline.

    ``config`` defaults to :meth:`TensatConfig.fast` (the comparison exists
    for interactive evaluation, not paper-scale runs); the ``taso_*`` knobs
    mirror :class:`~repro.search.backtracking.BacktrackingSearch` and share
    its defaults.  ``tensat_seconds`` covers the whole TENSAT run including
    e-graph construction.
    """
    cost_model = cost_model if cost_model is not None else AnalyticCostModel()
    config = config if config is not None else TensatConfig.fast()

    start = time.perf_counter()
    tensat = OptimizationSession(
        graph, cost_model=cost_model, rules=rules, config=config, observers=observers
    ).result()
    tensat_seconds = time.perf_counter() - start

    taso = BacktrackingSearch(
        cost_model, budget=taso_budget, time_limit=taso_time_limit, alpha=taso_alpha
    ).optimize(graph)

    return ComparisonResult(
        graph=graph,
        original_cost=cost_model.graph_cost(graph),
        tensat=tensat,
        tensat_seconds=tensat_seconds,
        taso=taso,
    )
