"""TASO-style backtracking search baseline (Jia et al., 2019a, Algorithm 2).

The search keeps a priority queue of candidate graphs ordered by cost.  Each
step pops the cheapest graph, enumerates every rule match on it, applies each
substitution to obtain neighbour graphs, and enqueues a neighbour when its
cost is below ``alpha`` times the cost of the graph it came from (``alpha`` is
the relaxation hyper-parameter; the paper uses 1.0 and reports that 1.05 makes
almost no difference).  The best graph seen anywhere during the search is
returned.

Two times are recorded to reproduce Figure 5: ``total_seconds`` (the full
search) and ``best_seconds`` (when the returned graph was first discovered --
the oracle stopping time the paper calls "TASO best").
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.costs.model import CostModel
from repro.ir.graph import TensorGraph
from repro.rules.library import RuleSet, default_ruleset
from repro.search.substitution import apply_to_graph, find_graph_matches

__all__ = ["BacktrackingResult", "BacktrackingSearch"]


@dataclass
class BacktrackingResult:
    """Outcome of one backtracking search."""

    original: TensorGraph
    optimized: TensorGraph
    original_cost: float
    optimized_cost: float
    total_seconds: float
    best_seconds: float
    iterations: int
    graphs_evaluated: int
    #: (elapsed seconds, best cost so far) samples, for the Figure-6 trade-off curve.
    trajectory: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def speedup_percent(self) -> float:
        return (self.original_cost / self.optimized_cost - 1.0) * 100.0


class BacktrackingSearch:
    """Sequential cost-ordered backtracking search over graph substitutions.

    Parameters
    ----------
    rules:
        The rule set to search with (defaults to the full library, as in the paper).
    cost_model:
        The cost model shared with TENSAT.
    alpha:
        Relaxation threshold: a neighbour is enqueued when
        ``cost(neighbour) < alpha * cost(parent)``.
    budget:
        Number of queue pops ("iterations of the outer loop", paper: 100).
    time_limit:
        Wall-clock limit in seconds.
    max_matches_per_rule:
        Optional cap on matches expanded per rule per graph (keeps the
        pure-Python baseline tractable on the larger models).
    """

    def __init__(
        self,
        cost_model: CostModel,
        rules: Optional[RuleSet] = None,
        alpha: float = 1.0,
        budget: int = 100,
        time_limit: float = 3600.0,
        max_matches_per_rule: Optional[int] = None,
    ) -> None:
        self.cost_model = cost_model
        self.rules = rules if rules is not None else default_ruleset()
        self.alpha = alpha
        self.budget = budget
        self.time_limit = time_limit
        self.max_matches_per_rule = max_matches_per_rule

    def optimize(self, graph: TensorGraph) -> BacktrackingResult:
        start = time.perf_counter()
        counter = itertools.count()

        original_cost = self.cost_model.graph_cost(graph)
        best_graph, best_cost = graph, original_cost
        best_time = 0.0
        trajectory: List[Tuple[float, float]] = [(0.0, best_cost)]

        heap: List[Tuple[float, int, TensorGraph]] = [(original_cost, next(counter), graph)]
        seen = {graph.signature()}
        iterations = 0
        graphs_evaluated = 1

        all_rules = list(self.rules.defs)

        while heap and iterations < self.budget:
            if time.perf_counter() - start > self.time_limit:
                break
            parent_cost, _, parent = heapq.heappop(heap)
            iterations += 1

            for rule_def in all_rules:
                matches = find_graph_matches(parent, rule_def.rule, self.max_matches_per_rule)
                for match in matches:
                    if time.perf_counter() - start > self.time_limit:
                        break
                    child = apply_to_graph(parent, rule_def.rule, match)
                    if child is None:
                        continue
                    signature = child.signature()
                    if signature in seen:
                        continue
                    seen.add(signature)
                    child_cost = self.cost_model.graph_cost(child)
                    graphs_evaluated += 1
                    now = time.perf_counter() - start
                    if child_cost < best_cost - 1e-12:
                        best_graph, best_cost, best_time = child, child_cost, now
                        trajectory.append((now, best_cost))
                    if child_cost < self.alpha * parent_cost:
                        heapq.heappush(heap, (child_cost, next(counter), child))

        total = time.perf_counter() - start
        trajectory.append((total, best_cost))
        return BacktrackingResult(
            original=graph,
            optimized=best_graph,
            original_cost=original_cost,
            optimized_cost=best_cost,
            total_seconds=total,
            best_seconds=best_time,
            iterations=iterations,
            graphs_evaluated=graphs_evaluated,
            trajectory=trajectory,
        )
