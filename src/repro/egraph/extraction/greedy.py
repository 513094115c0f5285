"""Greedy extraction (paper Section 5.1).

For every e-class, compute the cheapest subtree cost over its e-nodes by a
bottom-up fixpoint, then pick the argmin e-node.  Because the subtree costs of
different children are summed independently, sharing is ignored -- the exact
weakness the paper demonstrates with the concat/split merge rewrites
(Table 4): greedy never pays off the shared merged ``matmul``.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.egraph.cycles import FilterList
from repro.egraph.egraph import EGraph
from repro.egraph.extraction.base import ExtractionResult, Extractor, NodeCost, build_recexpr, dag_cost
from repro.egraph.language import ENode

__all__ = ["GreedyExtractor"]


class GreedyExtractor(Extractor):
    """Bottom-up greedy extractor under an additive per-node cost model.

    Parameters
    ----------
    node_cost:
        Cost of a single e-node; the subtree cost is this plus the children's
        subtree costs (double-counting shared children, as in the paper).
    filter_list:
        E-nodes to ignore (they are "removed" by cycle filtering).
    """

    def __init__(
        self,
        node_cost: NodeCost,
        filter_list: Optional[FilterList] = None,
    ) -> None:
        self.node_cost = node_cost
        self.filter_list = filter_list

    def extract(self, egraph: EGraph, root: int) -> ExtractionResult:
        t0 = time.perf_counter()
        root = egraph.find(root)
        filtered: Set[ENode] = (
            set(self.filter_list.as_set(egraph)) if self.filter_list is not None else set()
        )

        # Resolve every class's candidates once, in sweep order: canonical
        # class id and its unfiltered canonical e-nodes with their cost and
        # canonical children.
        node_costs: Dict[ENode, float] = {}
        prepared: List[Tuple[int, List[Tuple[ENode, float, List[int]]]]] = []
        for eclass in egraph.classes():
            candidates = []
            for node in eclass.nodes:
                canonical = egraph.canonicalize(node)
                if canonical in filtered:
                    continue
                cost = node_costs.get(canonical)
                if cost is None:
                    cost = node_costs[canonical] = self.node_cost(canonical, egraph)
                candidates.append((canonical, cost, [egraph.find(c) for c in canonical.children]))
            prepared.append((egraph.find(eclass.id), candidates))

        best_cost: Dict[int, float] = {}
        best_node: Dict[int, ENode] = {}

        # Fixpoint: keep sweeping until no e-class improves.
        changed = True
        while changed:
            changed = False
            for cid, candidates in prepared:
                for canonical, cost, children in candidates:
                    if any(c not in best_cost for c in children):
                        continue
                    total = cost + sum([best_cost[c] for c in children])
                    if total < best_cost.get(cid, math.inf) - 1e-12:
                        best_cost[cid] = total
                        best_node[cid] = canonical
                        changed = True

        if root not in best_cost:
            raise ValueError(
                "greedy extraction failed: the root e-class has no acyclic representative "
                "(did cycle filtering remove every candidate?)"
            )

        expr = build_recexpr(egraph, root, best_node)
        cost = dag_cost(egraph, root, best_node, self.node_cost)
        seconds = time.perf_counter() - t0
        return ExtractionResult(
            expr=expr,
            cost=cost,
            choices={cls: node for cls, node in best_node.items()},
            solve_seconds=seconds,
            status="ok",
            stages={"greedy": seconds},
        )
