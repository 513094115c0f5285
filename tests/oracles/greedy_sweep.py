"""The greedy extractor's fixpoint as it ran before its candidates were prepared.

Every sweep canonicalizes each e-node and ``find``s each child again, and
prices a node the first time all its children have a cost.
``GreedyExtractor`` resolves the candidates once up front; it must make the
same choice for every e-class (``tests/test_extraction_equivalence.py``).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Set, Tuple

from repro.egraph.cycles import FilterList
from repro.egraph.egraph import EGraph
from repro.egraph.extraction.base import NodeCost
from repro.egraph.language import ENode


def greedy_sweep(
    egraph: EGraph, node_cost: NodeCost, filter_list: Optional[FilterList] = None
) -> Tuple[Dict[int, float], Dict[int, ENode]]:
    """Best subtree cost and best e-node per e-class, by repeated sweeps."""
    filtered: Set[ENode] = set(filter_list.as_set(egraph)) if filter_list is not None else set()
    best_cost: Dict[int, float] = {}
    best_node: Dict[int, ENode] = {}
    node_costs: Dict[ENode, float] = {}
    changed = True
    while changed:
        changed = False
        for eclass in egraph.classes():
            cid = egraph.find(eclass.id)
            for node in eclass.nodes:
                canonical = egraph.canonicalize(node)
                if canonical in filtered:
                    continue
                if any(egraph.find(c) not in best_cost for c in canonical.children):
                    continue
                if canonical not in node_costs:
                    node_costs[canonical] = node_cost(canonical, egraph)
                total = node_costs[canonical] + sum(
                    best_cost[egraph.find(c)] for c in canonical.children
                )
                if total < best_cost.get(cid, math.inf) - 1e-12:
                    best_cost[cid] = total
                    best_node[cid] = canonical
                    changed = True
    return best_cost, best_node
