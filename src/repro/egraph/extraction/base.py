"""Shared extraction interfaces."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.egraph.egraph import EGraph
from repro.egraph.language import ENode, RecExpr

__all__ = ["NodeCost", "ExtractionResult", "Extractor", "dag_cost", "build_recexpr"]

#: Cost of a single e-node (independent of its children -- the paper's
#: additive cost model, Section 5).
NodeCost = Callable[[ENode, EGraph], float]


@dataclass
class ExtractionResult:
    """The outcome of extraction.

    ``cost`` is the DAG-aware cost: the sum of the cost of each *distinct*
    selected e-node (shared subgraphs counted once), which is the objective
    the ILP optimizes and the quantity the paper reports.

    ``stages`` breaks ``solve_seconds`` into pipeline stages (``"prune"`` /
    ``"ilp"`` / ``"greedy"``, whichever ran), and ``reduction`` is the
    :meth:`~repro.egraph.extraction.problem.ReductionStats.as_dict` of the
    problem-reduction pass when one ran.
    """

    expr: RecExpr
    cost: float
    choices: Dict[int, ENode] = field(default_factory=dict)
    solve_seconds: float = 0.0
    status: str = "ok"
    stages: Dict[str, float] = field(default_factory=dict)
    reduction: Optional[Dict[str, float]] = None

    def __post_init__(self) -> None:
        if self.expr is None:
            raise ValueError("extraction produced no expression")


class Extractor:
    """Base class for extractors."""

    def extract(self, egraph: EGraph, root: int) -> ExtractionResult:
        raise NotImplementedError


def used_choices(egraph: EGraph, root: int, choices: Dict[int, ENode]) -> Dict[int, ENode]:
    """The subset of ``choices`` reachable from ``root`` (the selected DAG)."""
    used: Dict[int, ENode] = {}
    stack = [egraph.find(root)]
    while stack:
        eclass = egraph.find(stack.pop())
        if eclass in used:
            continue
        node = choices.get(eclass)
        if node is None:
            raise ValueError(f"no extraction choice for e-class {eclass}")
        used[eclass] = node
        stack.extend(egraph.find(c) for c in node.children)
    return used


def dag_cost(
    egraph: EGraph,
    root: int,
    choices: Dict[int, ENode],
    node_cost: NodeCost,
) -> float:
    """DAG-aware cost of a selection: each selected e-node counted exactly once."""
    return sum(node_cost(node, egraph) for node in used_choices(egraph, root, choices).values())


def build_recexpr(
    egraph: EGraph,
    root: int,
    choices: Dict[int, ENode],
) -> RecExpr:
    """Build the extracted term from per-e-class choices, preserving sharing.

    Raises ``ValueError`` if the choices are cyclic (which would mean the
    selection does not correspond to a DAG).
    """
    expr = RecExpr()
    memo: Dict[int, int] = {}
    visiting: set = set()

    def go(eclass: int) -> int:
        eclass = egraph.find(eclass)
        if eclass in memo:
            return memo[eclass]
        if eclass in visiting:
            raise ValueError(f"cyclic extraction choice at e-class {eclass}")
        visiting.add(eclass)
        node = choices.get(eclass)
        if node is None:
            raise ValueError(f"no extraction choice for e-class {eclass}")
        child_indices = tuple(go(c) for c in node.children)
        visiting.discard(eclass)
        idx = expr.add(ENode(node.op, child_indices))
        memo[eclass] = idx
        return idx

    # Clear ``go``'s self-reference so the e-graph it captures is freed by
    # refcounting, not by a cyclic collection.
    try:
        go(root)
    finally:
        del go
    return expr
