"""Extraction: selecting the best represented term from an e-graph.

Two extractors are provided, matching the paper's Section 5:

* :class:`~repro.egraph.extraction.greedy.GreedyExtractor` -- bottom-up
  fixpoint that picks, per e-class, the e-node with the smallest subtree cost.
  Fast, but ignores sharing between subtrees and can therefore miss the
  optimum (paper Section 6.5, Table 4).
* :class:`~repro.egraph.extraction.ilp.ILPExtractor` -- 0/1 integer linear
  program over e-node selection variables, optionally with topological-order
  variables that forbid cycles (paper constraints (1)-(5)).
* :class:`~repro.egraph.extraction.portfolio.PortfolioExtractor` -- anytime
  racer (greedy -> BnB -> ILP) under a wall-clock deadline, returning the best
  feasible result with per-stage provenance (see ``docs/extraction.md``).

All extractors run on top of the shared problem-reduction pass in
:mod:`repro.egraph.extraction.problem` (dominated-node pruning + forced
classes) and can be warm-started from the greedy solution.
"""

from repro.egraph.extraction.base import ExtractionResult, Extractor
from repro.egraph.extraction.greedy import GreedyExtractor
from repro.egraph.extraction.ilp import ILPExtractor
from repro.egraph.extraction.portfolio import PortfolioExtractor
from repro.egraph.extraction.problem import ReductionStats, build_extraction_problem, warm_start_solution

__all__ = [
    "ExtractionResult",
    "Extractor",
    "GreedyExtractor",
    "ILPExtractor",
    "PortfolioExtractor",
    "ReductionStats",
    "build_extraction_problem",
    "warm_start_solution",
]
