"""Extraction: selecting the best represented term from an e-graph.

Two extractors are provided, matching the paper's Section 5:

* :class:`~repro.egraph.extraction.greedy.GreedyExtractor` -- bottom-up
  fixpoint that picks, per e-class, the e-node with the smallest subtree cost.
  Fast, but ignores sharing between subtrees and can therefore miss the
  optimum (paper Section 6.5, Table 4).
* :class:`~repro.egraph.extraction.ilp.ILPExtractor` -- 0/1 integer linear
  program over e-node selection variables, optionally with topological-order
  variables that forbid cycles (paper constraints (1)-(5)), solved by HiGHS.
  When HiGHS returns no solution it falls back to greedy.

The ILP is built by the problem-reduction pass in
:mod:`repro.egraph.extraction.problem` (dominated-node pruning + forced
classes; see ``docs/extraction.md``).
"""

from repro.egraph.extraction.base import ExtractionResult, Extractor
from repro.egraph.extraction.greedy import GreedyExtractor
from repro.egraph.extraction.ilp import ILPExtractor
from repro.egraph.extraction.problem import ReductionStats, build_extraction_problem

__all__ = [
    "EXTRACTORS",
    "ExtractionResult",
    "Extractor",
    "GreedyExtractor",
    "ILPExtractor",
    "ReductionStats",
    "build_extraction_problem",
]


def _make_ilp_extractor(node_cost, config, filter_list):
    return ILPExtractor(
        node_cost,
        with_cycle_constraints=config.ilp_cycle_constraints,
        filter_list=filter_list,
        time_limit=config.ilp_time_limit,
        mip_rel_gap=config.ilp_mip_gap,
    )


def _make_greedy_extractor(node_cost, config, filter_list):
    return GreedyExtractor(node_cost, filter_list=filter_list)


#: Extractor name -> ``factory(node_cost, config, filter_list)``, in CLI
#: order; the first is the ``TensatConfig`` default.
EXTRACTORS = {
    "ilp": _make_ilp_extractor,
    "greedy": _make_greedy_extractor,
}
