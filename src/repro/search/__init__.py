"""Sequential substitution-based search baselines.

The paper compares TENSAT against TASO's backtracking search (Jia et al.,
2019a), which applies one substitution at a time to concrete graphs and
explores the resulting graph space with a cost-ordered queue.  This package
re-implements that baseline over the same IR, rules, and cost model so the
comparison isolates the *search strategy*, exactly as the paper intends.
"""

from repro.search.backtracking import BacktrackingResult, BacktrackingSearch
from repro.search.substitution import GraphMatch, apply_to_graph, find_graph_matches

__all__ = [
    "BacktrackingSearch",
    "BacktrackingResult",
    "GraphMatch",
    "find_graph_matches",
    "apply_to_graph",
]
