"""E-matching: searching for pattern matches in an e-graph.

Given a pattern ``l`` (a term with variables) and an e-graph, e-matching finds
all substitutions ``sigma`` (variable -> e-class) and root e-classes such that
``l[sigma]`` is represented by the root e-class (paper Section 2.2).

Two search paths live behind the same contract:

* the **compiled virtual machine** (:mod:`repro.egraph.machine`), which runs a
  flat per-pattern instruction program over explicit registers -- this is what
  :func:`search_pattern` / :func:`search_eclass` use;
* the **shared-prefix rule trie** (:class:`~repro.egraph.machine.TrieMatcher`),
  which merges every rule's program into one trie per root operator and
  matches all rules in a single traversal per op bucket -- the saturation
  runner's search.

Both return the same canonical match sets in the same deterministic order
(sorted by root e-class, then bindings).  The original interpretive
backtracking matcher is kept as a test oracle
(``tests/oracles/naive_match.py``); the equivalence tests check both paths
against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.egraph.egraph import EGraph
from repro.egraph.pattern import Pattern

__all__ = [
    "Match",
    "search_pattern",
    "search_eclass",
    "count_matches",
]


@dataclass(frozen=True)
class Match:
    """A single pattern match: the root e-class and the variable bindings."""

    eclass: int
    subst: Dict[str, int]

    def canonical(self, egraph: EGraph) -> "Match":
        return Match(
            eclass=egraph.find(self.eclass),
            subst={k: egraph.find(v) for k, v in self.subst.items()},
        )


# --------------------------------------------------------------------- #
# Default interface: thin wrappers over the compiled VM
# --------------------------------------------------------------------- #


def search_pattern(egraph: EGraph, pattern: Pattern) -> List[Match]:
    """All matches of ``pattern`` anywhere in the e-graph (compiled VM)."""
    from repro.egraph.machine import vm_search_pattern

    return vm_search_pattern(egraph, pattern)


def search_eclass(egraph: EGraph, pattern: Pattern, eclass_id: int) -> List[Match]:
    """All matches of ``pattern`` rooted at ``eclass_id`` (compiled VM)."""
    from repro.egraph.machine import vm_search_eclass

    return vm_search_eclass(egraph, pattern, eclass_id)


def count_matches(egraph: EGraph, pattern: Pattern) -> int:
    return len(search_pattern(egraph, pattern))
