"""E-matching: searching for pattern matches in an e-graph.

Given a pattern ``l`` (a term with variables) and an e-graph, e-matching finds
all substitutions ``sigma`` (variable -> e-class) and root e-classes such that
``l[sigma]`` is represented by the root e-class (paper Section 2.2).

One engine does the search: the **shared-prefix rule trie**
(:class:`~repro.egraph.machine.TrieMatcher`), which merges every pattern's
compiled program into one trie per root operator.  The saturation runner
matches all its rules with one trie; :func:`search_pattern` and
:func:`search_eclass` run a one-pattern trie for stand-alone searches.

Matches come back canonical and in a deterministic order (sorted by root
e-class, then bindings).  The original interpretive backtracking matcher is
kept as a test oracle (``tests/oracles/naive_match.py``); the equivalence
tests check the trie against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.egraph.egraph import EGraph
from repro.egraph.machine import TrieMatcher, build_rule_trie, match_sort_key, trie_search_classes
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
# Stand-alone searches: one-pattern runs of the rule trie
# --------------------------------------------------------------------- #


def search_pattern(egraph: EGraph, pattern: Pattern) -> List[Match]:
    """All matches of ``pattern`` anywhere in the e-graph."""
    return TrieMatcher([pattern]).search_all(egraph)[0]


def search_eclass(egraph: EGraph, pattern: Pattern, eclass_id: int) -> List[Match]:
    """All matches of ``pattern`` rooted at ``eclass_id``."""
    root = egraph.find(eclass_id)
    trie = build_rule_trie([pattern])
    if trie.var_rules:  # a bare variable matches every class, binding itself
        return [Match(eclass=root, subst={trie.var_rules[0][1]: root})]
    out: Dict[int, List[Match]] = {0: []}
    for bucket in trie.buckets.values():
        trie_search_classes(egraph, bucket, [root], out)
    return sorted(out[0], key=match_sort_key)


def count_matches(egraph: EGraph, pattern: Pattern) -> int:
    return len(search_pattern(egraph, pattern))
