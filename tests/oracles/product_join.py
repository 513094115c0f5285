"""Multi-pattern combination as paper Algorithm 1 states it (lines 10--15).

Enumerate the full Cartesian product of the per-source match lists, keep
the combinations whose shared variables bind the same e-class, and filter
them through the rule's condition.  ``MultiPatternRewrite.combine`` (an
indexed hash join) must return the identical list -- same combinations,
same order (``tests/test_multipattern.py``).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence

from repro.egraph.egraph import EGraph
from repro.egraph.ematch import Match
from repro.egraph.multipattern import MultiMatch, MultiPatternRewrite
from repro.egraph.pattern import Substitution


def _compatible(substs: Sequence[Substitution]) -> Optional[Substitution]:
    """Merge substitutions; return None when shared variables disagree."""
    merged: Dict[str, int] = {}
    for subst in substs:
        for var, cls in subst.items():
            existing = merged.get(var)
            if existing is None:
                merged[var] = cls
            elif existing != cls:
                return None
    return merged


def combine_product(
    rule: MultiPatternRewrite,
    egraph: EGraph,
    per_source_matches: Sequence[Sequence[Match]],
) -> List[MultiMatch]:
    """Cartesian-product the per-source matches and keep compatible ones."""
    combos: List[MultiMatch] = []
    for combination in itertools.product(*per_source_matches):
        if rule.skip_identical and len(combination) > 1:
            if len({m.eclass for m in combination}) == 1:
                continue
        merged = _compatible([m.subst for m in combination])
        if merged is None:
            continue
        multi = MultiMatch(eclasses=tuple(m.eclass for m in combination), subst=merged)
        if rule.condition is not None and not rule.condition(egraph, multi):
            continue
        combos.append(multi)
    return combos
