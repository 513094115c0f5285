"""Pattern instantiation as it ran before right-hand sides were compiled.

A recursive walk over the pattern tree: variables read the substitution,
every operator node is added after its children, and ground sub-terms are
memoised under the ``PatternNode`` itself.  ``Pattern.instantiate`` runs a
flat compiled program instead; with a shared ground memo it must add the
same e-nodes in the same order (``tests/test_rhs_program.py``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.egraph.language import ENode
from repro.egraph.pattern import Pattern, PatternNode, PatternTerm, PatternVar, Substitution


def instantiate(
    pattern: Pattern,
    egraph,
    subst: Substitution,
    ground_memo: Optional[Dict[PatternNode, int]] = None,
) -> int:
    """Add ``pattern`` to ``egraph`` under ``subst`` and return the root e-class."""

    def go(term: PatternTerm) -> Tuple[int, bool]:
        if isinstance(term, PatternVar):
            try:
                return subst[term.name], False
            except KeyError as exc:
                raise KeyError(f"substitution missing variable ?{term.name}") from exc
        if ground_memo is not None:
            hit = ground_memo.get(term)
            if hit is not None:
                return hit, True
        results = [go(c) for c in term.children]
        eclass = egraph.add(ENode(term.op, tuple(r[0] for r in results)))
        ground = all(r[1] for r in results)
        if ground and ground_memo is not None:
            ground_memo[term] = eclass
        return eclass, ground

    return go(pattern.root)[0]
