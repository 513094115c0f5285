"""Single-pattern rewrite rules.

A rewrite ``l -> r`` searches an e-graph for matches of the source pattern
``l`` and, for every match ``sigma``, adds ``r[sigma]`` to the e-graph and
unions it with the matched e-class (paper Section 2.2).  Rewrites may carry a
*condition*: a predicate over the e-graph and the match that must hold before
the rewrite is applied.  TENSAT uses conditions for shape checking (paper
Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.egraph.egraph import EGraph
from repro.egraph.ematch import Match, search_pattern
from repro.egraph.pattern import Pattern

__all__ = ["Rewrite", "bidirectional"]

#: A rewrite's precondition, re-evaluated for every match of every search.
Condition = Callable[[EGraph, Match], bool]


@dataclass
class Rewrite:
    """A named, optionally conditional, single-pattern rewrite rule."""

    name: str
    lhs: Pattern
    rhs: Pattern
    condition: Optional[Condition] = None

    def __post_init__(self) -> None:
        lhs_vars = set(self.lhs.variables())
        rhs_vars = set(self.rhs.variables())
        unbound = rhs_vars - lhs_vars
        if unbound:
            raise ValueError(
                f"rewrite {self.name!r}: right-hand side uses variables not bound "
                f"on the left-hand side: {sorted(unbound)}"
            )
        # Compile the source pattern once, at rule-construction time; the
        # program is cached on the pattern, so every search reuses it.
        self.program = self.lhs.compile()
        # Cached for the apply planner: leaves checked by cycle filtering and
        # the identity/variables that determine the RHS instantiation (dedup key).
        self.rhs_variables: Tuple[str, ...] = tuple(self.rhs.variables())
        self.rhs_key: str = str(self.rhs)
        # The right-hand side compiled once, like the source pattern.
        self.rhs_program = self.rhs.rhs_program

    @classmethod
    def parse(
        cls,
        name: str,
        lhs: str,
        rhs: str,
        condition: Optional[Condition] = None,
    ) -> "Rewrite":
        """Build a rewrite from S-expression strings."""
        return cls(name=name, lhs=Pattern.parse(lhs), rhs=Pattern.parse(rhs), condition=condition)

    # ------------------------------------------------------------------ #
    # Search / apply
    # ------------------------------------------------------------------ #

    def search(self, egraph: EGraph) -> List[Match]:
        """Find all matches of the source pattern (a one-pattern trie search)."""
        return self.filter_matches(egraph, search_pattern(egraph, self.lhs))

    def filter_matches(self, egraph: EGraph, matches: List[Match]) -> List[Match]:
        """Apply this rule's condition to a raw match list.

        Conditions are re-evaluated on every search: e-class analysis data
        can change between iterations, so a condition that once failed may
        later pass for the same canonical match.  A rule without a condition
        returns ``matches`` itself, not a copy; callers pass lists they own
        (``TrieMatcher.search_all`` returns fresh ones).
        """
        if self.condition is None:
            return matches
        condition = self.condition
        return [m for m in matches if condition(egraph, m)]

    def apply_match(self, egraph: EGraph, match: Match) -> Tuple[int, bool]:
        """Apply this rewrite at ``match``.

        Returns ``(root_eclass, changed)`` where ``changed`` is True when the
        union actually merged two distinct e-classes (i.e. the rewrite added
        information to the e-graph).
        """
        before = egraph.num_unions
        added = self.rhs.instantiate(egraph, match.subst)
        root = egraph.union(match.eclass, added)
        grew = egraph.num_unions != before
        return root, grew

    def apply_deferred(self, egraph: EGraph, match: Match, ground_memo: Optional[dict] = None) -> int:
        """Batched-apply entry point: add the RHS now, queue the union.

        Used by :class:`~repro.egraph.applier.ApplyPlan`: all additions of an
        apply phase run against a frozen union-find and the equivalences are
        applied in one :meth:`EGraph.flush_deferred_unions` batch before the
        phase's single rebuild.  Returns the e-class of the added RHS.
        """
        added = self.rhs_program.run(egraph, match.subst, ground_memo)
        egraph.union_deferred(match.eclass, added)
        return added

    def run(self, egraph: EGraph) -> int:
        """Search then apply everywhere; returns the number of applications that changed the e-graph."""
        changed = 0
        for match in self.search(egraph):
            _, grew = self.apply_match(egraph, match)
            if grew:
                changed += 1
        return changed

    def __str__(self) -> str:
        return f"{self.name}: {self.lhs} => {self.rhs}"


def bidirectional(
    name: str,
    lhs: str,
    rhs: str,
    condition: Optional[Condition] = None,
    reverse_condition: Optional[Condition] = None,
) -> List[Rewrite]:
    """Create both directions of an equivalence ``lhs <=> rhs``.

    The reverse direction is only created when every variable of ``lhs``
    appears in ``rhs`` (otherwise the reverse rule would be ill-formed).
    """
    rules = [Rewrite.parse(name, lhs, rhs, condition)]
    forward = rules[0]
    if set(forward.lhs.variables()) <= set(forward.rhs.variables()):
        rules.append(Rewrite.parse(name + "-rev", rhs, lhs, reverse_condition))
    return rules
