"""Batched apply plans: the *plan* and *apply* stages of the saturation pipeline.

The exploration loop used to interleave e-graph mutation with matching: each
rule searched, then immediately applied its matches.  The pipeline instead
collects every surviving match of an iteration into an :class:`ApplyPlan`
first, then executes the whole plan against the e-graph in one pass:

* **dedup** -- two matches that would instantiate the *same* right-hand side
  under the *same* relevant bindings and union it with the *same* matched
  class are one unit of work; the plan applies the first and drops the rest
  (hash-consing makes the duplicates no-ops anyway, so this only saves time,
  it never changes the resulting e-graph);
* **bulk add** -- RHS instantiations share one ground-sub-term memo
  (:meth:`Pattern.instantiate`'s ``ground_memo``), so ground fragments that
  recur across matches and rules are hash-consed once per phase;
* **queued unions** -- applications call :meth:`EGraph.union_deferred`, so
  every RHS is added against a frozen union-find; the runner flushes the
  queue and triggers a *single* coordinated :meth:`EGraph.rebuild` per phase.

Plan execution is deterministic (entries run in insertion order), which is
what lets the test oracles (the interpretive matcher, the Cartesian-product
join) drive the pipeline through bit-for-bit identical saturation
trajectories: they hand the planner the same ordered match and combination
lists as the trie and the hash join, and everything after that is
search-blind.

See ``docs/apply_plan.md`` for the full plan/apply/rebuild story and
``docs/architecture.md`` for where it sits in the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.egraph.cycles import CycleFilter, NoCycleFilter
from repro.egraph.egraph import EGraph
from repro.egraph.ematch import Match
from repro.egraph.multipattern import MultiMatch, MultiPatternRewrite
from repro.egraph.rewrite import Rewrite

__all__ = ["ApplyStats", "ApplyPlan"]

_SINGLE, _MULTI = 0, 1


@dataclass
class ApplyStats:
    """What one plan execution did."""

    n_planned: int = 0  # matches offered to the planner
    n_deduped: int = 0  # dropped as identical RHS instantiations
    n_applied: int = 0  # entries actually executed
    n_skipped_cycle: int = 0  # rejected by the cycle filter
    n_unions_queued: int = 0  # deferred unions produced
    truncated: bool = False  # stopped early at the node limit


class ApplyPlan:
    """All surviving matches of one iteration, deduped and ready to execute.

    Usage (the runner's plan stage): call :meth:`add_multi` for every
    multi-pattern combination first, then :meth:`add_rewrite` for every
    admitted single-pattern match -- insertion order is application order,
    and multi entries lead so a node-limit truncation spends the ``k_multi``
    budget on the still-compact graph -- then :meth:`execute` once.  A plan
    is single-use: build, execute, discard.
    """

    def __init__(self) -> None:
        # (kind, rule, match) in application order.
        self._entries: List[tuple] = []
        self._seen: Set[tuple] = set()
        self.n_planned = 0
        self.n_deduped = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #

    def add_rewrite(self, rewrite: Rewrite, match: Match) -> bool:
        """Plan one single-pattern application; False when deduped away.

        The dedup key is the *effect* of the application -- which RHS, under
        which bindings of the variables the RHS actually uses, unioned with
        which class -- so two rules sharing a right-hand side dedup against
        each other, as do two matches differing only in variables the RHS
        ignores.
        """
        self.n_planned += 1
        key = (
            _SINGLE,
            rewrite.rhs_key,
            match.eclass,
            tuple(sorted((v, match.subst[v]) for v in rewrite.rhs_variables)),
        )
        if key in self._seen:
            self.n_deduped += 1
            return False
        self._seen.add(key)
        self._entries.append((_SINGLE, rewrite, match))
        return True

    def add_multi(self, rule: MultiPatternRewrite, multi: MultiMatch) -> bool:
        """Plan one multi-pattern application; False when deduped away."""
        self.n_planned += 1
        key = (
            _MULTI,
            rule.targets_key,
            multi.eclasses,
            tuple(sorted((v, multi.subst[v]) for v in rule.target_variables if v in multi.subst)),
        )
        if key in self._seen:
            self.n_deduped += 1
            return False
        self._seen.add(key)
        self._entries.append((_MULTI, rule, multi))
        return True

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def execute(
        self,
        egraph: EGraph,
        cycle_filter: Optional[CycleFilter] = None,
        node_limit: Optional[int] = None,
    ) -> ApplyStats:
        """Run the plan: per-entry cycle check, bulk add, queue unions.

        The caller owns the phase boundary: it must flush the deferred
        unions and rebuild once afterwards (the runner's rebuild stage).
        Execution stops -- deterministically -- as soon as the e-graph
        exceeds ``node_limit``.
        """
        if cycle_filter is None:
            cycle_filter = NoCycleFilter()
        stats = ApplyStats(n_planned=self.n_planned, n_deduped=self.n_deduped)
        unions_before = egraph.num_deferred_unions
        ground_memo: Dict[str, int] = {}
        allows = cycle_filter.allows

        for kind, rule, match in self._entries:
            if kind == _SINGLE:
                leaves = [match.subst[v] for v in rule.rhs_variables]
                if not allows(egraph, [match.eclass], leaves):
                    stats.n_skipped_cycle += 1
                    continue
            else:
                leaves = [match.subst[v] for v in rule.target_variables if v in match.subst]
                if not allows(egraph, list(match.eclasses), leaves):
                    stats.n_skipped_cycle += 1
                    continue
            rule.apply_deferred(egraph, match, ground_memo)
            stats.n_applied += 1
            # len() is the maintained e-node count (EGraph.num_enodes).
            if node_limit is not None and len(egraph) > node_limit:
                stats.truncated = True
                break

        stats.n_unions_queued = egraph.num_deferred_unions - unions_before
        return stats
