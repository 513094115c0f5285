"""Multi-pattern rewrite rules (paper Section 4, Algorithm 1).

A multi-pattern rewrite has a *source* consisting of several S-expressions
(each rooted at one output) and a *target* with the same number of roots.
The rule states the equivalence of each pair of matched outputs.  The
canonical example (paper Figure 2) merges two ``matmul`` operators sharing an
input into one ``matmul`` over concatenated weights followed by a ``split``.

The application algorithm follows the paper:

1. Canonicalize the source patterns by variable renaming and collect the
   unique canonical patterns (so syntactically identical sources across rules
   and across the outputs of one rule are only e-matched once).
2. Each iteration, run the single-pattern e-matcher on every canonical
   pattern.  The runner admits the canonical patterns into its shared-prefix
   rule trie, so their matches fall out of the same
   one-traversal-per-op-bucket sweep that serves the single-pattern rules
   (see ``docs/multipattern.md``).
3. For every rule, combine the (decanonicalized) matches of its source
   patterns: keep exactly the combinations whose shared variables map to the
   same e-class, and apply those.

Step 3 is :meth:`MultiPatternRewrite.combine`, a streamed index-probe join:
each source is hashed on the variables it shares with the sources before
it, and the stream walks source 0 in order, probing each later index in
turn.  It yields exactly paper Algorithm 1's Cartesian
product + filter (same combinations, same order) -- the product is kept as
a test oracle -- without materialising the quadratic product, and only as
far as its consumer draws: the apply plan stops drawing at the node limit.
``docs/multipattern.md`` works through the algorithm and the order-parity
argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.egraph.egraph import EGraph
from repro.egraph.ematch import Match, search_pattern
from repro.egraph.pattern import Pattern

__all__ = ["MultiMatch", "MultiPatternRewrite", "MultiPatternSearcher"]

#: A multi-pattern rule's precondition, evaluated once per compatible
#: combination.
MultiCondition = Callable[[EGraph, "MultiMatch"], bool]


@dataclass(frozen=True)
class MultiMatch:
    """A compatible combination of matches, one per source pattern."""

    eclasses: Tuple[int, ...]  # matched root e-class of each source output
    subst: Dict[str, int]  # merged substitution over all source variables

    def canonical(self, egraph: EGraph) -> "MultiMatch":
        return MultiMatch(
            eclasses=tuple(egraph.find(c) for c in self.eclasses),
            subst={k: egraph.find(v) for k, v in self.subst.items()},
        )


@dataclass
class MultiPatternRewrite:
    """A rewrite whose source and target each have several matched outputs."""

    name: str
    sources: List[Pattern]
    targets: List[Pattern]
    condition: Optional[MultiCondition] = None
    #: Skip combinations where all matched output e-classes coincide (the
    #: degenerate case of a symmetric rule matching one node against itself,
    #: e.g. merging a matmul with itself -- valid but useless, and a major
    #: source of e-graph blow-up).
    skip_identical: bool = True

    def __post_init__(self) -> None:
        if len(self.sources) != len(self.targets):
            raise ValueError(
                f"multi-pattern rewrite {self.name!r}: {len(self.sources)} source outputs "
                f"but {len(self.targets)} target outputs"
            )
        if not self.sources:
            raise ValueError(f"multi-pattern rewrite {self.name!r} has no outputs")
        source_vars = set()
        for p in self.sources:
            source_vars.update(p.variables())
        for p in self.targets:
            unbound = set(p.variables()) - source_vars
            if unbound:
                raise ValueError(
                    f"multi-pattern rewrite {self.name!r}: target uses unbound variables {sorted(unbound)}"
                )
        # Per-source variable lists (first-appearance order): the join
        # derives each probe index's shared-variable key from these.
        self.source_variables: Tuple[Tuple[str, ...], ...] = tuple(
            tuple(p.variables()) for p in self.sources
        )
        # Cached for the apply planner: the variables the targets consume, in
        # a deterministic order (cycle-filter leaves and the dedup key).
        target_vars: List[str] = []
        for target in self.targets:
            for name in target.variables():
                if name not in target_vars:
                    target_vars.append(name)
        self.target_variables: Tuple[str, ...] = tuple(target_vars)
        self.targets_key: Tuple[str, ...] = tuple(str(t) for t in self.targets)
        # Every target compiled once for instantiation.
        self.target_programs = tuple(t.rhs_program for t in self.targets)

    @classmethod
    def parse(
        cls,
        name: str,
        sources: Sequence[str],
        targets: Sequence[str],
        condition: Optional[MultiCondition] = None,
        skip_identical: bool = True,
    ) -> "MultiPatternRewrite":
        return cls(
            name=name,
            sources=[Pattern.parse(s) for s in sources],
            targets=[Pattern.parse(t) for t in targets],
            condition=condition,
            skip_identical=skip_identical,
        )

    # ------------------------------------------------------------------ #
    # Matching
    # ------------------------------------------------------------------ #

    @staticmethod
    def _decanonicalize(match: Match, rename_map: Dict[str, str]) -> Match:
        return Match(
            eclass=match.eclass,
            subst={rename_map[var]: cls for var, cls in match.subst.items()},
        )

    def combine(
        self,
        egraph: EGraph,
        per_source_matches: Sequence[Sequence[Match]],
    ) -> Iterator[MultiMatch]:
        """Stream the compatible :class:`MultiMatch` es of the per-source match lists.

        An index-probe join that yields exactly paper Algorithm 1's
        Cartesian product + filter -- same combinations, same order;
        ``tests/test_multipattern.py`` property-tests the equivalence
        against that oracle.

        The call builds, for every source, a hash index of its matches
        keyed on the variables it shares with the sources before it (source
        0 shares none: one bucket).  The returned iterator walks source 0 in
        order and, for each partial combination, probes the next source's
        index with the partial's bindings of those variables; each index
        bucket keeps its matches in list order, so the combinations come
        out in the product's lexicographic order with no sort.
        ``skip_identical`` and the rule's condition run per combination as
        it is drawn, so a caller that stops drawing pays for nothing past
        that point.
        """
        if not all(per_source_matches):
            return iter(())
        bound: Set[str] = set()
        probes: List[Tuple[Tuple[str, ...], Dict[tuple, List[Match]]]] = []
        for variables, matches in zip(self.source_variables, per_source_matches):
            shared = tuple(v for v in variables if v in bound)
            index: Dict[tuple, List[Match]] = {}
            for m in matches:
                index.setdefault(tuple(m.subst[v] for v in shared), []).append(m)
            probes.append((shared, index))
            bound.update(variables)
        return self._extend(egraph, probes, {}, ())

    def _extend(
        self,
        egraph: EGraph,
        probes: List[Tuple[Tuple[str, ...], Dict[tuple, List[Match]]]],
        subst: Dict[str, int],
        eclasses: Tuple[int, ...],
    ) -> Iterator[MultiMatch]:
        """The combinations extending one partial combination over the first sources."""
        depth = len(eclasses)
        if depth == len(probes):
            if self.skip_identical and depth > 1 and eclasses.count(eclasses[0]) == depth:
                return
            multi = MultiMatch(eclasses=eclasses, subst=subst)
            if self.condition is None or self.condition(egraph, multi):
                yield multi
            return
        shared, index = probes[depth]
        for m in index.get(tuple(subst[v] for v in shared), ()):
            merged = dict(subst)
            merged.update(m.subst)
            yield from self._extend(egraph, probes, merged, eclasses + (m.eclass,))

    def search(self, egraph: EGraph) -> List[MultiMatch]:
        """Stand-alone search (used by tests); the runner goes through :class:`MultiPatternSearcher`."""
        per_source = [search_pattern(egraph, p) for p in self.sources]
        return list(self.combine(egraph, per_source))

    # ------------------------------------------------------------------ #
    # Application
    # ------------------------------------------------------------------ #

    def apply_match(self, egraph: EGraph, multi: MultiMatch) -> bool:
        """Instantiate every target output and union it with its matched output."""
        before = egraph.num_unions
        for target, matched_class in zip(self.targets, multi.eclasses):
            added = target.instantiate(egraph, multi.subst)
            egraph.union(matched_class, added)
        return egraph.num_unions != before

    def apply_deferred(self, egraph: EGraph, multi: MultiMatch, ground_memo: Optional[dict] = None) -> None:
        """Batched-apply entry point: add every target now, queue the unions.

        See :meth:`Rewrite.apply_deferred`; the unions land in one
        :meth:`EGraph.flush_deferred_unions` batch before the apply phase's
        single rebuild.
        """
        for program, matched_class in zip(self.target_programs, multi.eclasses):
            added = program.run(egraph, multi.subst, ground_memo)
            egraph.union_deferred(matched_class, added)

    def __str__(self) -> str:
        srcs = ", ".join(str(p) for p in self.sources)
        tgts = ", ".join(str(p) for p in self.targets)
        return f"{self.name}: [{srcs}] => [{tgts}]"


class MultiPatternSearcher:
    """Shares e-matching work across the source patterns of many rules.

    This implements lines 1--8 and 10--15 of Algorithm 1: canonicalize every
    source pattern once up front, search each *unique* canonical pattern once
    per iteration, then hand decanonicalized per-source match lists back to
    each rule for combination.

    The two halves are exposed separately so the runner can fuse the first
    into its trie sweep:

    * :meth:`search_canonical` -- e-match every unique canonical pattern on
      its own; the runner instead admits :meth:`canonical_patterns` into its
      :class:`~repro.egraph.machine.TrieMatcher` and obtains the same match
      lists from the single shared-prefix trie traversal that serves the
      single-pattern rules;
    * :meth:`streams` -- decanonicalize each rule's per-source lists and
      return its stream of :class:`MultiMatch` es, which the runner hands
      to the apply plan; :meth:`combine_matches` is the same drawn into
      lists.

    :meth:`search` chains :meth:`search_canonical` and
    :meth:`combine_matches` for stand-alone use.
    """

    def __init__(self, rules: Sequence[MultiPatternRewrite]) -> None:
        self.rules = list(rules)
        # canonical pattern string -> canonical Pattern
        self._canonical_patterns: Dict[str, Pattern] = {}
        # per rule, per source index: (canonical key, rename map canonical->original)
        self._rule_sources: List[List[Tuple[str, Dict[str, str]]]] = []
        for rule in self.rules:
            entries: List[Tuple[str, Dict[str, str]]] = []
            for source in rule.sources:
                canonical, rename_map = source.canonicalize()
                key = str(canonical)
                self._canonical_patterns.setdefault(key, canonical)
                entries.append((key, rename_map))
            self._rule_sources.append(entries)

    @property
    def num_unique_patterns(self) -> int:
        return len(self._canonical_patterns)

    def canonical_patterns(self) -> List[Tuple[str, Pattern]]:
        """The unique canonical source patterns as ``(key, pattern)`` pairs.

        Deterministic order (first appearance across the rule list), so the
        runner can admit them into the rule trie at stable indices.
        """
        return list(self._canonical_patterns.items())

    def search_canonical(self, egraph: EGraph) -> Dict[str, List[Match]]:
        """E-match every unique canonical source pattern once (full search)."""
        return {
            key: search_pattern(egraph, pattern)
            for key, pattern in self._canonical_patterns.items()
        }

    def streams(
        self,
        egraph: EGraph,
        canonical_matches: Dict[str, List[Match]],
    ) -> List[Tuple[MultiPatternRewrite, Iterator[MultiMatch]]]:
        """Per rule, its combination stream (:meth:`MultiPatternRewrite.combine`).

        ``canonical_matches`` maps each canonical pattern key (see
        :meth:`canonical_patterns`) to its match list, from whichever search
        path produced it -- :meth:`search_canonical` or the runner's trie.
        The per-source lists are decanonicalized and the join's indexes
        built now; the combinations are joined only as they are drawn.
        """
        results: List[Tuple[MultiPatternRewrite, Iterator[MultiMatch]]] = []
        for rule, entries in zip(self.rules, self._rule_sources):
            per_source = [
                [MultiPatternRewrite._decanonicalize(m, rename_map) for m in canonical_matches[key]]
                for key, rename_map in entries
            ]
            results.append((rule, rule.combine(egraph, per_source)))
        return results

    def combine_matches(
        self,
        egraph: EGraph,
        canonical_matches: Dict[str, List[Match]],
    ) -> List[Tuple[MultiPatternRewrite, List[MultiMatch]]]:
        """Every rule's combinations as a list: :meth:`streams`, drawn to the end."""
        return [(rule, list(stream)) for rule, stream in self.streams(egraph, canonical_matches)]

    def search(self, egraph: EGraph) -> List[Tuple[MultiPatternRewrite, List[MultiMatch]]]:
        """One iteration's worth of matches for every rule (search + combine)."""
        return self.combine_matches(egraph, self.search_canonical(egraph))
