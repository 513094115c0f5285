"""The interpretive backtracking e-matcher, the spec of the compiled matcher.

It re-walks the pattern tree through recursive generators on every search.
The shared-prefix rule trie (``repro.egraph.machine``) must return the same
canonical match lists in the same order (sorted by root e-class, then
bindings), whether it runs many patterns or one;
``tests/test_ematch_equivalence.py`` and ``tests/test_optimizer_golden.py``
check that they do.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.egraph.egraph import EGraph
from repro.egraph.ematch import Match
from repro.egraph.language import ENode
from repro.egraph.machine import match_sort_key
from repro.egraph.pattern import Pattern, PatternTerm, PatternVar, Substitution


def _match_term(
    egraph: EGraph,
    term: PatternTerm,
    eclass_id: int,
    subst: Substitution,
) -> Iterator[Substitution]:
    """Yield all extensions of ``subst`` matching ``term`` against ``eclass_id``."""
    eclass_id = egraph.find(eclass_id)

    if isinstance(term, PatternVar):
        bound = subst.get(term.name)
        if bound is None:
            new_subst = dict(subst)
            new_subst[term.name] = eclass_id
            yield new_subst
        elif egraph.find(bound) == eclass_id:
            yield subst
        return

    arity = len(term.children)
    for enode in egraph[eclass_id].nodes:
        if enode.op != term.op or len(enode.children) != arity:
            continue
        if arity == 0:
            yield subst
            continue
        # Match children left-to-right, threading the substitution.
        stack: List[Substitution] = [subst]
        for child_term, child_class in zip(term.children, enode.children):
            next_stack: List[Substitution] = []
            for s in stack:
                next_stack.extend(_match_term(egraph, child_term, child_class, s))
            stack = next_stack
            if not stack:
                break
        for s in stack:
            yield s


def nodes_by_op(egraph: EGraph, op: str) -> List[Tuple[int, ENode]]:
    """``(class id, e-node)`` for every canonical e-node with operator ``op``."""
    return [
        (eclass_id, node)
        for eclass_id in sorted(egraph.classes_with_op(op))
        for node in egraph[eclass_id].nodes
        if node.op == op
    ]


def naive_search_eclass(egraph: EGraph, pattern: Pattern, eclass_id: int) -> List[Match]:
    """All matches of ``pattern`` rooted at ``eclass_id`` (interpretive matcher)."""
    eclass_id = egraph.find(eclass_id)
    results: List[Match] = []
    seen = set()
    for subst in _match_term(egraph, pattern.root, eclass_id, {}):
        canon = {k: egraph.find(v) for k, v in subst.items()}
        key = tuple(sorted(canon.items()))
        if key in seen:
            continue
        seen.add(key)
        results.append(Match(eclass=eclass_id, subst=canon))
    results.sort(key=match_sort_key)
    return results


def naive_search_pattern(egraph: EGraph, pattern: Pattern) -> List[Match]:
    """All matches of ``pattern`` anywhere in the e-graph (interpretive matcher).

    The search is seeded from e-classes that contain at least one e-node whose
    operator equals the pattern root's operator, which avoids a full scan per
    e-class for selective patterns.
    """
    root = pattern.root
    matches: List[Match] = []

    if isinstance(root, PatternVar):
        # Degenerate: matches every e-class with an empty binding to itself.
        for eclass in egraph.classes():
            matches.append(Match(eclass=eclass.id, subst={root.name: eclass.id}))
        matches.sort(key=match_sort_key)
        return matches

    by_op = nodes_by_op(egraph, root.op)
    candidate_classes = sorted({egraph.find(eclass_id) for eclass_id, _ in by_op})
    for eclass_id in candidate_classes:
        matches.extend(naive_search_eclass(egraph, pattern, eclass_id))
    return matches


class NaiveSearchAll:
    """``TrieMatcher.search_all`` answered by the interpretive matcher.

    Searches the whole e-graph on every call (``delta`` is ignored), so a
    runner or session handed this in place of its rule trie walks the
    trajectory of the spec matcher.
    """

    def __init__(self, patterns: Sequence[Pattern]) -> None:
        self.patterns = list(patterns)

    def search_all(self, egraph: EGraph, delta=None, skip: Iterable[int] = ()) -> List[List[Match]]:
        skipped = set(skip)
        return [
            [] if i in skipped else naive_search_pattern(egraph, pattern)
            for i, pattern in enumerate(self.patterns)
        ]
