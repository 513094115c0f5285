"""Pattern matching and substitution application on *concrete* graphs.

The sequential baseline (TASO-style backtracking) does not use an
e-graph: it repeatedly picks one rewrite-rule match on the current graph and
applies it destructively, producing a new graph.  This module provides that
machinery, reusing the same :class:`~repro.egraph.pattern.Pattern` objects and
rule conditions as the equality-saturation path so both searches explore the
same substitution space.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.egraph.ematch import Match
from repro.egraph.multipattern import MultiMatch, MultiPatternRewrite
from repro.egraph.pattern import Pattern, PatternTerm, PatternVar
from repro.egraph.rewrite import Rewrite
from repro.egraph.shapeanalysis import intern_data
from repro.ir.graph import GraphBuilder, TensorGraph
from repro.ir.tensor import ShapeError, TensorData

__all__ = ["GraphMatch", "GraphAnalysisAdapter", "find_graph_matches", "apply_to_graph"]

Rule = Union[Rewrite, MultiPatternRewrite]


@dataclass(frozen=True)
class GraphMatch:
    """A rule match on a concrete graph: matched output node(s) and variable bindings."""

    rule_name: str
    roots: Tuple[int, ...]
    subst: Dict[str, int]  # variable -> node id


class GraphAnalysisAdapter:
    """Presents a :class:`TensorGraph` through the tiny slice of the e-graph API
    that rule conditions use (``analysis_data`` and ``find``), so the same
    condition callables work for both search strategies.

    Facts are served interned, as the e-graph's shape analysis serves them:
    compiled shape conditions cache verdicts under the ids of the facts they
    read, which is only sound for objects that are never freed
    (:mod:`repro.egraph.shapeanalysis`).
    """

    def __init__(self, graph: TensorGraph) -> None:
        self.graph = graph

    def analysis_data(self, node_id: int) -> TensorData:
        return intern_data(self.graph.nodes[node_id].data)

    def find(self, node_id: int) -> int:
        return node_id


# ---------------------------------------------------------------------- #
# Matching
# ---------------------------------------------------------------------- #


def _match_term(
    graph: TensorGraph, term: PatternTerm, node_id: int, subst: Dict[str, int]
) -> List[Dict[str, int]]:
    if isinstance(term, PatternVar):
        bound = subst.get(term.name)
        if bound is None:
            new = dict(subst)
            new[term.name] = node_id
            return [new]
        return [subst] if bound == node_id else []

    node = graph.nodes[node_id]
    if node.symbol != term.op or len(node.inputs) != len(term.children):
        return []
    results = [subst]
    for child_term, child_id in zip(term.children, node.inputs):
        next_results: List[Dict[str, int]] = []
        for s in results:
            next_results.extend(_match_term(graph, child_term, child_id, s))
        results = next_results
        if not results:
            break
    return results


def _pattern_matches(graph: TensorGraph, pattern: Pattern) -> List[Tuple[int, Dict[str, int]]]:
    matches: List[Tuple[int, Dict[str, int]]] = []
    for node in graph.nodes:
        for subst in _match_term(graph, pattern.root, node.id, {}):
            matches.append((node.id, subst))
    return matches


def find_graph_matches(
    graph: TensorGraph,
    rule: Rule,
    max_matches: Optional[int] = None,
) -> List[GraphMatch]:
    """All matches of ``rule`` on ``graph`` whose condition holds."""
    adapter = GraphAnalysisAdapter(graph)
    matches: List[GraphMatch] = []

    if isinstance(rule, Rewrite):
        for root, subst in _pattern_matches(graph, rule.lhs):
            if rule.condition is not None and not rule.condition(adapter, Match(root, subst)):
                continue
            matches.append(GraphMatch(rule.name, (root,), subst))
            if max_matches is not None and len(matches) >= max_matches:
                return matches
        return matches

    per_source = [_pattern_matches(graph, source) for source in rule.sources]
    for combination in product(*per_source):
        if rule.skip_identical and len(combination) > 1:
            if len({root for root, _ in combination}) == 1:
                continue
        merged: Dict[str, int] = {}
        ok = True
        for _, subst in combination:
            for var, node_id in subst.items():
                if merged.setdefault(var, node_id) != node_id:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        roots = tuple(root for root, _ in combination)
        multi = MultiMatch(eclasses=roots, subst=merged)
        if rule.condition is not None and not rule.condition(adapter, multi):
            continue
        matches.append(GraphMatch(rule.name, roots, merged))
        if max_matches is not None and len(matches) >= max_matches:
            return matches
    return matches


# ---------------------------------------------------------------------- #
# Application
# ---------------------------------------------------------------------- #


def _build_pattern(
    builder: GraphBuilder,
    term: PatternTerm,
    subst: Dict[str, int],
    mapping: Dict[int, int],
) -> int:
    if isinstance(term, PatternVar):
        return mapping[subst[term.name]]
    children = [_build_pattern(builder, c, subst, mapping) for c in term.children]
    # Strict: a rule target naming an unregistered operator is a bug in the
    # rule library, not a string literal -- fail loudly.
    return builder.add_symbol(term.op, children, strict=True)


def apply_to_graph(graph: TensorGraph, rule: Rule, match: GraphMatch) -> Optional[TensorGraph]:
    """Apply one substitution to a concrete graph, returning the rewritten graph.

    The new graph shares no structure with the old Python objects; nodes are
    rebuilt in topological order with the matched output node(s) replaced by
    the rule's target pattern(s).  Returns ``None`` when the replacement turns
    out to be ill-typed (shape checking of the target fails).
    """
    targets: Sequence[Pattern]
    if isinstance(rule, Rewrite):
        targets = [rule.rhs]
    else:
        targets = rule.targets
    if len(targets) != len(match.roots):
        raise ValueError(f"rule {rule.name} has {len(targets)} outputs but match has {len(match.roots)}")

    root_to_target = dict(zip(match.roots, targets))
    builder = GraphBuilder(graph.name)
    mapping: Dict[int, int] = {}

    try:
        for node in graph.nodes:
            if node.id in root_to_target:
                mapping[node.id] = _build_pattern(builder, root_to_target[node.id].root, match.subst, mapping)
            else:
                mapping[node.id] = builder.import_node(graph, node.id, mapping)
    except (ShapeError, KeyError):
        return None

    outputs = [mapping[o] for o in graph.outputs]
    rewritten = builder.finish(outputs=outputs)
    # Drop nodes orphaned by the replacement so graph cost reflects live work only.
    return rewritten.pruned()
