"""Cycle handling for extraction (paper Section 5.2).

Valid rewrites can introduce cycles at the e-class level (paper Figure 3):
an e-node in e-class ``m`` may (transitively) have ``m`` itself among its
children e-classes.  The extracted graph must be a DAG, so TENSAT either

* encodes acyclicity in the ILP via topological-order variables (slow), or
* keeps the e-graph free of such cycles during exploration so the ILP does
  not need cycle constraints.

This module implements both cycle-filtering strategies from the paper:

* **Vanilla**: before applying each substitution, run a fresh reachability
  pass over the whole e-graph and discard the substitution if it would create
  a cycle -- ``O(n_m * N)`` per iteration.
* **Efficient** (Algorithm 2): keep one descendants map per iteration and use
  it as a constant-time *pre-filter* per match; since the map goes stale
  within the iteration, a *post-processing* DFS pass collects the cycles that
  slipped through and resolves each by adding its most recently inserted
  e-node to a *filter list*.  Filtered nodes are treated as removed: the
  descendants map, the DFS, and extraction all ignore them.

The efficient filter makes one pass over the class graph per iteration
(:func:`class_graph_pass`): after the rebuild, a colour DFS over dense class
positions both checks that the graph is acyclic and folds each class's
descendants into an int bitset.  The collecting DFS (:func:`find_cycles`)
runs only when that check finds a cycle, and the next iteration's
pre-filter reuses the bitsets unless the e-graph or the filter list changed
in between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.egraph.egraph import EGraph
from repro.egraph.language import ENode

__all__ = [
    "FilterList",
    "class_graph_pass",
    "reaches",
    "find_cycles",
    "resolve_cycles",
    "CycleFilter",
    "VanillaCycleFilter",
    "EfficientCycleFilter",
]


class FilterList:
    """Set of e-nodes considered removed from the e-graph.

    Nodes are stored canonicalized against the current union-find; membership
    checks re-canonicalise so the list stays valid across unions.
    """

    def __init__(self) -> None:
        self._nodes: Set[ENode] = set()

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self):
        return iter(self._nodes)

    def add(self, egraph: EGraph, enode: ENode) -> None:
        self._nodes.add(egraph.canonicalize(enode))

    def contains(self, egraph: EGraph, enode: ENode) -> bool:
        if not self._nodes:
            return False
        canonical = egraph.canonicalize(enode)
        if canonical in self._nodes:
            return True
        # Entries may have been inserted before later unions; re-canonicalise lazily.
        stale = {n for n in self._nodes if egraph.canonicalize(n) == canonical}
        if stale:
            self._nodes -= stale
            self._nodes.add(canonical)
            return True
        return False

    def refresh(self, egraph: EGraph) -> None:
        """Re-canonicalise all entries (cheap; called once per iteration)."""
        self._nodes = {egraph.canonicalize(n) for n in self._nodes}

    def as_set(self, egraph: EGraph) -> FrozenSet[ENode]:
        self.refresh(egraph)
        return frozenset(self._nodes)


# ---------------------------------------------------------------------- #
# Reachability
# ---------------------------------------------------------------------- #


def _children_of_class(egraph: EGraph, eclass_id: int, filtered: FrozenSet[ENode]) -> Set[int]:
    children: Set[int] = set()
    for node in egraph[eclass_id].nodes:
        canonical = egraph.canonicalize(node)
        if filtered and canonical in filtered:
            continue
        # canonicalize() already mapped every child through find().
        children.update(canonical.children)
    return children


def reaches(
    egraph: EGraph,
    source: int,
    target: int,
    filter_list: Optional[FilterList] = None,
) -> bool:
    """Fresh DFS: is ``target`` reachable from ``source`` (parent-to-child direction)?"""
    filtered = filter_list.as_set(egraph) if filter_list is not None else frozenset()
    source, target = egraph.find(source), egraph.find(target)
    if source == target:
        return True
    seen: Set[int] = {source}
    stack: List[int] = [source]
    while stack:
        cls = stack.pop()
        for child in _children_of_class(egraph, cls, filtered):
            if child == target:
                return True
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return False


def class_graph_pass(
    egraph: EGraph, filter_list: Optional[FilterList] = None
) -> Tuple[Dict[int, int], List[int], bool]:
    """One pass over the class graph through unfiltered e-nodes.

    Returns ``(position, bits, acyclic)``: ``position`` numbers the
    canonical e-classes densely, and bit ``position[d]`` of
    ``bits[position[c]]`` is set when ``d`` is reachable from ``c``.  One
    iterative colour DFS does both jobs: a child found on the DFS stack is a
    back edge, so ``acyclic`` is False exactly when the graph has a cycle
    (exactly when :func:`find_cycles` returns a non-empty list), and each
    class's bitset folds in its children's as the DFS leaves them.

    On an acyclic graph the bitsets are exact reachability.  On a cyclic
    one a class misses what it reaches only through a class still on the
    stack -- the sound approximation the paper's pre-filter allows, which
    the post-processing step makes up for.
    """
    filtered = filter_list.as_set(egraph) if filter_list is not None else frozenset()
    position = {cls: i for i, cls in enumerate(egraph.eclass_ids())}
    canonicalize = egraph.canonicalize
    kids: List[List[int]] = []
    for eclass in egraph.classes():
        # A set filled in node order, as the reference descendants map used:
        # on a cyclic graph the DFS order decides what a class misses.
        children: Set[int] = set()
        for node in eclass.nodes:
            canonical = canonicalize(node)
            if canonical not in filtered:
                children.update(canonical.children)
        kids.append([position[child] for child in children])

    bits = [0] * len(kids)
    state = [0] * len(kids)  # 0 = unvisited, 1 = on the DFS stack, 2 = done
    acyclic = True
    for start in range(len(kids)):
        if state[start]:
            continue
        state[start] = 1
        stack = [(start, iter(kids[start]))]
        while stack:
            cls, it = stack[-1]
            for child in it:
                bits[cls] |= 1 << child
                child_state = state[child]
                if child_state == 0:
                    state[child] = 1
                    stack.append((child, iter(kids[child])))
                    break
                if child_state == 2:
                    bits[cls] |= bits[child]
                else:
                    acyclic = False  # back edge (a self-loop included)
            else:
                state[cls] = 2
                stack.pop()
                if stack:
                    bits[stack[-1][0]] |= bits[cls]
    return position, bits, acyclic


# ---------------------------------------------------------------------- #
# Post-processing: find and resolve cycles
# ---------------------------------------------------------------------- #


def find_cycles(
    egraph: EGraph, filter_list: Optional[FilterList] = None
) -> List[List[Tuple[int, ENode]]]:
    """One DFS pass over the e-graph collecting e-class-level cycles.

    Each cycle is returned as a list of ``(eclass_id, enode)`` edges, where
    ``enode`` belongs to ``eclass_id`` and has the next e-class on the cycle
    among its children.  A single pass may return many (possibly overlapping)
    cycles; the caller loops until a pass finds none.
    """
    filtered = filter_list.as_set(egraph) if filter_list is not None else frozenset()
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[int, int] = {}
    cycles: List[List[Tuple[int, ENode]]] = []

    def class_edges(cls: int) -> List[Tuple[ENode, int]]:
        edges: List[Tuple[ENode, int]] = []
        seen_edges = set()
        for node in egraph[cls].nodes:
            canonical = egraph.canonicalize(node)
            if filtered and canonical in filtered:
                continue
            # canonicalize() already mapped every child through find().
            for child in canonical.children:
                key = (canonical, child)
                if key not in seen_edges:
                    seen_edges.add(key)
                    edges.append(key)
        return edges

    # Explicit-stack DFS.  ``path_edges`` holds the (class, enode) edges taken
    # from the DFS root down to the class currently being expanded, and
    # ``path_index`` maps each gray class to its position on that path so a
    # back edge can be turned into the list of edges forming the cycle.
    for start in egraph.eclass_ids():
        start = egraph.find(start)
        if color.get(start, WHITE) != WHITE:
            continue
        color[start] = GRAY
        path_edges: List[Tuple[int, ENode]] = []
        path_index: Dict[int, int] = {start: 0}
        # Stack frames: (class, iterator over its edges)
        frames: List[Tuple[int, Iterable[Tuple[ENode, int]]]] = [(start, iter(class_edges(start)))]
        while frames:
            cls, edge_iter = frames[-1]
            descended = False
            for enode, child in edge_iter:
                child_color = color.get(child, WHITE)
                if child_color == GRAY:
                    # Back edge -> cycle from ``child`` down to ``cls`` plus this edge.
                    start_pos = path_index[child]
                    cycle = path_edges[start_pos:] + [(cls, enode)]
                    cycles.append(cycle)
                elif child_color == WHITE:
                    color[child] = GRAY
                    path_edges.append((cls, enode))
                    path_index[child] = len(path_edges)
                    frames.append((child, iter(class_edges(child))))
                    descended = True
                    break
            if not descended:
                color[cls] = BLACK
                frames.pop()
                if path_edges and frames:
                    path_edges.pop()
                path_index.pop(cls, None)
    return cycles


def resolve_cycles(
    egraph: EGraph,
    filter_list: FilterList,
    cycles: Sequence[List[Tuple[int, ENode]]],
) -> int:
    """Resolve each cycle by filtering out its most recently added e-node."""
    resolved = 0
    for cycle in cycles:
        if not cycle:
            continue
        # Skip cycles already broken by an earlier resolution in this batch.
        if any(filter_list.contains(egraph, enode) for _, enode in cycle):
            continue
        newest = max(cycle, key=lambda entry: egraph.node_birth(entry[1]))
        filter_list.add(egraph, newest[1])
        resolved += 1
    return resolved


# ---------------------------------------------------------------------- #
# Strategy objects used by the Runner
# ---------------------------------------------------------------------- #


@dataclass
class CycleFilter:
    """Interface for cycle-filtering strategies plugged into the exploration loop."""

    filter_list: FilterList = field(default_factory=FilterList)

    def begin_iteration(self, egraph: EGraph) -> None:
        """Called once at the start of every exploration iteration."""

    def allows(self, egraph: EGraph, matched_eclasses: Sequence[int], leaf_eclasses: Sequence[int]) -> bool:
        """Per-match check run just before a substitution is applied."""
        return True

    def end_iteration(self, egraph: EGraph) -> int:
        """Called after all substitutions of an iteration; returns #cycles resolved."""
        return 0

    @property
    def name(self) -> str:
        return type(self).__name__


class NoCycleFilter(CycleFilter):
    """Disable filtering entirely (used with ILP cycle constraints)."""


class VanillaCycleFilter(CycleFilter):
    """Full reachability pass per candidate substitution (paper Section 5.2, vanilla)."""

    def allows(self, egraph: EGraph, matched_eclasses: Sequence[int], leaf_eclasses: Sequence[int]) -> bool:
        for m in matched_eclasses:
            for leaf in leaf_eclasses:
                if reaches(egraph, leaf, m, self.filter_list):
                    return False
        return True

    def end_iteration(self, egraph: EGraph) -> int:
        # The per-match check is complete w.r.t. the state it saw, but checks
        # within one iteration still interleave with applications, so a
        # clean-up pass keeps the invariant (and mirrors Algorithm 2's loop).
        return _postprocess(egraph, self.filter_list)


class EfficientCycleFilter(CycleFilter):
    """Descendants-bitset pre-filter + DFS post-processing (paper Algorithm 2).

    Each iteration pays for one :func:`class_graph_pass`, run after the
    rebuild in :meth:`end_iteration`; :func:`find_cycles` and
    :func:`resolve_cycles` run only when that pass finds a cycle, followed
    by another pass.  The next :meth:`begin_iteration` reuses the pass's
    bitsets when the e-graph and filter list are as the pass left them --
    the stamp ``(e-graph, filter list, num_unions, num_enodes, len(filter
    list))`` -- and recomputes them otherwise: every change to the class
    graph adds an e-node or performs a union, and the filter list only
    grows between unions.
    """

    def __init__(self) -> None:
        super().__init__()
        self._position: Dict[int, int] = {}
        self._bits: List[int] = []
        self._acyclic = False
        self._stamp: Optional[tuple] = None

    def _stamp_of(self, egraph: EGraph) -> tuple:
        flist = self.filter_list
        return (egraph, flist, egraph.num_unions, egraph.num_enodes, len(flist))

    def _pass(self, egraph: EGraph) -> bool:
        """Run :func:`class_graph_pass`, keep its bitsets; True when acyclic."""
        self._position, self._bits, self._acyclic = class_graph_pass(egraph, self.filter_list)
        self._stamp = self._stamp_of(egraph)
        return self._acyclic

    def begin_iteration(self, egraph: EGraph) -> None:
        if self._stamp != self._stamp_of(egraph):
            self._pass(egraph)

    def allows(self, egraph: EGraph, matched_eclasses: Sequence[int], leaf_eclasses: Sequence[int]) -> bool:
        """``WillCreateCycle`` of Algorithm 2, negated.

        Applying a rewrite adds, to each matched e-class ``m``, a new
        sub-term whose leaves are the e-classes the substitution binds.  If
        some leaf ``s`` can already reach ``m``, then after the rewrite ``m``
        reaches ``s`` too and a cycle appears.  Sound but not complete:
        relations added earlier in the same iteration are not in the
        bitsets (the post-processing step handles those).
        """
        find, position, bits = egraph.find, self._position, self._bits
        for m in matched_eclasses:
            m = find(m)
            m_pos = position.get(m)
            for leaf in leaf_eclasses:
                leaf = find(leaf)
                if leaf == m:
                    return False
                if m_pos is not None:
                    leaf_pos = position.get(leaf)
                    if leaf_pos is not None and bits[leaf_pos] >> m_pos & 1:
                        return False
        return True

    def end_iteration(self, egraph: EGraph) -> int:
        """Collect and resolve cycles until a pass finds none; return how many."""
        if self._acyclic and self._stamp == self._stamp_of(egraph):
            return 0  # the iteration changed nothing since an acyclic pass
        resolved = 0
        while not self._pass(egraph):
            resolved += resolve_cycles(egraph, self.filter_list, find_cycles(egraph, self.filter_list))
        return resolved


def _postprocess(egraph: EGraph, filter_list: FilterList) -> int:
    """Loop DFS passes until the e-graph (minus filtered nodes) is acyclic."""
    total = 0
    while True:
        cycles = find_cycles(egraph, filter_list)
        if not cycles:
            return total
        resolved = resolve_cycles(egraph, filter_list, cycles)
        if resolved == 0:
            # Every cycle already held a filtered e-node: nothing to break.
            return total
        total += resolved
