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

After the rebuild, the efficient filter builds the class graph's edge
lists once (:class:`ClassGraph`) and runs one colour DFS over them per
resolve round.  The DFS both collects :func:`find_cycles`' cycle list and
folds each class's descendants into an int bitset; a round resolves the
cycles and drops the newly filtered e-nodes' edges, and the first round
that finds no cycle leaves exact bitsets.  The next iteration's pre-filter
reuses them unless the e-graph or the filter list changed in between, and
then recomputes them with :func:`class_graph_pass`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.egraph.egraph import EGraph
from repro.egraph.language import ENode

__all__ = [
    "FilterList",
    "ClassGraph",
    "class_graph_pass",
    "reaches",
    "find_cycles",
    "resolve_cycles",
    "CycleFilter",
    "VanillaCycleFilter",
    "EfficientCycleFilter",
    "NoCycleFilter",
    "CYCLE_FILTERS",
    "make_cycle_filter",
]


class FilterList:
    """Set of e-nodes considered removed from the e-graph.

    Nodes are stored canonicalized against the union-find as of the last
    :meth:`refresh`.  Canonical forms change only when e-classes merge, so
    a membership check re-canonicalises the entries only when
    ``egraph.num_unions`` moved since then; otherwise it is one set lookup.
    """

    def __init__(self) -> None:
        self._nodes: Set[ENode] = set()
        #: ``(e-graph, num_unions)`` the entries were last canonicalised under.
        self._stamp: Optional[tuple] = None

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self):
        return iter(self._nodes)

    def add(self, egraph: EGraph, enode: ENode) -> None:
        self._nodes.add(egraph.canonicalize(enode))

    def contains(self, egraph: EGraph, enode: ENode) -> bool:
        if not self._nodes:
            return False
        return egraph.canonicalize(enode) in self._current(egraph)

    def refresh(self, egraph: EGraph) -> None:
        """Re-canonicalise all entries against the current union-find."""
        self._nodes = {egraph.canonicalize(n) for n in self._nodes}
        self._stamp = (egraph, egraph.num_unions)

    def as_set(self, egraph: EGraph) -> FrozenSet[ENode]:
        return frozenset(self._current(egraph))

    def _current(self, egraph: EGraph) -> Set[ENode]:
        """The entries, refreshed first if a union happened since the last refresh."""
        if self._stamp != (egraph, egraph.num_unions):
            self.refresh(egraph)
        return self._nodes


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


class ClassGraph:
    """The class graph through unfiltered e-nodes, its edge lists built once.

    ``edges[p]`` holds, for the class at dense position ``p`` (``ids[p]``),
    one ``(enode, child position)`` edge per distinct (canonical e-node,
    child class) pair, in node order and then child order.  :meth:`dfs`
    walks these lists; :meth:`drop` removes the edges of e-nodes filtered
    since, which is all a resolve round changes: it neither unions nor adds.
    """

    def __init__(self, egraph: EGraph, filter_list: Optional[FilterList] = None) -> None:
        filtered = filter_list.as_set(egraph) if filter_list is not None else frozenset()
        self.ids = egraph.eclass_ids()
        self.position = position = {cls: i for i, cls in enumerate(self.ids)}
        canonicalize = egraph.canonicalize
        self.edges: List[List[Tuple[ENode, int]]] = []
        for eclass in egraph.classes():
            edges = []
            seen: Set[ENode] = set()
            for node in eclass.nodes:
                canonical = canonicalize(node)
                # A repeated canonical node repeats only pairs already listed.
                if canonical in filtered or canonical in seen:
                    continue
                seen.add(canonical)
                # canonicalize() already mapped every child through find().
                for child in dict.fromkeys(canonical.children):
                    edges.append((canonical, position[child]))
            self.edges.append(edges)

    def dfs(self) -> Tuple[List[int], List[List[Tuple[int, ENode]]]]:
        """One colour DFS: ``(bits, cycles)``.

        ``cycles`` is :func:`find_cycles`' list.  Bit ``d`` of ``bits[c]``
        is set when position ``d`` is reachable from position ``c``, exact
        on an acyclic graph; on a cyclic one a class misses what it reaches
        only through a class still on the DFS stack.
        """
        ids, edges = self.ids, self.edges
        n = len(edges)
        bits = [0] * n
        state = [0] * n  # 0 = unvisited, 1 = on the DFS stack, 2 = done
        # ``path`` holds the (class, enode) edges from the DFS root down to
        # the class being expanded; ``depth[c]`` is where a class on the
        # stack entered it, so a back edge into c closes ``path[depth[c]:]``.
        depth = [0] * n
        cycles: List[List[Tuple[int, ENode]]] = []
        for start in range(n):
            if state[start]:
                continue
            state[start] = 1
            path: List[Tuple[int, ENode]] = []
            frames = [(start, iter(edges[start]))]
            while frames:
                cls, it = frames[-1]
                for enode, child in it:
                    bits[cls] |= 1 << child
                    child_state = state[child]
                    if child_state == 0:
                        state[child] = 1
                        path.append((ids[cls], enode))
                        depth[child] = len(path)
                        frames.append((child, iter(edges[child])))
                        break
                    if child_state == 2:
                        bits[cls] |= bits[child]
                    else:
                        # Back edge (a self-loop included): one cycle per e-node.
                        cycles.append(path[depth[child]:] + [(ids[cls], enode)])
                else:
                    state[cls] = 2
                    frames.pop()
                    if frames:
                        path.pop()
                        bits[frames[-1][0]] |= bits[cls]
        return bits, cycles

    def drop(self, nodes: Iterable[Tuple[int, ENode]]) -> None:
        """Remove every edge of the given ``(class, e-node)`` pairs."""
        gone: Dict[int, Set[ENode]] = {}
        for cls, enode in nodes:
            gone.setdefault(self.position[cls], set()).add(enode)
        for pos, enodes in gone.items():
            self.edges[pos] = [edge for edge in self.edges[pos] if edge[0] not in enodes]


def find_cycles(
    egraph: EGraph, filter_list: Optional[FilterList] = None
) -> List[List[Tuple[int, ENode]]]:
    """One DFS pass over the e-graph collecting e-class-level cycles.

    Each cycle is returned as a list of ``(eclass_id, enode)`` edges, where
    ``enode`` belongs to ``eclass_id`` and has the next e-class on the cycle
    among its children.  A single pass may return many (possibly overlapping)
    cycles; the caller loops until a pass finds none.
    """
    return ClassGraph(egraph, filter_list).dfs()[1]


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
        return _resolve_all(egraph, self.filter_list)[0]


class EfficientCycleFilter(CycleFilter):
    """Descendants-bitset pre-filter + DFS post-processing (paper Algorithm 2).

    :meth:`end_iteration` builds the :class:`ClassGraph` once after the
    rebuild and reruns its DFS per resolve round until a round finds no
    cycle.  The next :meth:`begin_iteration` reuses that round's bitsets
    when the e-graph and filter list are as the rounds left them --
    the stamp ``(e-graph, filter list, num_unions, num_enodes, len(filter
    list))`` -- and recomputes them with :func:`class_graph_pass`
    otherwise: every change to the class graph adds an e-node or performs
    a union, and the filter list only grows between unions.
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

    def begin_iteration(self, egraph: EGraph) -> None:
        if self._stamp != self._stamp_of(egraph):
            self._position, self._bits, self._acyclic = class_graph_pass(egraph, self.filter_list)
            self._stamp = self._stamp_of(egraph)

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
        resolved, graph, bits = _resolve_all(egraph, self.filter_list)
        self._position, self._bits, self._acyclic = graph.position, bits, True
        self._stamp = self._stamp_of(egraph)
        return resolved


def _resolve_all(egraph: EGraph, filter_list: FilterList) -> Tuple[int, ClassGraph, List[int]]:
    """Resolve cycles until the e-graph (minus filtered nodes) is acyclic.

    The edge lists are built once; each round reruns only the DFS, without
    the edges of the e-nodes the previous round filtered.  Returns the
    number resolved, the graph and its final (exact) bitsets.
    """
    graph = ClassGraph(egraph, filter_list)
    resolved = 0
    while True:
        bits, cycles = graph.dfs()
        if not cycles:
            return resolved, graph, bits
        # The first cycle holds no filtered node, so every round resolves one.
        resolved += resolve_cycles(egraph, filter_list, cycles)
        graph.drop(
            (cls, enode) for cycle in cycles for cls, enode in cycle
            if filter_list.contains(egraph, enode)
        )


#: Cycle-filter name -> class, in CLI order; the first is the
#: ``TensatConfig`` default.
CYCLE_FILTERS = {
    "efficient": EfficientCycleFilter,
    "vanilla": VanillaCycleFilter,
    "none": NoCycleFilter,
}


def make_cycle_filter(kind: str) -> CycleFilter:
    """A fresh cycle filter of the kind :data:`CYCLE_FILTERS` names."""
    kind = kind.lower()
    if kind not in CYCLE_FILTERS:
        raise ValueError(f"unknown cycle filter {kind!r}; available: {', '.join(CYCLE_FILTERS)}")
    return CYCLE_FILTERS[kind]()
