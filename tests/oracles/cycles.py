"""The cycle filter's walks as they ran before the bitset pass and the
reusable class graph.

``descendants_map`` walked the whole e-graph at the start of every
iteration, keeping one Python set of descendant e-classes per class, and
``would_create_cycle`` tested a match against it.
``EfficientCycleFilter.allows`` reads the int bitsets of
``class_graph_pass`` instead; it must give the same verdict for every
(matched class, leaf) pair (``tests/test_cycle_bitsets.py``).

``find_cycles`` is the collecting DFS that rebuilt every class's edge list
on each call, and ``resolve_loop`` the end-of-iteration loop that ran it
after every acyclicity pass.  ``ClassGraph.dfs`` must return the same
cycle list, order included, and ``EfficientCycleFilter.end_iteration``
must leave the same filter list.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.egraph.cycles import FilterList, class_graph_pass, resolve_cycles
from repro.egraph.egraph import EGraph
from repro.egraph.language import ENode


def _children_of_class(egraph: EGraph, eclass_id: int, filtered: FrozenSet[ENode]) -> Set[int]:
    children: Set[int] = set()
    for node in egraph[eclass_id].nodes:
        canonical = egraph.canonicalize(node)
        if filtered and canonical in filtered:
            continue
        children.update(canonical.children)
    return children


def descendants_map(
    egraph: EGraph, filter_list: Optional[FilterList] = None
) -> Dict[int, Set[int]]:
    """Map every e-class to the set of e-classes reachable through unfiltered e-nodes.

    One pass over the e-graph (iterative DFS with memoisation).  If the
    e-graph contains cycles, a class on one sees its cycle-mates only as far
    as the already finished portion of the traversal allows -- a sound
    approximation for the pre-filter.
    """
    filtered = filter_list.as_set(egraph) if filter_list is not None else frozenset()
    desc: Dict[int, Set[int]] = {}
    state: Dict[int, int] = {}  # 0 = unvisited, 1 = on stack, 2 = done

    for start in egraph.eclass_ids():
        start = egraph.find(start)
        if state.get(start, 0) == 2:
            continue
        stack: List[Tuple[int, Iterable[int]]] = [(start, iter(_children_of_class(egraph, start, filtered)))]
        state[start] = 1
        desc.setdefault(start, set())
        while stack:
            cls, it = stack[-1]
            advanced = False
            for child in it:
                desc[cls].add(child)
                child_state = state.get(child, 0)
                if child_state == 0:
                    state[child] = 1
                    desc.setdefault(child, set())
                    stack.append((child, iter(_children_of_class(egraph, child, filtered))))
                    advanced = True
                    break
                if child_state == 2:
                    desc[cls] |= desc[child]
                # child on stack (cycle): skip, handled by post-processing
            if not advanced:
                state[cls] = 2
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    desc[parent].add(cls)
                    desc[parent] |= desc[cls]
    return desc


def would_create_cycle(
    egraph: EGraph,
    matched_eclasses: Sequence[int],
    leaf_eclasses: Sequence[int],
    desc: Dict[int, Set[int]],
) -> bool:
    """Pre-filter check (Algorithm 2, ``WillCreateCycle``) against ``desc``."""
    for m in matched_eclasses:
        m = egraph.find(m)
        for leaf in leaf_eclasses:
            leaf = egraph.find(leaf)
            if leaf == m or m in desc.get(leaf, ()):
                return True
    return False


def find_cycles(
    egraph: EGraph, filter_list: Optional[FilterList] = None
) -> List[List[Tuple[int, ENode]]]:
    """One DFS pass over the e-graph collecting e-class-level cycles.

    Each cycle is a list of ``(eclass_id, enode)`` edges, where ``enode``
    belongs to ``eclass_id`` and has the next e-class on the cycle among its
    children.
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
            for child in canonical.children:
                key = (canonical, child)
                if key not in seen_edges:
                    seen_edges.add(key)
                    edges.append(key)
        return edges

    for start in egraph.eclass_ids():
        start = egraph.find(start)
        if color.get(start, WHITE) != WHITE:
            continue
        color[start] = GRAY
        path_edges: List[Tuple[int, ENode]] = []
        path_index: Dict[int, int] = {start: 0}
        frames: List[Tuple[int, Iterable[Tuple[ENode, int]]]] = [(start, iter(class_edges(start)))]
        while frames:
            cls, edge_iter = frames[-1]
            descended = False
            for enode, child in edge_iter:
                child_color = color.get(child, WHITE)
                if child_color == GRAY:
                    start_pos = path_index[child]
                    cycles.append(path_edges[start_pos:] + [(cls, enode)])
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


def resolve_loop(egraph: EGraph, filter_list: FilterList) -> int:
    """Pass, find, resolve until a pass finds the graph acyclic; how many resolved."""
    resolved = 0
    while not class_graph_pass(egraph, filter_list)[2]:
        resolved += resolve_cycles(egraph, filter_list, find_cycles(egraph, filter_list))
    return resolved
