"""The cycle pre-filter's descendants map as it ran before the bitset pass.

``descendants_map`` walked the whole e-graph at the start of every
iteration, keeping one Python set of descendant e-classes per class, and
``would_create_cycle`` tested a match against it.
``EfficientCycleFilter.allows`` reads the int bitsets of
``class_graph_pass`` instead; it must give the same verdict for every
(matched class, leaf) pair (``tests/test_cycle_bitsets.py``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.egraph.cycles import FilterList
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
