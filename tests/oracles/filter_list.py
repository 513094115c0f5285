"""The filter list's membership check as it ran before the union stamp.

Every miss re-canonicalised every entry (the "stale" scan), whether or not
a union had happened since the entries were canonicalised.
``FilterList.contains`` re-canonicalises only when ``egraph.num_unions``
moved; it must give the same verdict for every e-node
(``tests/test_filter_list.py``).
"""

from __future__ import annotations

from typing import Set

from repro.egraph.egraph import EGraph
from repro.egraph.language import ENode


class ScanFilterList:
    def __init__(self) -> None:
        self._nodes: Set[ENode] = set()

    def add(self, egraph: EGraph, enode: ENode) -> None:
        self._nodes.add(egraph.canonicalize(enode))

    def contains(self, egraph: EGraph, enode: ENode) -> bool:
        if not self._nodes:
            return False
        canonical = egraph.canonicalize(enode)
        if canonical in self._nodes:
            return True
        stale = {n for n in self._nodes if egraph.canonicalize(n) == canonical}
        if stale:
            self._nodes -= stale
            self._nodes.add(canonical)
            return True
        return False
