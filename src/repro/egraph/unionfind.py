"""Disjoint-set (union-find) forest used to track e-class equivalences."""

from __future__ import annotations

from typing import List

__all__ = ["UnionFind"]


class UnionFind:
    """A union-find over dense integer ids with path halving.

    Ids are allocated with :meth:`make_set` and are contiguous starting at 0.
    Union-by-size keeps find operations near-constant amortised time, which
    matters because the e-graph canonicalises e-nodes very frequently during
    rebuilding.
    """

    def __init__(self) -> None:
        self._parent: List[int] = []
        self._size: List[int] = []

    def __len__(self) -> int:
        return len(self._parent)

    def make_set(self) -> int:
        """Create a new singleton set and return its id."""
        new_id = len(self._parent)
        self._parent.append(new_id)
        self._size.append(1)
        return new_id

    def find(self, x: int) -> int:
        """Return the canonical representative of ``x``.

        Path halving: every node on the walk is pointed at its grandparent,
        in one loop.  Each :class:`~repro.egraph.egraph.EGraph` binds this
        method as its own ``find``.
        """
        parent = self._parent
        while True:
            p = parent[x]
            if p == x:
                return x
            grandparent = parent[p]
            parent[x] = grandparent
            x = grandparent

    def union(self, a: int, b: int) -> int:
        """Merge the sets containing ``a`` and ``b``; return the new root.

        The larger set's root wins so trees stay shallow.
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return ra

    def in_same_set(self, a: int, b: int) -> bool:
        """Return True if ``a`` and ``b`` are currently equivalent."""
        return self.find(a) == self.find(b)

    def roots(self) -> List[int]:
        """Return all canonical representatives."""
        return [i for i in range(len(self._parent)) if self.find(i) == i]
