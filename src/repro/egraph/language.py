"""E-nodes and recursive expressions (terms).

Terms in this library are *untyped symbolic expressions*: an operator name
(a string) applied to zero or more children.  Constants (integers, shape
strings, tensor identifiers) are represented as childless e-nodes whose
operator string is the constant itself, exactly as ``egg`` represents symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import sexpr as sx

__all__ = ["ENode", "RecExpr"]


class ENode:
    """An operator applied to children e-classes (or term indices).

    ``children`` are interpreted relative to a context: inside an
    :class:`~repro.egraph.egraph.EGraph` they are e-class ids, inside a
    :class:`RecExpr` they are indices of earlier entries in the expression.

    Immutable.  The hash is computed once, at construction, and is exactly
    ``hash((op, children))`` -- the value a frozen dataclass would give, so
    set and dict iteration orders do not depend on the caching.  It is not
    part of the pickled state: str hashes are salted per process, so an
    e-node unpickled in another process hashes afresh.
    """

    __slots__ = ("op", "children", "_hash")

    op: str
    children: Tuple[int, ...]

    def __init__(self, op: str, children: Tuple[int, ...] = ()) -> None:
        _set = object.__setattr__
        _set(self, "op", op)
        _set(self, "children", children)
        _set(self, "_hash", hash((op, children)))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"ENode is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"ENode is immutable: cannot delete {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not ENode:
            return NotImplemented
        return self.op == other.op and self.children == other.children

    def __reduce__(self):
        return (ENode, (self.op, self.children))

    def __repr__(self) -> str:
        return f"ENode(op={self.op!r}, children={self.children!r})"

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if not self.children:
            return self.op
        return f"({self.op} {' '.join(str(c) for c in self.children)})"

    @property
    def arity(self) -> int:
        return len(self.children)

    def is_leaf(self) -> bool:
        return not self.children

    def map_children(self, fn: Callable[[int], int]) -> "ENode":
        """Return a copy of this e-node with every child id mapped by ``fn``."""
        if not self.children:
            return self
        return ENode(self.op, tuple(fn(c) for c in self.children))

    def matches_signature(self, op: str, arity: int) -> bool:
        return self.op == op and len(self.children) == arity


@dataclass
class RecExpr:
    """A term stored as a post-order array of e-nodes.

    ``nodes[i].children`` index into ``nodes[:i]``; the last node is the root.
    This mirrors ``egg``'s ``RecExpr`` and makes structural sharing explicit:
    a DAG (e.g. a tensor graph where one tensor feeds several operators) is
    stored with each shared sub-term appearing once.
    """

    nodes: List[ENode] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[ENode]:
        return iter(self.nodes)

    @property
    def root(self) -> int:
        if not self.nodes:
            raise ValueError("empty RecExpr has no root")
        return len(self.nodes) - 1

    def add(self, node: ENode) -> int:
        """Append ``node`` (children must reference existing indices)."""
        for child in node.children:
            if not 0 <= child < len(self.nodes):
                raise ValueError(f"child index {child} out of range for RecExpr of size {len(self.nodes)}")
        self.nodes.append(node)
        return len(self.nodes) - 1

    def add_unique(self, node: ENode, memo: Dict[ENode, int]) -> int:
        """Append ``node`` unless an identical node exists in ``memo``."""
        existing = memo.get(node)
        if existing is not None:
            return existing
        idx = self.add(node)
        memo[node] = idx
        return idx

    # ------------------------------------------------------------------ #
    # Conversion to / from S-expressions
    # ------------------------------------------------------------------ #

    @classmethod
    def from_sexpr(cls, expr: sx.SExpr) -> "RecExpr":
        """Build a :class:`RecExpr` from a parsed S-expression.

        Identical subtrees are hash-consed into a single entry so that
        textual sharing round-trips into structural sharing.
        """
        rec = cls()
        memo: Dict[ENode, int] = {}

        def go(e: sx.SExpr) -> int:
            if isinstance(e, str):
                return rec.add_unique(ENode(e), memo)
            if not e:
                raise ValueError("empty list in S-expression")
            head = e[0]
            if not isinstance(head, str):
                raise ValueError(f"operator must be an atom, got {head!r}")
            children = tuple(go(child) for child in e[1:])
            return rec.add_unique(ENode(head, children), memo)

        go(expr)
        return rec

    @classmethod
    def parse(cls, text: str) -> "RecExpr":
        """Parse an S-expression string directly into a :class:`RecExpr`."""
        return cls.from_sexpr(sx.parse(text))

    def to_sexpr(self, index: Optional[int] = None) -> sx.SExpr:
        """Convert the sub-term rooted at ``index`` (default: root) to an S-expression."""
        if index is None:
            index = self.root

        def go(i: int) -> sx.SExpr:
            node = self.nodes[i]
            if node.is_leaf():
                return node.op
            return [node.op] + [go(c) for c in node.children]

        return go(index)

    def __str__(self) -> str:
        return sx.to_string(self.to_sexpr())

    # ------------------------------------------------------------------ #
    # Structural helpers
    # ------------------------------------------------------------------ #

    def subterm_size(self, index: Optional[int] = None) -> int:
        """Number of distinct nodes reachable from ``index`` (default root)."""
        if index is None:
            index = self.root
        seen = set()

        def go(i: int) -> None:
            if i in seen:
                return
            seen.add(i)
            for c in self.nodes[i].children:
                go(c)

        go(index)
        return len(seen)

    def ops(self) -> List[str]:
        """Operator names in storage order."""
        return [n.op for n in self.nodes]

    def map_values(self, fn: Callable[[ENode, Sequence[object]], object]) -> object:
        """Bottom-up fold over the expression, returning the root value.

        ``fn`` receives each e-node and the already-computed values of its
        children; results are memoised per node index (so shared sub-terms
        are folded exactly once).
        """
        values: List[object] = []
        for node in self.nodes:
            child_values = [values[c] for c in node.children]
            values.append(fn(node, child_values))
        return values[self.root]
