"""Patterns: terms with placeholder variables.

A pattern is the left- or right-hand side of a rewrite rule (paper Section
2.1).  Variables are written ``?name`` in the S-expression syntax, e.g.::

    (matmul ?act ?input1 ?input2)

Patterns support:

* parsing from S-expressions,
* instantiation under a substitution (variable -> e-class id), by a flat
  post-order program compiled once per pattern (:class:`RHSProgram`),
* canonicalization by variable renaming, used by the multi-pattern algorithm
  (paper Algorithm 1) to share e-matching work between rules whose source
  patterns differ only in variable names.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

from repro import sexpr as sx
from repro.egraph.language import ENode, RecExpr

__all__ = ["Pattern", "PatternNode", "PatternVar", "RHSProgram", "Substitution"]

Substitution = Dict[str, int]


@dataclass(frozen=True)
class PatternVar:
    """A placeholder variable; matches any e-class."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class PatternNode:
    """An operator applied to child pattern terms."""

    op: str
    children: Tuple["PatternTerm", ...] = ()

    def __str__(self) -> str:
        if not self.children:
            return self.op
        return f"({self.op} {' '.join(str(c) for c in self.children)})"


PatternTerm = Union[PatternVar, PatternNode]


@dataclass(frozen=True)
class Pattern:
    """A complete pattern with a root term."""

    root: PatternTerm

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def parse(cls, text: str) -> "Pattern":
        return cls.from_sexpr(sx.parse(text))

    @classmethod
    def from_sexpr(cls, expr: sx.SExpr) -> "Pattern":
        return cls(cls._term_from_sexpr(expr))

    @staticmethod
    def _term_from_sexpr(expr: sx.SExpr) -> PatternTerm:
        if isinstance(expr, str):
            if sx.is_variable(expr):
                return PatternVar(expr[1:])
            return PatternNode(expr)
        if not expr:
            raise ValueError("empty list in pattern")
        head = expr[0]
        if not isinstance(head, str) or sx.is_variable(head):
            raise ValueError(f"pattern operator must be a concrete atom, got {head!r}")
        children = tuple(Pattern._term_from_sexpr(e) for e in expr[1:])
        return PatternNode(head, children)

    def __str__(self) -> str:
        return str(self.root)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def variables(self) -> List[str]:
        """Variable names in order of first appearance."""
        seen: List[str] = []

        def go(term: PatternTerm) -> None:
            if isinstance(term, PatternVar):
                if term.name not in seen:
                    seen.append(term.name)
            else:
                for child in term.children:
                    go(child)

        go(self.root)
        return seen

    def size(self) -> int:
        """Number of operator nodes (variables not counted)."""

        def go(term: PatternTerm) -> int:
            if isinstance(term, PatternVar):
                return 0
            return 1 + sum(go(c) for c in term.children)

        return go(self.root)

    def is_ground(self) -> bool:
        return not self.variables()

    def depth(self) -> int:
        """Operator depth (variables contribute 0); bounds e-matching descent."""

        def go(term: PatternTerm) -> int:
            if isinstance(term, PatternVar):
                return 0
            return 1 + max((go(c) for c in term.children), default=0)

        return go(self.root)

    # ------------------------------------------------------------------ #
    # Compilation (e-matching programs for the rule trie)
    # ------------------------------------------------------------------ #

    def compile(self):
        """Compile to a flat e-matching :class:`~repro.egraph.machine.Program`.

        Programs are cached per pattern, so rules constructed once pay the
        compilation cost once, at :class:`~repro.egraph.rewrite.Rewrite` /
        ``RuleSet`` construction time.
        """
        from repro.egraph.machine import compile_pattern

        return compile_pattern(self)

    def ops(self) -> List[str]:
        result: List[str] = []

        def go(term: PatternTerm) -> None:
            if isinstance(term, PatternNode):
                result.append(term.op)
                for child in term.children:
                    go(child)

        go(self.root)
        return result

    # ------------------------------------------------------------------ #
    # Canonicalization (Algorithm 1, line 4)
    # ------------------------------------------------------------------ #

    def canonicalize(self) -> Tuple["Pattern", Dict[str, str]]:
        """Rename variables to ``?c0, ?c1, ...`` in order of first appearance.

        Returns ``(canonical_pattern, rename_map)`` where ``rename_map`` maps
        each canonical variable name back to the original variable name, so a
        match of the canonical pattern can be *decanonicalized*.
        """
        order = self.variables()
        to_canonical = {name: f"c{i}" for i, name in enumerate(order)}
        rename_map = {canonical: original for original, canonical in to_canonical.items()}

        def go(term: PatternTerm) -> PatternTerm:
            if isinstance(term, PatternVar):
                return PatternVar(to_canonical[term.name])
            return PatternNode(term.op, tuple(go(c) for c in term.children))

        return Pattern(go(self.root)), rename_map

    # ------------------------------------------------------------------ #
    # Instantiation
    # ------------------------------------------------------------------ #

    def instantiate(
        self,
        egraph,
        subst: Substitution,
        ground_memo: Optional[Dict[str, int]] = None,
    ) -> int:
        """Add this pattern to ``egraph`` under ``subst`` and return the root e-class.

        Runs the pattern's :class:`RHSProgram` (compiled once per pattern):
        the e-nodes are added in post-order, children left to right.

        ``ground_memo`` optionally caches the e-class of every maximal
        *ground* sub-term (no variables below it) across instantiations,
        keyed by its text.  A batched apply plan shares one memo for a whole
        apply phase -- ground sub-terms recur across matches and rules, and
        while unions are deferred the cached ids stay canonical -- turning
        repeated hash-cons descents into single dict hits.  (Hash-consing
        makes repeated adds no-ops anyway, so the memo never changes the
        resulting e-graph.)
        """
        return self.rhs_program.run(egraph, subst, ground_memo)

    @cached_property
    def rhs_program(self) -> "RHSProgram":
        """This pattern compiled for instantiation (built on first use)."""
        return RHSProgram.compile(self)

    def substituted_leaves(self, subst: Substitution) -> List[int]:
        """The e-class ids that this pattern's variables map to under ``subst``."""
        return [subst[name] for name in self.variables()]

    def to_recexpr(self, subst_terms: Optional[Dict[str, RecExpr]] = None) -> RecExpr:
        """Convert a ground pattern (or one with RecExpr bindings) to a RecExpr."""
        rec = RecExpr()
        memo: Dict[ENode, int] = {}

        def go(term: PatternTerm) -> int:
            if isinstance(term, PatternVar):
                if subst_terms is None or term.name not in subst_terms:
                    raise ValueError(f"unbound variable ?{term.name} in pattern")
                sub = subst_terms[term.name]
                ids: List[int] = []
                for node in sub.nodes:
                    ids.append(rec.add_unique(node.map_children(lambda c: ids[c]), memo))
                return ids[sub.root]
            children = tuple(go(c) for c in term.children)
            return rec.add_unique(ENode(term.op, children), memo)

        go(self.root)
        return rec


def is_ground_term(term: PatternTerm) -> bool:
    """True when no variable occurs in ``term``."""
    if isinstance(term, PatternVar):
        return False
    return all(is_ground_term(c) for c in term.children)


def ground_steps(term: PatternNode) -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
    """Flatten a ground term into bottom-up ``(op, child_slots)`` steps."""
    steps: List[Tuple[str, Tuple[int, ...]]] = []

    def go(t: PatternNode) -> int:
        slots = tuple(go(c) for c in t.children)
        steps.append((t.op, slots))
        return len(steps) - 1

    go(term)
    return tuple(steps)


class RHSProgram:
    """A pattern compiled for instantiation: a flat post-order list of steps.

    The model is egg's ``apply_pat``: no recursion and no per-call pattern
    hashing, just one walk over the steps with a buffer of e-class ids.  The
    buffer starts with the substitution's value of each variable (in
    first-appearance order); each step appends one id:

    * ``(None, op, slots)`` adds ``ENode(op, children)`` with the children
      read from the buffer at ``slots``;
    * ``(key, block, ())`` stands for a maximal ground sub-term: its e-class
      comes from the ground memo under ``key`` (the sub-term's text, built
      here once), or else from adding ``block`` -- the sub-term's own
      post-order ``(op, local slots)`` list.

    Steps follow the recursive instantiation's post-order (children left to
    right, parent last), so the e-nodes are added in the same order and get
    the same e-class ids and birth stamps.
    """

    __slots__ = ("variables", "steps", "result")

    def __init__(self, variables: Tuple[str, ...], steps: Tuple[tuple, ...], result: int) -> None:
        self.variables = variables
        self.steps = steps
        self.result = result

    @classmethod
    def compile(cls, pattern: Pattern) -> "RHSProgram":
        variables = tuple(pattern.variables())
        slot_of = {name: i for i, name in enumerate(variables)}
        steps: List[tuple] = []

        def emit(term: PatternTerm) -> int:
            if isinstance(term, PatternVar):
                return slot_of[term.name]
            if is_ground_term(term):
                steps.append((str(term), ground_steps(term), ()))
            else:
                slots = tuple(emit(c) for c in term.children)
                steps.append((None, term.op, slots))
            return len(variables) + len(steps) - 1

        result = emit(pattern.root)
        return cls(variables, tuple(steps), result)

    def run(self, egraph, subst: Substitution, ground_memo: Optional[Dict[str, int]] = None) -> int:
        """Add the pattern under ``subst``; return the root e-class."""
        try:
            buf = [subst[name] for name in self.variables]
        except KeyError as exc:
            raise KeyError(f"substitution missing variable ?{exc.args[0]}") from exc
        add = egraph.add
        read = buf.__getitem__
        for key, op, slots in self.steps:
            if key is None:
                buf.append(add(ENode(op, tuple(map(read, slots)))))
                continue
            eclass = None if ground_memo is None else ground_memo.get(key)
            if eclass is None:
                ids: List[int] = []
                for block_op, block_slots in op:
                    ids.append(add(ENode(block_op, tuple(map(ids.__getitem__, block_slots)))))
                eclass = ids[-1]
                if ground_memo is not None:
                    ground_memo[key] = eclass
            buf.append(eclass)
        return buf[self.result]
