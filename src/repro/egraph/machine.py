"""Compiled e-matching virtual machine.

An interpretive matcher re-walks the pattern tree on every search,
recursing through Python generators (the test oracle
``tests/oracles/naive_match.py`` does exactly that).  This module follows
egg's design instead: each :class:`~repro.egraph.pattern.Pattern` is
*compiled once* into a flat program of four instructions executed over an
explicit register list (e-class ids), with backtracking driven by an explicit
choice-point stack rather than recursion.

Instruction set
---------------

``Bind(op, arity, in_reg, out_reg)``
    Branch over every e-node with operator ``op`` / arity ``arity`` in the
    e-class held in ``regs[in_reg]``; for each, write its (canonicalised)
    child e-classes into ``regs[out_reg:out_reg + arity]``.  This is the only
    branching instruction, so it is the only place a choice point is pushed.

``Compare(reg_a, reg_b)``
    Fail unless both registers hold the same canonical e-class (a repeated
    pattern variable).

``Lookup(steps, reg)``
    Fail unless the e-class in ``regs[reg]`` represents the ground sub-term
    described by ``steps`` (a bottom-up tuple of ``(op, child_slots)``).  On a
    clean e-graph this is a pure hash-cons lookup; on a dirty one (mid
    iteration, unions pending) it degrades to a membership descent, which is
    what an interpretive matcher effectively does.

``Yield(names, regs)``
    Emit the substitution ``{name: regs[r]}`` and backtrack to enumerate the
    next match.

Incremental (delta) search
--------------------------

:class:`TrieMatcher` caches each pattern's match set per e-graph and, for
e-classes reported dirty since the previous search, re-searches only the
*delta closure*: the dirty classes plus their ancestors within ``depth``
parent hops, where ``depth`` is the patterns' operator depth.  Because
e-graphs grow monotonically, old matches never disappear (they only
canonicalise), so ``cached ∪ re-search(closure)`` equals a full search; see
``docs/ematching.md`` for the argument.

Shared-prefix rule trie
-----------------------

:func:`build_rule_trie` merges the compiled programs of many patterns into
one trie per root operator: programs whose instruction prefixes coincide
(compilation is deterministic, so structurally identical pattern prefixes
compile identically) share the corresponding ``Bind``/``Compare``/
``Lookup`` work, and ``Yield`` leaves carry rule ids.  One traversal of each
op-index bucket then produces ``(rule_id, match)`` pairs for every pattern at
once, replacing R independent VM sweeps.  :class:`TrieMatcher` keeps the
per-rule caches and merges them with a re-search of each bucket's delta
closure.

The trie is agnostic to what a pattern *is for*: the saturation runner admits
every single-pattern rule's LHS and every unique canonical multi-pattern
source pattern (``docs/multipattern.md``) into the same trie, so the heavy
multi-pattern rules ride the same one-traversal-per-bucket sweep as the
single-pattern ones.
"""

from __future__ import annotations

import weakref
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.egraph.egraph import EGraph
from repro.egraph.language import ENode
from repro.egraph.pattern import Pattern, PatternNode, PatternVar, ground_steps, is_ground_term

__all__ = [
    "Program",
    "compile_pattern",
    "vm_search_pattern",
    "vm_search_eclass",
    "delta_closure",
    "match_sort_key",
    "RuleTrie",
    "build_rule_trie",
    "TrieMatcher",
]

# Opcodes (tuples keep the program flat and cheap to execute).
BIND, COMPARE, LOOKUP, YIELD = range(4)

#: Ground sub-terms with at least this many operator nodes are compiled to a
#: single Lookup instead of a chain of Binds.
_LOOKUP_MIN_NODES = 2


@dataclass(frozen=True)
class Program:
    """A compiled pattern: a flat instruction tuple plus metadata."""

    insts: Tuple[tuple, ...]
    n_regs: int
    #: Operator depth of the pattern (variables contribute 0).  The matcher
    #: observes class identities up to ``depth`` edges below a match root, so
    #: a new match can appear up to ``depth`` parent hops above a dirty class.
    depth: int
    #: Root operator, or ``None`` for the degenerate variable-root pattern.
    root_op: Optional[str]

    def __len__(self) -> int:
        return len(self.insts)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        names = {BIND: "Bind", COMPARE: "Compare", LOOKUP: "Lookup", YIELD: "Yield"}
        return "\n".join(f"{i:3d}  {names[inst[0]]}{inst[1:]}" for i, inst in enumerate(self.insts))


# Weak keys: programs live as long as some rule (or caller) holds the
# pattern, so dynamically-built patterns don't pin compiled programs forever.
_PROGRAM_CACHE: "weakref.WeakKeyDictionary[Pattern, Program]" = weakref.WeakKeyDictionary()


def _ground_size(term: PatternNode) -> int:
    return 1 + sum(_ground_size(c) for c in term.children)


def compile_pattern(pattern: Pattern) -> Program:
    """Compile ``pattern`` into a :class:`Program` (cached per pattern)."""
    cached = _PROGRAM_CACHE.get(pattern)
    if cached is not None:
        return cached

    insts: List[tuple] = []
    var_regs: Dict[str, int] = {}
    next_reg = 1
    todo: deque = deque([(0, pattern.root)])
    while todo:
        reg, term = todo.popleft()
        if isinstance(term, PatternVar):
            first = var_regs.get(term.name)
            if first is None:
                var_regs[term.name] = reg
            else:
                insts.append((COMPARE, reg, first))
        elif is_ground_term(term) and _ground_size(term) >= _LOOKUP_MIN_NODES:
            insts.append((LOOKUP, ground_steps(term), reg))
        else:
            out = next_reg
            next_reg += len(term.children)
            insts.append((BIND, term.op, len(term.children), reg, out))
            for i, child in enumerate(term.children):
                todo.append((out + i, child))

    order = pattern.variables()
    insts.append((YIELD, tuple(order), tuple(var_regs[name] for name in order)))

    root = pattern.root
    program = Program(
        insts=tuple(insts),
        n_regs=next_reg,
        depth=pattern.depth(),
        root_op=None if isinstance(root, PatternVar) else root.op,
    )
    _PROGRAM_CACHE[pattern] = program
    return program


# --------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------- #


def _ground_lookup_ok(egraph: EGraph, steps, eclass_id: int) -> bool:
    """Does ``eclass_id`` represent the ground term encoded by ``steps``?"""
    if egraph.is_clean():
        # Hash-cons path: evaluate the term bottom-up through the memo.
        values: List[int] = []
        for op, slots in steps:
            found = egraph.lookup(ENode(op, tuple(values[s] for s in slots)))
            if found is None:
                return False
            values.append(found)
        return values[-1] == egraph.find(eclass_id)

    # Dirty graph: the memo may miss congruent-but-unmerged nodes, so fall
    # back to the same membership descent the interpretive matcher performs.
    memo: Dict[Tuple[int, int], bool] = {}

    def represented(step: int, cls: int) -> bool:
        cls = egraph.find(cls)
        key = (step, cls)
        hit = memo.get(key)
        if hit is not None:
            return hit
        memo[key] = False  # cycle guard; e-graphs can be cyclic
        op, slots = steps[step]
        ok = False
        for node in egraph[cls].nodes:
            if node.op == op and len(node.children) == len(slots):
                if all(represented(s, c) for s, c in zip(slots, node.children)):
                    ok = True
                    break
        memo[key] = ok
        return ok

    return represented(len(steps) - 1, eclass_id)


def _execute(egraph: EGraph, program: Program, root_class: int) -> Iterable[Dict[str, int]]:
    """Run ``program`` rooted at ``root_class``, yielding raw substitutions."""
    insts = program.insts
    n = len(insts)
    find = egraph.find
    regs: List[int] = [find(root_class)]
    # Choice points: [pc, saved_reg_len, node_iterator, op, arity]
    stack: List[list] = []
    pc = 0

    while True:
        advanced = True
        while pc < n:
            inst = insts[pc]
            code = inst[0]
            if code == BIND:
                stack.append([pc, len(regs), iter(egraph[regs[inst[3]]].nodes), inst[1], inst[2]])
                advanced = False
                break
            if code == COMPARE:
                if find(regs[inst[1]]) != find(regs[inst[2]]):
                    advanced = False
                    break
                pc += 1
            elif code == LOOKUP:
                if not _ground_lookup_ok(egraph, inst[1], regs[inst[2]]):
                    advanced = False
                    break
                pc += 1
            else:  # YIELD -- emit, then backtrack for the next match.
                yield {name: find(regs[r]) for name, r in zip(inst[1], inst[2])}
                advanced = False
                break

        if advanced:  # defensive: a program always ends in YIELD
            return  # pragma: no cover

        # Backtrack: advance the most recent choice point with work left.
        while stack:
            frame = stack[-1]
            fpc, reg_len, node_iter, op, arity = frame
            node = None
            for candidate in node_iter:
                if candidate.op == op and len(candidate.children) == arity:
                    node = candidate
                    break
            if node is None:
                stack.pop()
                continue
            del regs[reg_len:]
            regs.extend(find(c) for c in node.children)
            pc = fpc + 1
            break
        else:
            return


def match_sort_key(match) -> tuple:
    """Deterministic ordering for match lists (root class, then bindings)."""
    return (match.eclass, tuple(sorted(match.subst.items())))


def _collect_matches(egraph: EGraph, program: Program, eclass_id: int, out: list) -> None:
    from repro.egraph.ematch import Match  # local import: ematch imports us

    eclass_id = egraph.find(eclass_id)
    seen: Set[tuple] = set()
    for subst in _execute(egraph, program, eclass_id):
        key = tuple(sorted(subst.items()))
        if key in seen:
            continue
        seen.add(key)
        out.append(Match(eclass=eclass_id, subst=subst))


def vm_search_eclass(egraph: EGraph, pattern: Pattern, eclass_id: int):
    """All matches of ``pattern`` rooted at ``eclass_id`` (compiled path)."""
    matches: list = []
    _collect_matches(egraph, compile_pattern(pattern), eclass_id, matches)
    matches.sort(key=match_sort_key)
    return matches


def vm_search_classes(egraph: EGraph, program: Program, classes: Sequence[int]):
    matches: list = []
    for eclass_id in classes:
        _collect_matches(egraph, program, eclass_id, matches)
    matches.sort(key=match_sort_key)
    return matches


def vm_search_pattern(egraph: EGraph, pattern: Pattern):
    """All matches of ``pattern`` anywhere in the e-graph (compiled path)."""
    from repro.egraph.ematch import Match

    program = compile_pattern(pattern)
    if program.root_op is None:
        name = pattern.root.name  # type: ignore[union-attr]
        matches = [Match(eclass=c.id, subst={name: c.id}) for c in egraph.classes()]
        matches.sort(key=match_sort_key)
        return matches
    candidates = sorted(egraph.classes_with_op(program.root_op))
    return vm_search_classes(egraph, program, candidates)


# --------------------------------------------------------------------- #
# Incremental (delta) search
# --------------------------------------------------------------------- #


def delta_closure(egraph: EGraph, classes: Iterable[int], depth: int) -> Set[int]:
    """Dirty classes plus ancestors within ``depth`` parent hops.

    A pattern of operator depth ``d`` rooted at class ``X`` observes the
    *node sets* of classes up to ``d - 1`` edges below ``X`` and the
    *identities* of classes up to ``d`` edges below (the children bound by
    variables or ground leaves at the deepest level -- a union there can
    satisfy a ``Compare`` that previously failed).  A change ``d`` edges
    below ``X`` therefore creates new matches at ``X``, so the closure must
    climb ``d`` parent hops from every dirty class.
    """
    find = egraph.find
    frontier = {find(c) for c in classes}
    closure = set(frontier)
    for _ in range(max(0, depth)):
        nxt: Set[int] = set()
        for cls in frontier:
            for _node, parent_class in egraph[cls].parents:
                parent = find(parent_class)
                if parent not in closure:
                    closure.add(parent)
                    nxt.add(parent)
        if not nxt:
            break
        frontier = nxt
    return closure


# --------------------------------------------------------------------- #
# Shared-prefix rule trie
# --------------------------------------------------------------------- #


class _TrieNode:
    """One instruction in a combined rule program, plus its continuations."""

    __slots__ = ("inst", "children", "yields")

    def __init__(self, inst: tuple) -> None:
        self.inst = inst
        self.children: List["_TrieNode"] = []
        # Populated on Yield nodes only: (rule_id, names, registers).
        self.yields: List[Tuple[int, Tuple[str, ...], Tuple[int, ...]]] = []


@dataclass
class _TrieBucket:
    """All rule programs sharing one root operator, merged into a trie."""

    root_op: str
    children: List[_TrieNode] = field(default_factory=list)
    n_regs: int = 1
    #: Max operator depth across the bucket's patterns; the delta closure must
    #: climb this many parent hops (a superset per rule is sound: see docs).
    depth: int = 0
    rule_ids: List[int] = field(default_factory=list)
    n_insts: int = 0  # trie nodes after prefix sharing
    n_insts_unshared: int = 0  # sum of the per-rule program lengths


@dataclass
class RuleTrie:
    """Every rule's compiled program, bucketed by root op with shared prefixes."""

    n_rules: int
    buckets: Dict[str, _TrieBucket]
    #: Degenerate variable-root rules: (rule_id, variable name).  They match
    #: every e-class, so they are answered by a single scan, not the trie.
    var_rules: List[Tuple[int, str]]

    def sharing_stats(self) -> Dict[str, int]:
        """How many instructions prefix sharing eliminated."""
        shared = sum(b.n_insts for b in self.buckets.values())
        unshared = sum(b.n_insts_unshared for b in self.buckets.values())
        return {
            "buckets": len(self.buckets),
            "insts_unshared": unshared,
            "insts_shared": shared,
            "insts_saved": unshared - shared,
        }


def build_rule_trie(patterns: Sequence[Pattern]) -> RuleTrie:
    """Merge the compiled programs of ``patterns`` (indexed by rule id).

    Compilation is deterministic (breadth-first, registers allocated in
    instruction order), so two patterns with a common structural prefix
    compile to programs with an identical instruction prefix; the trie merges
    exactly those.  Register indices stay valid because every root-to-leaf
    path reproduces one rule's full program: allocation along the shared
    prefix is the same for all rules below it.
    """
    buckets: Dict[str, _TrieBucket] = {}
    var_rules: List[Tuple[int, str]] = []
    for rule_id, pattern in enumerate(patterns):
        program = compile_pattern(pattern)
        if program.root_op is None:
            var_rules.append((rule_id, pattern.root.name))  # type: ignore[union-attr]
            continue
        bucket = buckets.get(program.root_op)
        if bucket is None:
            bucket = buckets[program.root_op] = _TrieBucket(root_op=program.root_op)
        bucket.rule_ids.append(rule_id)
        bucket.n_regs = max(bucket.n_regs, program.n_regs)
        bucket.depth = max(bucket.depth, program.depth)
        bucket.n_insts_unshared += len(program.insts)

        children = bucket.children
        for inst in program.insts[:-1]:
            for child in children:
                if child.inst == inst:
                    node = child
                    break
            else:
                node = _TrieNode(inst)
                children.append(node)
                bucket.n_insts += 1
            children = node.children

        yield_inst = program.insts[-1]  # every program ends in Yield
        for child in children:
            if child.inst[0] == YIELD:
                ynode = child
                break
        else:
            ynode = _TrieNode((YIELD,))
            children.append(ynode)
            bucket.n_insts += 1
        ynode.yields.append((rule_id, yield_inst[1], yield_inst[2]))
    return RuleTrie(n_rules=len(patterns), buckets=buckets, var_rules=var_rules)


def _run_trie_class(egraph: EGraph, bucket: _TrieBucket, eclass_id: int, emit) -> None:
    """Run every program of ``bucket`` rooted at ``eclass_id`` in one traversal."""
    find = egraph.find
    regs: List[int] = [0] * bucket.n_regs
    regs[0] = find(eclass_id)

    def run(node: _TrieNode) -> None:
        inst = node.inst
        code = inst[0]
        if code == BIND:
            op, arity, in_reg, out = inst[1], inst[2], inst[3], inst[4]
            for enode in egraph[regs[in_reg]].nodes:
                if enode.op == op and len(enode.children) == arity:
                    for i, child_class in enumerate(enode.children):
                        regs[out + i] = find(child_class)
                    for child in node.children:
                        run(child)
        elif code == COMPARE:
            if find(regs[inst[1]]) == find(regs[inst[2]]):
                for child in node.children:
                    run(child)
        elif code == LOOKUP:
            if _ground_lookup_ok(egraph, inst[1], regs[inst[2]]):
                for child in node.children:
                    run(child)
        else:  # YIELD leaf: emit one substitution per rule ending here.
            for rule_id, names, rregs in node.yields:
                emit(rule_id, {name: find(regs[r]) for name, r in zip(names, rregs)})

    for child in bucket.children:
        run(child)


def trie_search_classes(
    egraph: EGraph, bucket: _TrieBucket, classes: Sequence[int], out: Dict[int, list]
) -> None:
    """Search ``classes`` with ``bucket``, appending matches into ``out[rule_id]``.

    Deduplication is per ``(rule, root class)``, mirroring the per-program
    collection in :func:`vm_search_classes`; callers sort each rule's list
    with :func:`match_sort_key` afterwards.
    """
    from repro.egraph.ematch import Match  # local import: ematch imports us

    for eclass_id in classes:
        root = egraph.find(eclass_id)
        seen: Set[tuple] = set()

        def emit(rule_id: int, subst: Dict[str, int], _root=root, _seen=seen) -> None:
            key = (rule_id, tuple(sorted(subst.items())))
            if key in _seen:
                return
            _seen.add(key)
            out[rule_id].append(Match(eclass=_root, subst=subst))

        _run_trie_class(egraph, bucket, root, emit)


class TrieMatcher:
    """Incremental matcher for many patterns at once (one trie per root op).

    The ``patterns`` sequence may mix single-pattern rule LHSs with canonical
    multi-pattern source patterns; results are returned per input index, so
    the caller decides which slices feed which consumer (the runner maps
    indices ``>= n_single`` back to canonical-pattern keys).

    ``search_all(egraph)`` walks each op bucket's trie over that op's
    candidate classes and returns one deterministically ordered match list
    per rule -- identical, rule for rule, to running each pattern's own
    program.  ``search_all(egraph, delta=...)`` re-searches only each
    bucket's delta closure and merges with the per-rule caches, with the
    closure walk and candidate scan paid once per bucket instead of once per
    rule.
    """

    def __init__(self, patterns: Sequence[Pattern]) -> None:
        self.patterns = list(patterns)
        self.trie = build_rule_trie(self.patterns)
        self._egraph_ref: Optional[weakref.ref] = None
        # None entries mark patterns whose maintenance was skipped (see
        # ``search_all``); a wholly-None cache means "never searched".
        self._cache: Optional[List[Optional[list]]] = None

    def reset(self) -> None:
        self._egraph_ref = None
        self._cache = None

    def fork(self) -> "TrieMatcher":
        """A matcher sharing this one's compiled trie but with fresh cache state.

        The patterns and trie are immutable after construction, so they are
        shared by reference; the per-e-graph incremental cache is private to
        each fork.  This is how ``optimize_many`` runs concurrent sessions
        under one compiled trie without their delta caches corrupting each
        other.
        """
        clone = TrieMatcher.__new__(TrieMatcher)
        clone.patterns = self.patterns
        clone.trie = self.trie
        clone._egraph_ref = None
        clone._cache = None
        return clone

    def _sweep(self, egraph: EGraph, op_candidates: Dict[str, List[int]]) -> Dict[int, list]:
        """Sweep the op buckets over their candidate lists.

        Returns ``rule_id -> unsorted match list`` with only the rule ids
        that produced matches.
        """
        out: Dict[int, list] = defaultdict(list)
        for op, candidates in op_candidates.items():
            trie_search_classes(egraph, self.trie.buckets[op], candidates, out)
        return out

    def _var_rule_matches(self, egraph: EGraph, name: str) -> list:
        from repro.egraph.ematch import Match

        matches = [Match(eclass=c.id, subst={name: c.id}) for c in egraph.classes()]
        matches.sort(key=match_sort_key)
        return matches

    def search_all(
        self,
        egraph: EGraph,
        delta: Optional[Set[int]] = None,
        skip: Iterable[int] = (),
    ) -> List[list]:
        """One match list per pattern index; ``skip`` suppresses maintenance.

        Indices in ``skip`` return ``[]`` and their caches are dropped rather
        than merged -- the runner passes the multi-pattern trie slots here
        once the ``k_multi`` window has closed, so their (potentially large)
        cached match lists are not re-canonicalised and re-sorted every
        remaining iteration for results nobody reads.  Skipping is cheap to
        undo but not free: a previously skipped index that is searched again
        has no trustworthy cache, so the next call falls back to a full
        search for every pattern.
        """
        if self._egraph_ref is None or self._egraph_ref() is not egraph:
            self._cache = None
            self._egraph_ref = weakref.ref(egraph)

        n = len(self.patterns)
        skipped = set(skip)
        if self._cache is not None and any(
            self._cache[i] is None for i in range(n) if i not in skipped
        ):
            # A formerly skipped pattern is active again; its cache is stale
            # beyond repair, so re-search everything.
            self._cache = None

        if delta is None or self._cache is None:
            op_candidates = {
                op: sorted(egraph.classes_with_op(op)) for op in self.trie.buckets
            }
            swept = self._sweep(egraph, op_candidates)
            per_rule: Dict[int, list] = {i: swept.get(i, []) for i in range(n)}
            for i in range(n):
                if i not in skipped:
                    per_rule[i].sort(key=match_sort_key)
            for rule_id, name in self.trie.var_rules:
                if rule_id not in skipped:
                    per_rule[rule_id] = self._var_rule_matches(egraph, name)
            self._cache = [
                None if i in skipped else per_rule[i] for i in range(n)
            ]
            return [[] if m is None else list(m) for m in self._cache]

        # Delta path: one closure walk per distinct bucket depth.
        closures: Dict[int, Set[int]] = {}
        op_candidates = {}
        for op, bucket in self.trie.buckets.items():
            closure = closures.get(bucket.depth)
            if closure is None:
                closure = closures[bucket.depth] = delta_closure(egraph, delta, bucket.depth)
            candidates = sorted(c for c in egraph.classes_with_op(op) if c in closure)
            if candidates:
                op_candidates[op] = candidates
        swept = self._sweep(egraph, op_candidates)
        fresh: Dict[int, list] = {i: swept.get(i, []) for i in range(n)}

        results: List[Optional[list]] = []
        for i in range(n):
            if i in skipped:
                results.append(None)
                continue
            merged: Dict[tuple, object] = {}
            for match in self._cache[i]:
                canon = match.canonical(egraph)
                merged[match_sort_key(canon)] = canon
            for match in fresh[i]:
                merged[match_sort_key(match)] = match
            results.append([merged[key] for key in sorted(merged)])
        for rule_id, name in self.trie.var_rules:
            if rule_id not in skipped:
                results[rule_id] = self._var_rule_matches(egraph, name)
        self._cache = results
        return [[] if m is None else list(m) for m in results]
