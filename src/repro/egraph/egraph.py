"""The e-graph data structure.

An e-graph is a union-find over e-class ids, a hash-cons mapping canonical
e-nodes to the e-class containing them, and per-e-class node lists / parent
lists / analysis data.  The implementation follows ``egg``'s deferred
*rebuilding* design: unions only record work in a dirty list and
:meth:`EGraph.rebuild` restores the congruence invariant in a batch, which is
what makes equality saturation iterations cheap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.egraph.analysis import Analysis, NoAnalysis
from repro.egraph.language import ENode, RecExpr
from repro.egraph.unionfind import UnionFind

__all__ = ["EClass", "EGraph"]


@dataclass
class EClass:
    """A single equivalence class of e-nodes."""

    id: int
    nodes: List[ENode] = field(default_factory=list)
    # (parent enode as stored at insertion time, e-class the parent lives in)
    parents: List[Tuple[ENode, int]] = field(default_factory=list)
    data: Any = None

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)


class EGraph:
    """E-graph with hash-consing, deferred rebuilding, and e-class analyses.

    Parameters
    ----------
    analysis:
        The e-class analysis to maintain.  Defaults to :class:`NoAnalysis`.
    """

    def __init__(self, analysis: Optional[Analysis] = None) -> None:
        self.analysis: Analysis = analysis if analysis is not None else NoAnalysis()
        self._uf = UnionFind()
        # find(eclass_id) -> canonical id of its e-class.  The union-find's
        # own method, bound once: the hottest call of a saturation run costs
        # one Python frame, not a wrapper's two.
        self.find: Callable[[int], int] = self._uf.find
        # Its parent list, read by canonicalize() to spot all-root children.
        self._parent = self._uf._parent
        self._classes: Dict[int, EClass] = {}
        self._memo: Dict[ENode, int] = {}
        self._pending: List[int] = []  # e-classes whose parents need re-canonicalising
        self._analysis_pending: List[int] = []
        # Monotonically increasing insertion stamp for each distinct e-node.
        self._node_birth: Dict[ENode, int] = {}
        self._birth_counter = itertools.count()
        self._n_unions = 0
        # Exact e-node count, maintained through add / union / repair dedup so
        # num_enodes is O(1) instead of summing every class (it is consulted
        # several times per iteration plus once per applied plan entry).
        self._n_enodes = 0
        # op -> e-class ids (possibly stale; canonicalised lazily on access).
        # Nodes are never removed from a class, so entries only need find().
        self._op_classes: Dict[str, Set[int]] = {}
        # E-classes touched (created or merged into) since the last take_dirty();
        # the compiled matcher seeds incremental searches from this set.
        self._dirty: Set[int] = set()
        # Unions queued by union_deferred(); applied by flush_deferred_unions().
        self._deferred_unions: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        """Total number of e-nodes across all e-classes (O(1), maintained counter)."""
        return self._n_enodes

    @property
    def num_eclasses(self) -> int:
        return len(self._classes)

    @property
    def num_enodes(self) -> int:
        return len(self)

    @property
    def num_unions(self) -> int:
        return self._n_unions

    def classes(self) -> Iterable[EClass]:
        """Iterate over the canonical e-classes."""
        return self._classes.values()

    def eclass_ids(self) -> List[int]:
        return list(self._classes.keys())

    def __getitem__(self, eclass_id: int) -> EClass:
        return self._classes[self.find(eclass_id)]

    def analysis_data(self, eclass_id: int) -> Any:
        return self._classes[self.find(eclass_id)].data

    def node_birth(self, enode: ENode) -> int:
        """Insertion stamp of ``enode`` (used by cycle filtering to find the newest node)."""
        return self._node_birth.get(self.canonicalize(enode), -1)

    # ------------------------------------------------------------------ #
    # Building
    # ------------------------------------------------------------------ #

    def canonicalize(self, enode: ENode) -> ENode:
        """Return ``enode`` with all children replaced by canonical e-class ids.

        Returns ``enode`` itself when it is already canonical (the common
        case on a rebuilt e-graph), so hot callers -- repair, cycle DFS,
        filter-list membership -- skip the allocation.
        """
        children = enode.children
        if not children:
            return enode
        # Children that are their own parents are roots: one C-level map
        # decides the common case without calling find() per child.
        if tuple(map(self._parent.__getitem__, children)) == children:
            return enode
        return ENode(enode.op, tuple(map(self.find, children)))

    def lookup(self, enode: ENode) -> Optional[int]:
        """Return the e-class of ``enode`` if it is already present."""
        canonical = self.canonicalize(enode)
        found = self._memo.get(canonical)
        return None if found is None else self.find(found)

    def add(self, enode: ENode) -> int:
        """Add ``enode``; return the id of its e-class (existing or new)."""
        canonical = self.canonicalize(enode)
        existing = self._memo.get(canonical)
        if existing is not None:
            return self.find(existing)

        eclass_id = self._uf.make_set()
        eclass = EClass(id=eclass_id, nodes=[canonical])
        self._classes[eclass_id] = eclass
        self._memo[canonical] = eclass_id
        self._node_birth[canonical] = next(self._birth_counter)
        self._n_enodes += 1
        self._op_classes.setdefault(canonical.op, set()).add(eclass_id)
        self._dirty.add(eclass_id)
        for child in set(canonical.children):
            self._classes[self.find(child)].parents.append((canonical, eclass_id))

        eclass.data = self.analysis.make(self, canonical)
        self.analysis.modify(self, eclass_id)
        return self.find(eclass_id)

    def add_expr(self, expr: RecExpr, index: Optional[int] = None) -> int:
        """Add every node of ``expr`` and return the e-class of its root (or ``index``)."""
        if index is None:
            index = expr.root
        ids: List[int] = []
        for node in expr.nodes:
            ids.append(self.add(node.map_children(lambda c: ids[c])))
        return self.find(ids[index])

    def add_term(self, text_or_sexpr) -> int:
        """Convenience: parse an S-expression (or accept a RecExpr) and add it."""
        if isinstance(text_or_sexpr, RecExpr):
            return self.add_expr(text_or_sexpr)
        if isinstance(text_or_sexpr, str):
            return self.add_expr(RecExpr.parse(text_or_sexpr))
        return self.add_expr(RecExpr.from_sexpr(text_or_sexpr))

    def union(self, a: int, b: int) -> int:
        """Assert that e-classes ``a`` and ``b`` are equivalent."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra

        self._n_unions += 1
        new_root = self._uf.union(ra, rb)
        other = rb if new_root == ra else ra

        winner = self._classes[new_root]
        loser = self._classes.pop(other)

        winner.nodes.extend(loser.nodes)
        winner.parents.extend(loser.parents)

        loser_data = loser.data
        merged, changed = self.analysis.merge(winner.data, loser_data)
        winner.data = merged
        self._dirty.add(new_root)
        self._pending.append(new_root)
        # Queue analysis repair when the merged data differs from *either*
        # side's previous data: ``changed`` reports only the winner's side,
        # but the loser's parents computed their data from the loser's old
        # value, so a merge that leaves the winner untouched while replacing
        # the loser's data (e.g. valid absorbing invalid, or a side with
        # extra split records) must re-make the parents too -- otherwise
        # they keep stale facts forever.
        if changed or merged != loser_data:
            self._analysis_pending.append(new_root)
        self.analysis.modify(self, new_root)
        return new_root

    # ------------------------------------------------------------------ #
    # Deferred unions (batched apply support)
    # ------------------------------------------------------------------ #

    def union_deferred(self, a: int, b: int) -> None:
        """Queue ``union(a, b)`` without performing it.

        The apply phase of the saturation pipeline adds every planned RHS
        against a *frozen* union-find and queues the equivalences here;
        :meth:`flush_deferred_unions` applies them in one batch ahead of the
        phase's single :meth:`rebuild`.
        """
        self._deferred_unions.append((a, b))

    @property
    def num_deferred_unions(self) -> int:
        return len(self._deferred_unions)

    def flush_deferred_unions(self) -> int:
        """Apply all queued unions; returns the number that merged distinct classes."""
        pending, self._deferred_unions = self._deferred_unions, []
        before = self._n_unions
        for a, b in pending:
            self.union(a, b)
        return self._n_unions - before

    # ------------------------------------------------------------------ #
    # Rebuilding (congruence closure restoration)
    # ------------------------------------------------------------------ #

    def rebuild(self) -> int:
        """Restore the congruence and hash-cons invariants after unions.

        Each wave dedupes the pending worklist under :meth:`find` up front
        and repairs the whole batch at once: structural congruence first
        (:meth:`_repair_classes`), then one batched analysis wave
        (:meth:`_repair_analysis_classes`) that re-makes the parents of every
        class whose data changed.  Waves repeat until no repair queues
        further work, so the analysis data reaches its make/merge fixpoint
        before rebuild returns.

        Analysis hooks may re-enter the e-graph mid-wave:
        :meth:`~repro.egraph.analysis.Analysis.modify` is allowed to call
        :meth:`add` / :meth:`union` during repair (constant folding does).
        Work queued by such reentrant calls lands on the live worklists and
        is drained by a later wave of the same ``while`` loop -- classes
        created mid-wave are therefore repaired before rebuild returns (a
        contract pinned by the analysis regression tests).

        Returns the number of additional unions performed.
        """
        n_before = self._n_unions
        while self._pending or self._analysis_pending:
            todo = sorted({self.find(e) for e in self._pending})
            self._pending.clear()
            if todo:
                self._repair_classes(todo)

            analysis_todo = sorted({self.find(e) for e in self._analysis_pending})
            self._analysis_pending.clear()
            if analysis_todo:
                self._repair_analysis_classes(analysis_todo)
        return self._n_unions - n_before

    def _repair(self, eclass_id: int) -> None:
        self._repair_classes([eclass_id])

    def _repair_classes(self, todo: Sequence[int]) -> None:
        """Batched parent re-canonicalisation for one rebuild wave.

        Every pending class's parent list is taken (cleared in place), the
        entries are bucketed by parent operator, and each bucket is repaired
        with one bucket-local table: congruent duplicates -- which always
        share an op -- are found across *all* classes of the wave with a
        single associative probe, where the per-class loop paid a per-class
        dict probe plus a hash-cons probe per entry.  Unions discovered here
        re-queue the merged class, so entries appended to a live parent list
        mid-wave (by ``union`` moving the loser's parents across) are
        repaired by the next wave.
        """
        # (origin class, parent node, parent class) per parent op, in
        # (todo order, parent-list order); bucket order is op first-appearance.
        buckets: Dict[str, List[Tuple[int, ENode, int]]] = {}
        new_parents: Dict[int, Dict[ENode, int]] = {}
        for eclass_id in todo:
            eclass = self._classes.get(self.find(eclass_id))
            new_parents[eclass_id] = {}
            if eclass is None:
                continue
            taken, eclass.parents = eclass.parents, []
            for parent_node, parent_class in taken:
                buckets.setdefault(parent_node.op, []).append((eclass_id, parent_node, parent_class))

        for entries in buckets.values():
            # canonical parent -> e-class, shared across the wave: the first
            # occurrence wins, later congruent occurrences union into it.
            canon: Dict[ENode, int] = {}
            for origin, parent_node, parent_class in entries:
                self._memo.pop(parent_node, None)
                canonical = self.canonicalize(parent_node)
                parent_class = self.find(parent_class)
                previous = canon.get(canonical)
                if previous is not None:
                    parent_class = self.union(previous, parent_class)
                existing = self._memo.get(canonical)
                if existing is not None and self.find(existing) != parent_class:
                    parent_class = self.union(existing, parent_class)
                self._memo[canonical] = parent_class
                if canonical not in self._node_birth:
                    # Inherit the original node's stamp; minting a fresh one
                    # here would make birth order depend on rebuild order.
                    stamp = self._node_birth.get(parent_node)
                    self._node_birth[canonical] = next(self._birth_counter) if stamp is None else stamp
                parent_class = self.find(parent_class)
                canon[canonical] = parent_class
                new_parents[origin][canonical] = parent_class

        # Rewrite each affected class's parent list.  Classes merged during
        # the wave combine their repaired entries; raw entries appended to the
        # live list by mid-wave unions are kept (their class is re-queued, so
        # the next wave canonicalises them).
        by_root: Dict[int, List[int]] = {}
        for eclass_id in todo:
            by_root.setdefault(self.find(eclass_id), []).append(eclass_id)
        for root, origin_ids in by_root.items():
            eclass = self._classes.get(root)
            if eclass is None:
                continue
            merged: Dict[ENode, int] = {}
            for origin in origin_ids:
                for node, cls in new_parents[origin].items():
                    merged[node] = self.find(cls)
            appended = eclass.parents
            eclass.parents = list(merged.items())
            if appended:
                eclass.parents.extend(appended)
            # Deduplicate the e-nodes within the class under canonicalisation.
            deduped: Dict[ENode, None] = {}
            for node in eclass.nodes:
                deduped.setdefault(self.canonicalize(node), None)
            if len(deduped) != len(eclass.nodes):
                self._n_enodes -= len(eclass.nodes) - len(deduped)
            eclass.nodes = list(deduped.keys())

    def _repair_analysis(self, eclass_id: int) -> None:
        self._repair_analysis_classes([eclass_id])

    def _repair_analysis_classes(self, todo: Sequence[int]) -> None:
        """Batched analysis repair for one rebuild wave.

        The parent entries of every class in ``todo`` are gathered up front
        and deduplicated on ``(canonical parent node, parent class)``: a
        parent whose several children all changed data this wave appears in
        several parent lists, but its ``make`` runs once.  Entries are then
        re-made in gather order -- re-canonicalised at use time, because a
        reentrant ``modify`` hook (e.g. constant folding calling
        ``add``/``union``) may merge classes mid-wave.  Changes queue the
        parent for the next wave, exactly like structural repair.
        """
        entries: List[Tuple[ENode, int]] = []
        seen: Set[Tuple[ENode, int]] = set()
        for eclass_id in todo:
            eclass = self._classes.get(self.find(eclass_id))
            if eclass is None:
                continue
            for parent_node, parent_class in list(eclass.parents):
                canonical = self.canonicalize(parent_node)
                entry = (canonical, self.find(parent_class))
                if entry in seen:
                    continue
                seen.add(entry)
                entries.append(entry)

        for parent_node, parent_class in entries:
            parent_class = self.find(parent_class)
            parent = self._classes.get(parent_class)
            if parent is None:
                continue
            new_data = self.analysis.make(self, self.canonicalize(parent_node))
            merged, changed = self.analysis.merge(parent.data, new_data)
            if changed:
                parent.data = merged
                self._analysis_pending.append(parent_class)
                self.analysis.modify(self, parent_class)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def is_clean(self) -> bool:
        """True when no rebuilding work is pending."""
        return not self._pending and not self._analysis_pending

    def equivalent(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def enodes(self) -> Iterable[Tuple[int, ENode]]:
        """Iterate ``(eclass_id, enode)`` over all canonical e-nodes."""
        for eclass in self._classes.values():
            for node in eclass.nodes:
                yield eclass.id, node

    def nodes_by_op(self) -> Dict[str, List[Tuple[int, ENode]]]:
        """Group canonical e-nodes by operator (used by e-matching)."""
        table: Dict[str, List[Tuple[int, ENode]]] = {}
        for op in self._op_classes:
            entries = [
                (eclass_id, node)
                for eclass_id in sorted(self.classes_with_op(op))
                for node in self._classes[eclass_id].nodes
                if node.op == op
            ]
            if entries:
                table[op] = entries
        return table

    def classes_with_op(self, op: str) -> Set[int]:
        """Canonical ids of the e-classes containing at least one ``op`` e-node.

        Served from an index maintained by :meth:`add`; merged-away ids are
        canonicalised (and compacted back into the index) on access, so this
        never scans the whole e-graph.
        """
        ids = self._op_classes.get(op)
        if not ids:
            return set()
        canonical = {self.find(c) for c in ids}
        if len(canonical) != len(ids):
            self._op_classes[op] = set(canonical)
        return canonical

    # ------------------------------------------------------------------ #
    # Dirty tracking (incremental e-matching support)
    # ------------------------------------------------------------------ #

    def dirty_classes(self) -> Set[int]:
        """Canonical e-classes touched since the last :meth:`take_dirty`."""
        return {self.find(c) for c in self._dirty}

    def take_dirty(self) -> Set[int]:
        """Return the dirty set and reset it (one exploration iteration's delta)."""
        dirty = self.dirty_classes()
        self._dirty.clear()
        return dirty

    def represents(self, eclass_id: int, expr: RecExpr, index: Optional[int] = None) -> bool:
        """Check whether ``expr`` is represented by e-class ``eclass_id``."""
        if index is None:
            index = expr.root

        def go(i: int, cls: int) -> bool:
            cls = self.find(cls)
            target = expr.nodes[i]
            for node in self._classes[cls].nodes:
                if node.op == target.op and len(node.children) == len(target.children):
                    if all(go(ci, cc) for ci, cc in zip(target.children, node.children)):
                        return True
            return False

        return go(index, eclass_id)

    def extract_any(self, eclass_id: int) -> RecExpr:
        """Extract *some* represented term (smallest by node count, greedy)."""
        from repro.egraph.extraction.greedy import GreedyExtractor

        extractor = GreedyExtractor(node_cost=lambda enode, egraph: 1.0)
        return extractor.extract(self, eclass_id).expr

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def to_dot(self) -> str:
        """Render the e-graph in Graphviz dot format (for debugging/docs)."""
        lines = ["digraph egraph {", "  compound=true;", "  node [shape=record];"]
        for eclass in self._classes.values():
            lines.append(f"  subgraph cluster_{eclass.id} {{")
            lines.append(f'    label="e-class {eclass.id}";')
            for i, node in enumerate(eclass.nodes):
                label = node.op.replace('"', '\\"')
                lines.append(f'    n{eclass.id}_{i} [label="{label}"];')
            lines.append("  }")
        for eclass in self._classes.values():
            for i, node in enumerate(eclass.nodes):
                for child in node.children:
                    child = self.find(child)
                    lines.append(f"  n{eclass.id}_{i} -> n{child}_0 [lhead=cluster_{child}];")
        lines.append("}")
        return "\n".join(lines)

    def summary(self) -> Dict[str, int]:
        return {
            "eclasses": self.num_eclasses,
            "enodes": self.num_enodes,
            "unions": self.num_unions,
        }
