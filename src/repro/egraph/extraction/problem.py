"""Construction of the extraction ILP (paper Section 5.1, constraints (1)-(5)).

The problem is built once as plain numpy/scipy-sparse data, so it can be
handed to :func:`scipy.optimize.milp` and so tests can inspect the
formulation directly (or solve it with another solver).

Two optional *problem-reduction* passes shrink the variable space before any
solver runs (see ``docs/extraction.md``):

* **dominated-node pruning** (``prune_dominated``): within one e-class, an
  e-node whose child-class set is a superset of another's and whose cost is no
  smaller can never appear in an optimal solution -- any selection using it
  can swap to the dominating node without demanding new e-classes or paying
  more.  Dominated nodes (and filter-list entries) are dropped entirely and
  reachability is recomputed over the survivors, so whole e-classes can fall
  out of the problem.
* **forced classes** (``collapse_singletons``): the e-classes every
  selection from the root must cover are computed as a least fixpoint over
  the candidates' child classes (:func:`_forced_classes`).  In each such
  class a single selectable candidate is fixed to 1 (``lower = upper = 1``),
  and several candidates get ``sum x = 1`` instead of ``sum x <= 1``.  A
  shared descendant then counts in full in the LP relaxation, not at its
  parents' largest fractional pick.

Both passes preserve the optimal objective value exactly (property-tested in
``tests/test_extraction_equivalence.py``); :class:`ReductionStats` records
what they removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import sparse

from repro.egraph.cycles import FilterList
from repro.egraph.egraph import EGraph
from repro.egraph.extraction.base import NodeCost
from repro.egraph.language import ENode

__all__ = [
    "ILPVariables",
    "ILPProblem",
    "ReductionStats",
    "build_extraction_problem",
]

#: Nodes whose cost reaches this threshold (shape-invalid operands) are forced
#: to x_i = 0, exactly like filter-list entries; this keeps the objective well
#: scaled for the MIP solver.
UNSELECTABLE_COST = 1e5


@dataclass
class ReductionStats:
    """What the problem-reduction passes removed (see module docstring)."""

    #: Candidate e-node variables before / after reduction.
    nodes_before: int = 0
    nodes_after: int = 0
    #: E-classes in the problem before / after reduction.
    classes_before: int = 0
    classes_after: int = 0
    #: Dominated e-nodes dropped (a subset of ``nodes_before - nodes_after``;
    #: the rest are filter-list entries and nodes orphaned by reachability).
    dominated_pruned: int = 0
    #: Variables fixed to 1: the one selectable candidate of a forced class.
    singletons_fixed: int = 0
    #: E-classes every selection must cover, the root included.
    classes_forced: int = 0

    @property
    def variable_ratio(self) -> float:
        """How many times smaller the e-node variable space became (>= 1.0)."""
        if self.nodes_after <= 0:
            return 1.0
        return self.nodes_before / self.nodes_after

    def as_dict(self) -> Dict[str, float]:
        return {
            "nodes_before": self.nodes_before,
            "nodes_after": self.nodes_after,
            "classes_before": self.classes_before,
            "classes_after": self.classes_after,
            "dominated_pruned": self.dominated_pruned,
            "singletons_fixed": self.singletons_fixed,
            "classes_forced": self.classes_forced,
            "variable_ratio": round(self.variable_ratio, 4),
        }


@dataclass
class ILPVariables:
    """Bookkeeping that maps ILP variables back to e-graph entities."""

    #: canonical e-class ids in a fixed order; ``t`` variables follow this order
    class_ids: List[int]
    #: per variable index: (class position in ``class_ids``, the e-node)
    nodes: List[Tuple[int, ENode]]
    #: index of the root e-class within ``class_ids``
    root_position: int

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_classes(self) -> int:
        return len(self.class_ids)


@dataclass
class ILPProblem:
    """A mixed 0/1 linear program ``min c@x  s.t.  A_ub@x <= b_ub, A_eq@x == b_eq``."""

    c: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray  # 1 = integer variable, 0 = continuous
    variables: ILPVariables
    with_cycle_constraints: bool
    integer_topo: bool
    #: Populated when a reduction pass ran; None for the raw formulation.
    reduction: Optional[ReductionStats] = None

    @property
    def num_variables(self) -> int:
        return len(self.c)


def _dominated_indices(
    class_indices: Sequence[int],
    child_sets: Sequence[Set[int]],
    costs: np.ndarray,
) -> Set[int]:
    """Indices (into the flat node list) dominated by a same-class sibling.

    ``a`` dominates ``b`` when children(a) is a subset of children(b) and
    cost(a) <= cost(b), with a strict edge somewhere (or, on an exact tie,
    the earlier index wins so duplicates collapse deterministically).
    """
    dominated: Set[int] = set()
    for pos_b, b in enumerate(class_indices):
        if b in dominated:
            continue
        for pos_a, a in enumerate(class_indices):
            if a == b or a in dominated:
                continue
            if not child_sets[a] <= child_sets[b]:
                continue
            if costs[a] > costs[b]:
                continue
            strictly_better = child_sets[a] != child_sets[b] or costs[a] < costs[b]
            if strictly_better or pos_a < pos_b:
                dominated.add(b)
                break
    return dominated


def _forced_classes(
    root: int,
    candidates: Sequence[Sequence[int]],
    node_children: Sequence[Sequence[int]],
) -> List[int]:
    """Class positions every selection covering ``root`` must cover.

    ``candidates[C]`` lists the selectable nodes of class position ``C`` and
    ``node_children[i]`` the child class positions of node ``i`` other than
    its own class.  The result is ``{root}`` plus the least fixpoint of

        must(C) = AND over n in C of  OR over k in children(n) of ({k} | must(k))

    taken at the root, with each ``must`` an int bitset over class
    positions.  Every step is sound for any integral solution of the
    covering rows, cyclic or not: a covered class picks some candidate, and
    that candidate's child classes are covered in turn.  On an acyclic
    candidate graph one children-first pass reaches the fixpoint; otherwise
    the pass repeats from the empty sets until nothing changes.
    """
    # Children-first order of the classes the root reaches through
    # selectable candidates; a back edge means the pass must iterate.
    state = [0] * len(candidates)  # 0 unvisited, 1 on the stack, 2 done
    order: List[int] = []
    acyclic = True
    state[root] = 1
    stack = [(root, iter([k for i in candidates[root] for k in node_children[i]]))]
    while stack:
        cls, pending = stack[-1]
        for k in pending:
            if state[k] == 0:
                state[k] = 1
                stack.append((k, iter([g for i in candidates[k] for g in node_children[i]])))
                break
            if state[k] == 1:
                acyclic = False
        else:
            stack.pop()
            state[cls] = 2
            order.append(cls)

    # closure[C] = {C} | must(C), starting from must = {} everywhere.
    closure = [1 << pos for pos in range(len(candidates))]
    changed = True
    while changed:
        changed = False
        for cls in order:
            # All bits set is the identity of the intersection; a class with
            # no selectable candidate forces nothing.
            required = -1 if candidates[cls] else 0
            for i in candidates[cls]:
                covered = 0
                for k in node_children[i]:
                    covered |= closure[k]
                required &= covered
                if not required:
                    break
            required |= 1 << cls
            if required != closure[cls]:
                closure[cls] = required
                changed = True
        changed = changed and not acyclic

    forced = closure[root]
    return [pos for pos in range(len(candidates)) if forced >> pos & 1]


def build_extraction_problem(
    egraph: EGraph,
    root: int,
    node_cost: NodeCost,
    with_cycle_constraints: bool = False,
    integer_topo: bool = False,
    filter_list: Optional[FilterList] = None,
    at_most_one_per_class: bool = True,
    prune_dominated: bool = False,
    collapse_singletons: bool = False,
) -> ILPProblem:
    """Build the extraction ILP.

    Variables are ``x_i`` (one binary per e-node) followed, when
    ``with_cycle_constraints`` is set, by ``t_m`` (one topological-order
    variable per e-class -- real in ``[0, 1]`` or integer in ``[0, M-1]``).

    Constraints (numbered as in the paper):

    2. exactly one e-node is picked in the root e-class;
    3. a picked e-node forces at least one pick in each child e-class;
    4. (optional) topological-order constraints that forbid cycles;
    5. bounds on the ``t`` variables.

    Nodes on the filter list (paper Section 5.2) get an explicit ``x_i = 0``
    via their upper bound (or are dropped entirely under ``prune_dominated``).

    ``at_most_one_per_class`` adds ``sum_{i in e_m} x_i <= 1`` rows for every
    e-class.  The paper's formulation omits them and relies on the fact that
    an optimal solution never selects two nodes from one class; adding them is
    a standard strengthening that does not change the optimum but tightens the
    LP relaxation considerably, which matters for the open-source MIP solver
    used here.

    ``prune_dominated`` / ``collapse_singletons`` run the optimum-preserving
    reduction passes described in the module docstring; the resulting
    :class:`ILPProblem` carries a :class:`ReductionStats` in ``reduction``.
    Under ``collapse_singletons`` the at-most-one row of each forced class
    with several candidates moves to ``a_eq`` as ``sum x = 1``, after the
    root's row, so the total row count stays the same.
    """
    root = egraph.find(root)
    filtered = filter_list.as_set(egraph) if filter_list is not None else frozenset()

    # Only e-classes reachable from the root through unfiltered e-nodes can
    # ever be selected, so restrict the problem to them.  This keeps the ILP
    # size proportional to the useful part of the e-graph.  Each reachable
    # class's nodes are canonicalized once here; canonical children are
    # canonical class ids.
    reachable: Dict[int, List[ENode]] = {}
    stack = [root]
    while stack:
        cid = stack.pop()
        if cid in reachable:
            continue
        canonical_nodes = reachable[cid] = [egraph.canonicalize(node) for node in egraph[cid].nodes]
        for canonical in canonical_nodes:
            if canonical in filtered:
                continue
            for child in canonical.children:
                if child not in reachable:
                    stack.append(child)

    class_ids = sorted(reachable)
    class_pos: Dict[int, int] = {cid: i for i, cid in enumerate(class_ids)}
    if root not in class_pos:
        raise ValueError(f"root e-class {root} not present in the e-graph")

    nodes: List[Tuple[int, ENode]] = []
    nodes_filtered: List[bool] = []
    node_class: List[int] = []  # canonical e-class id per flat node index
    class_node_indices: Dict[int, List[int]] = {cid: [] for cid in class_ids}
    seen_per_class: Dict[int, set] = {cid: set() for cid in class_ids}
    for eclass in egraph.classes():
        cid = egraph.find(eclass.id)
        if cid not in class_pos:
            continue
        for canonical in reachable[cid]:
            if canonical in seen_per_class[cid]:
                continue
            # E-nodes whose children fall outside the reachable set can only
            # occur through filtered children; they can never be selected.
            if any(ch not in class_pos for ch in canonical.children):
                continue
            seen_per_class[cid].add(canonical)
            idx = len(nodes)
            nodes.append((class_pos[cid], canonical))
            nodes_filtered.append(canonical in filtered)
            node_class.append(cid)
            class_node_indices[cid].append(idx)

    reduction: Optional[ReductionStats] = None
    if prune_dominated or collapse_singletons:
        reduction = ReductionStats(
            nodes_before=len(nodes),
            nodes_after=len(nodes),
            classes_before=len(class_ids),
            classes_after=len(class_ids),
        )

    # Each node is priced once; the objective below reuses these costs.
    raw_costs = np.array([node_cost(node, egraph) for _, node in nodes], dtype=float)
    # Each node's child classes, shared by pruning, the forced-class pass and
    # the covering rows.
    child_sets: List[Set[int]] = [set(node.children) for _, node in nodes]

    if prune_dominated:
        # Filter-list entries and shape-invalid nodes are forced to zero
        # anyway; under pruning they are simply dropped.
        dropped: Set[int] = {
            i for i in range(len(nodes)) if nodes_filtered[i] or raw_costs[i] >= UNSELECTABLE_COST
        }
        for cid in class_ids:
            selectable = [i for i in class_node_indices[cid] if i not in dropped]
            dominated = _dominated_indices(selectable, child_sets, raw_costs)
            reduction.dominated_pruned += len(dominated)
            dropped |= dominated
        # Pruning can orphan entire e-classes: recompute reachability over
        # the surviving nodes and drop everything the root no longer needs.
        survivors_by_class: Dict[int, List[int]] = {cid: [] for cid in class_ids}
        for i in range(len(nodes)):
            if i not in dropped:
                survivors_by_class[node_class[i]].append(i)
        still_reachable: Set[int] = set()
        stack = [root]
        while stack:
            cid = stack.pop()
            if cid in still_reachable:
                continue
            still_reachable.add(cid)
            for i in survivors_by_class[cid]:
                for ch in child_sets[i]:
                    if ch not in still_reachable:
                        stack.append(ch)

        keep = [
            i
            for i in range(len(nodes))
            if i not in dropped and node_class[i] in still_reachable
        ]
        class_ids = sorted(still_reachable)
        class_pos = {cid: i for i, cid in enumerate(class_ids)}
        old_nodes = nodes
        nodes = [(class_pos[node_class[i]], old_nodes[i][1]) for i in keep]
        raw_costs = raw_costs[keep]
        child_sets = [child_sets[i] for i in keep]
        nodes_filtered = [False] * len(nodes)
        node_class = [node_class[i] for i in keep]
        class_node_indices = {cid: [] for cid in class_ids}
        for new_idx, _ in enumerate(nodes):
            class_node_indices[node_class[new_idx]].append(new_idx)
        reduction.nodes_after = len(nodes)
        reduction.classes_after = len(class_ids)

    n_nodes = len(nodes)
    n_classes = len(class_ids)
    n_vars = n_nodes + (n_classes if with_cycle_constraints else 0)

    # Objective
    c = np.zeros(n_vars)
    c[:n_nodes] = raw_costs

    # Bounds and integrality
    lower = np.zeros(n_vars)
    upper = np.ones(n_vars)
    integrality = np.zeros(n_vars)
    integrality[:n_nodes] = 1
    for i, is_filtered in enumerate(nodes_filtered):
        if is_filtered or c[i] >= UNSELECTABLE_COST:
            upper[i] = 0.0
            c[i] = 0.0

    if with_cycle_constraints:
        if integer_topo:
            upper[n_nodes:] = max(n_classes - 1, 0)
            integrality[n_nodes:] = 1
        else:
            upper[n_nodes:] = 1.0

    # Classes (other than the root) whose at-most-one row becomes an equality.
    exactly_one: Set[int] = set()
    if collapse_singletons:
        candidates: List[List[int]] = [[] for _ in range(n_classes)]
        node_children: List[List[int]] = []
        for i, (cls_pos, _) in enumerate(nodes):
            node_children.append([class_pos[k] for k in child_sets[i] if class_pos[k] != cls_pos])
            if upper[i] > 0.5:
                candidates[cls_pos].append(i)
        forced = _forced_classes(class_pos[root], candidates, node_children)
        reduction.classes_forced = len(forced)
        for pos in forced:
            cid = class_ids[pos]
            if len(candidates[pos]) == 1:
                # Self-loop nodes are not fixed: under cycle constraints they
                # carry an x_i <= 0 row.
                idx = candidates[pos][0]
                if cid not in child_sets[idx]:
                    lower[idx] = 1.0
                    reduction.singletons_fixed += 1
            elif len(candidates[pos]) > 1 and cid != root and at_most_one_per_class:
                exactly_one.add(cid)

    # Equality constraint (2): exactly one pick in the root class, followed
    # by the forced classes' exactly-one rows.
    eq_rows: List[int] = []
    eq_cols: List[int] = []
    eq_vals: List[float] = []
    eq_classes = [root] + [cid for cid in class_ids if cid in exactly_one]
    for eq_row, cid in enumerate(eq_classes):
        for idx in class_node_indices[cid]:
            eq_rows.append(eq_row)
            eq_cols.append(idx)
            eq_vals.append(1.0)
    a_eq = sparse.csr_matrix((eq_vals, (eq_rows, eq_cols)), shape=(len(eq_classes), n_vars))
    b_eq = np.ones(len(eq_classes))

    # Inequality constraints.
    ub_rows: List[int] = []
    ub_cols: List[int] = []
    ub_vals: List[float] = []
    b_ub: List[float] = []
    row = 0

    eps = 1.0 / (2 * max(n_classes, 1))
    big_a = float(n_classes + 1) if integer_topo else 1.0 + 2 * eps

    if at_most_one_per_class:
        for cid in class_ids:
            indices = class_node_indices[cid]
            if len(indices) <= 1 or cid in exactly_one:
                continue
            for j in indices:
                ub_rows.append(row)
                ub_cols.append(j)
                ub_vals.append(1.0)
            b_ub.append(1.0)
            row += 1

    for i, (cls_pos, _) in enumerate(nodes):
        for m in child_sets[i]:
            # (3)  x_i - sum_{j in e_m} x_j <= 0
            ub_rows.append(row)
            ub_cols.append(i)
            ub_vals.append(1.0)
            for j in class_node_indices[m]:
                ub_rows.append(row)
                ub_cols.append(j)
                ub_vals.append(-1.0)
            b_ub.append(0.0)
            row += 1

            if with_cycle_constraints and m != class_ids[cls_pos]:
                # (4)  t_g(i) - t_m - eps + A*(1 - x_i) >= 0   (real topo vars)
                #      t_g(i) - t_m + A*(1 - x_i) >= 1          (integer topo vars)
                # rewritten as  -t_g + t_m + A*x_i <= A - rhs_gap
                rhs_gap = 1.0 if integer_topo else eps
                ub_rows.append(row)
                ub_cols.append(n_nodes + cls_pos)
                ub_vals.append(-1.0)
                ub_rows.append(row)
                ub_cols.append(n_nodes + class_pos[m])
                ub_vals.append(1.0)
                ub_rows.append(row)
                ub_cols.append(i)
                ub_vals.append(big_a)
                b_ub.append(big_a - rhs_gap)
                row += 1
            elif with_cycle_constraints and m == class_ids[cls_pos]:
                # Self-loop e-node: can never be picked in an acyclic solution.
                ub_rows.append(row)
                ub_cols.append(i)
                ub_vals.append(1.0)
                b_ub.append(0.0)
                row += 1

    a_ub = sparse.csr_matrix((ub_vals, (ub_rows, ub_cols)), shape=(max(row, 1), n_vars))
    b_ub_arr = np.array(b_ub if b_ub else [0.0])
    if row == 0:
        # No inequality constraints at all (single-node e-graph); keep shapes consistent.
        a_ub = sparse.csr_matrix((1, n_vars))
        b_ub_arr = np.array([0.0])

    variables = ILPVariables(class_ids=class_ids, nodes=nodes, root_position=class_pos[root])
    return ILPProblem(
        c=c,
        a_ub=a_ub,
        b_ub=b_ub_arr,
        a_eq=a_eq,
        b_eq=b_eq,
        lower=lower,
        upper=upper,
        integrality=integrality,
        variables=variables,
        with_cycle_constraints=with_cycle_constraints,
        integer_topo=integer_topo,
        reduction=reduction,
    )

