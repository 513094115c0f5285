"""Property suite: the extraction strategies agree on random small e-graphs.

The strategies form a quality ladder -- greedy is a heuristic, the HiGHS ILP
is exact and must match the branch-and-bound reference in
``tests/oracles/bnb.py`` -- and the problem-reduction pass must never move
the optimum.  Costs are drawn as small integers so "same cost" is exact float
equality (sums of small ints are exactly representable), letting the
pruned-vs-unpruned property assert bit-for-bit equality rather than an
approximate match.

Random instances include e-class cycles (a term unioned with its own
subterm), so the exact extractors run with the topological-order cycle
constraints enabled; greedy is acyclic by construction.
"""

import string

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

from oracles.bnb import BnBExtractor
from oracles.greedy_sweep import greedy_sweep
from test_extraction_ilp import forced_class_positions
from repro import sexpr as sx
from repro.egraph.cycles import FilterList
from repro.egraph.egraph import EGraph
from repro.egraph.extraction.base import used_choices
from repro.egraph.extraction.greedy import GreedyExtractor
from repro.egraph.extraction.ilp import ILPExtractor
from repro.egraph.extraction.problem import build_extraction_problem

# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #

atoms = st.text(alphabet=string.ascii_lowercase[:6], min_size=1, max_size=2)


def sexpr_trees():
    return st.recursive(
        atoms,
        lambda children: st.lists(children, min_size=1, max_size=3).map(
            lambda kids: ["op" + str(len(kids))] + kids
        ),
        max_leaves=6,
    )


@st.composite
def egraph_instances(draw):
    """A small e-graph built from random terms, random unions, integer costs.

    Unions between term roots can merge a class with one of its own
    descendants, creating e-class cycles -- exactly the shape cycle
    constraints exist for.
    """
    trees = draw(st.lists(sexpr_trees(), min_size=2, max_size=4))
    eg = EGraph()
    roots = [eg.add_term(sx.to_string(t)) for t in trees]
    n_unions = draw(st.integers(min_value=0, max_value=3))
    for _ in range(n_unions):
        a = draw(st.sampled_from(roots))
        b = draw(st.sampled_from(roots))
        eg.union(a, b)
    eg.rebuild()
    root = eg.find(roots[0])

    ops = sorted({node.op for eclass in eg.classes() for node in eclass.nodes})
    costs = {op: draw(st.integers(min_value=1, max_value=9)) for op in ops}
    return eg, root, costs


def cost_fn(costs):
    return lambda enode, egraph: float(costs.get(enode.op, 1))


def selection_is_acyclic_and_complete(eg, root, result):
    """Walk the extracted choices from the root: every class chosen, no cycle."""
    seen = set()
    on_path = set()

    def visit(cid):
        cid = eg.find(cid)
        if cid in seen:
            return
        assert cid not in on_path, "cyclic extraction selection"
        assert cid in {eg.find(c) for c in result.choices}, "missing choice"
        on_path.add(cid)
        node = result.choices[cid] if cid in result.choices else result.choices[eg.find(cid)]
        for child in node.children:
            visit(child)
        on_path.discard(cid)
        seen.add(cid)

    choices_canonical = {eg.find(c): n for c, n in result.choices.items()}
    result.choices.update(choices_canonical)
    visit(root)


class TestPreparedGreedyParity:
    """The greedy extractor makes the oracle sweep's choice in every e-class."""

    @given(
        egraph_instances(),
        st.booleans(),
        st.integers(min_value=0, max_value=3),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_choices_match_the_sweep_oracle(self, instance, flat, n_filtered, rnd):
        eg, root, costs = instance
        # Non-integer costs, so the order of the float additions matters;
        # flat costs make ties common, so the tie rule matters.
        if flat:
            nc = lambda enode, egraph: 0.1  # noqa: E731
        else:
            nc = lambda enode, egraph: costs.get(enode.op, 1) / 7.0 + 0.1  # noqa: E731
        filter_list = None
        if n_filtered:
            filter_list = FilterList()
            nodes = [node for eclass in eg.classes() for node in eclass.nodes]
            for node in rnd.sample(nodes, min(n_filtered, len(nodes))):
                filter_list.add(eg, node)
        best_cost, best_node = greedy_sweep(eg, nc, filter_list)
        extractor = GreedyExtractor(nc, filter_list=filter_list)
        if root not in best_cost:
            with pytest.raises(ValueError):
                extractor.extract(eg, root)
            return
        result = extractor.extract(eg, root)
        assert result.choices == best_node


class TestStrategyEquivalence:
    @given(egraph_instances())
    @settings(max_examples=25, deadline=None)
    def test_cost_ladder_ilp_le_bnb_le_greedy(self, instance):
        eg, root, costs = instance
        nc = cost_fn(costs)
        greedy = GreedyExtractor(nc).extract(eg, root)
        bnb = BnBExtractor(nc, with_cycle_constraints=True).extract(eg, root)
        ilp = ILPExtractor(nc, with_cycle_constraints=True).extract(eg, root)
        assert ilp.cost <= bnb.cost + 1e-9
        assert bnb.cost <= greedy.cost + 1e-9
        # Both exact backends prove the same optimum.
        assert ilp.cost == pytest.approx(bnb.cost)

    @given(egraph_instances())
    @settings(max_examples=25, deadline=None)
    def test_all_strategies_produce_valid_cycle_free_terms(self, instance):
        eg, root, costs = instance
        nc = cost_fn(costs)
        for result in (
            GreedyExtractor(nc).extract(eg, root),
            BnBExtractor(nc, with_cycle_constraints=True).extract(eg, root),
            ILPExtractor(nc, with_cycle_constraints=True).extract(eg, root),
        ):
            # build_recexpr already raises on a cyclic selection; re-verify
            # the invariant independently over the raw choices.
            selection_is_acyclic_and_complete(eg, root, result)
            assert result.expr.subterm_size() >= 1

    @given(egraph_instances())
    @settings(max_examples=25, deadline=None)
    def test_pruning_never_changes_the_ilp_optimum(self, instance):
        eg, root, costs = instance
        nc = cost_fn(costs)
        pruned = ILPExtractor(nc, with_cycle_constraints=True, reduce_problem=True).extract(eg, root)
        unpruned = ILPExtractor(nc, with_cycle_constraints=True, reduce_problem=False).extract(eg, root)
        # Integer costs: the optima must agree bit-for-bit, not just approximately.
        assert pruned.cost == unpruned.cost

    @given(egraph_instances(), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_optima_agree_with_bnb_without_cycle_constraints(self, instance, prune):
        # Without cycle constraints the selection may be cyclic, so compare
        # the solvers' objectives on the same problem, not extracted terms.
        eg, root, costs = instance
        nc = cost_fn(costs)
        ilp, bnb = ILPExtractor(nc, reduce_problem=prune), BnBExtractor(nc, reduce_problem=prune)
        problem = ilp.build_problem(eg, root)
        _, obj_ilp, status_ilp, _ = ilp._solve(problem)
        _, obj_bnb, status_bnb, _ = bnb._solve(problem)
        assert status_ilp == status_bnb == "optimal"
        assert obj_ilp == pytest.approx(obj_bnb)


def random_filter_list(eg, n_filtered, rnd):
    if not n_filtered:
        return None
    filter_list = FilterList()
    nodes = [node for eclass in eg.classes() for node in eclass.nodes]
    for node in rnd.sample(nodes, min(n_filtered, len(nodes))):
        filter_list.add(eg, node)
    return filter_list


def solve(problem):
    """Solve ``problem`` with HiGHS to a proven optimum."""
    return milp(
        c=problem.c,
        constraints=[
            LinearConstraint(problem.a_ub, -np.inf, problem.b_ub),
            LinearConstraint(problem.a_eq, problem.b_eq, problem.b_eq),
        ],
        integrality=problem.integrality,
        bounds=Bounds(problem.lower, problem.upper),
        options={"mip_rel_gap": 0.0},
    )


def covered_positions(problem, x):
    return {cls_pos for i, (cls_pos, _) in enumerate(problem.variables.nodes) if x[i] > 0.5}


class TestForcedClasses:
    @given(
        egraph_instances(),
        st.integers(min_value=0, max_value=3),
        st.randoms(use_true_random=False),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_forcing_keeps_the_optimum_and_every_selection_covers_it(
        self, instance, n_filtered, rnd, prune, cycles
    ):
        # Without cycle constraints the ILP may select cyclically; forcing
        # must stay sound for those selections too.
        eg, root, costs = instance
        nc = cost_fn(costs)
        common = dict(
            with_cycle_constraints=cycles,
            filter_list=random_filter_list(eg, n_filtered, rnd),
            prune_dominated=prune,
        )
        forced = build_extraction_problem(eg, root, nc, collapse_singletons=True, **common)
        plain = build_extraction_problem(eg, root, nc, collapse_singletons=False, **common)
        assert forced.variables.nodes == plain.variables.nodes
        assert forced.a_ub.shape[0] + forced.a_eq.shape[0] == plain.a_ub.shape[0] + plain.a_eq.shape[0]
        if plain.num_variables == 0:
            return  # pruning dropped every candidate: the root cannot be covered
        forced_res, plain_res = solve(forced), solve(plain)
        assert forced_res.status == plain_res.status
        if plain_res.status != 0:
            return  # the filter list cut the root off: infeasible either way
        # Integer costs: the optima agree exactly.
        assert forced_res.fun == plain_res.fun
        must = forced_class_positions(forced)
        assert forced.reduction.classes_forced >= len(must)
        # The forced classes are needed, not just imposed: the unreduced
        # optimum covers them too, and so does the greedy selection.
        assert must <= covered_positions(plain, plain_res.x)
        assert must <= covered_positions(forced, forced_res.x)
        _, greedy_choices = greedy_sweep(eg, nc, common["filter_list"])
        if root in greedy_choices:
            greedy_classes = used_choices(eg, root, greedy_choices)
            class_ids = forced.variables.class_ids
            assert {class_ids[pos] for pos in must} <= set(greedy_classes)

