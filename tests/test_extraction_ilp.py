"""Tests for ILP extraction (formulation, solver, greedy fallback, cycle constraints, filter list).

HiGHS's optimum is checked against the branch-and-bound reference in
``tests/oracles/bnb.py``.
"""

import pytest

from oracles.bnb import BnBExtractor
from repro.core.config import TensatConfig
from repro.core.events import RecordingObserver
from repro.core.session import OptimizationSession
from repro.egraph.cycles import EfficientCycleFilter, FilterList
from repro.egraph.egraph import EGraph
from repro.egraph.extraction.greedy import GreedyExtractor
from repro.egraph.extraction.ilp import ILPExtractor
from repro.egraph.extraction.problem import build_extraction_problem
from repro.egraph.language import ENode
from repro.egraph.multipattern import MultiPatternRewrite
from repro.egraph.rewrite import Rewrite
from repro.egraph.runner import Runner, RunnerLimits
from repro.models import build_model


def cost_table(table, default=1.0):
    return lambda enode, egraph: table.get(enode.op, default)


def shared_plan_egraph():
    """E-graph where the optimal plan shares one expensive node between two outputs."""
    eg = EGraph()
    shared = eg.add_term("(shared x)")
    p0 = eg.add(ENode("p0", (shared,)))
    p1 = eg.add(ENode("p1", (shared,)))
    a0 = eg.add_term("(alt0 x)")
    a1 = eg.add_term("(alt1 x)")
    eg.union(p0, a0)
    eg.union(p1, a1)
    eg.rebuild()
    root = eg.add(ENode("noop", (eg.find(p0), eg.find(p1))))
    costs = {"shared": 10.0, "p0": 0.0, "p1": 0.0, "alt0": 7.0, "alt1": 7.0, "noop": 0.0, "x": 0.0}
    return eg, root, costs


class TestFormulation:
    def test_variable_and_constraint_counts(self):
        eg = EGraph()
        root = eg.add_term("(f (g a) b)")
        problem = build_extraction_problem(eg, root, cost_table({}))
        # 4 e-nodes, no topo variables.
        assert problem.num_variables == 4
        assert problem.a_eq.shape == (1, 4)

    def test_cycle_constraints_add_topo_variables(self):
        eg = EGraph()
        root = eg.add_term("(f (g a) b)")
        problem = build_extraction_problem(eg, root, cost_table({}), with_cycle_constraints=True)
        assert problem.num_variables == 4 + 4  # one t per e-class
        assert problem.integrality[-1] == 0  # real topo variables by default

    def test_integer_topo_variables(self):
        eg = EGraph()
        root = eg.add_term("(f a)")
        problem = build_extraction_problem(
            eg, root, cost_table({}), with_cycle_constraints=True, integer_topo=True
        )
        assert problem.integrality[-1] == 1
        assert problem.upper[-1] == pytest.approx(problem.variables.num_classes - 1)

    def test_unreachable_classes_are_pruned(self):
        eg = EGraph()
        root = eg.add_term("(f a)")
        eg.add_term("(unrelated b)")
        problem = build_extraction_problem(eg, root, cost_table({}))
        assert problem.variables.num_classes == 2  # only f and a


class TestILPExtraction:
    def test_matches_greedy_on_tree(self):
        eg = EGraph()
        root = eg.add_term("(* a 2)")
        Rewrite.parse("strength", "(* ?x 2)", "(<< ?x 1)").run(eg)
        eg.rebuild()
        nc = cost_table({"*": 5.0, "<<": 1.0}, default=0.0)
        greedy = GreedyExtractor(nc).extract(eg, root)
        ilp = ILPExtractor(nc).extract(eg, root)
        assert str(ilp.expr) == str(greedy.expr) == "(<< a 1)"

    def test_ilp_beats_greedy_with_sharing(self):
        eg, root, costs = shared_plan_egraph()
        nc = cost_table(costs)
        greedy = GreedyExtractor(nc).extract(eg, root)
        ilp = ILPExtractor(nc).extract(eg, root)
        assert greedy.cost == pytest.approx(14.0)
        assert ilp.cost == pytest.approx(10.0)
        assert ilp.cost < greedy.cost

    def test_bnb_backend_agrees_with_scipy(self):
        eg, root, costs = shared_plan_egraph()
        nc = cost_table(costs)
        scipy_res = ILPExtractor(nc).extract(eg, root)
        bnb_res = BnBExtractor(nc).extract(eg, root)
        assert bnb_res.cost == pytest.approx(scipy_res.cost) == pytest.approx(10.0)

    def test_invalid_backend_rejected(self):
        # HiGHS is the one solver: there is no backend switch to name.
        with pytest.raises(TypeError):
            ILPExtractor(cost_table({}), backend="bnb")

    def test_filter_list_constraints(self):
        eg = EGraph()
        root = eg.add_term("(* a 2)")
        Rewrite.parse("strength", "(* ?x 2)", "(<< ?x 1)").run(eg)
        eg.rebuild()
        flist = FilterList()
        a = eg.add_term("a")
        one = eg.add_term("1")
        flist.add(eg, ENode("<<", (eg.find(a), eg.find(one))))
        nc = cost_table({"*": 5.0, "<<": 1.0}, default=0.0)
        result = ILPExtractor(nc, filter_list=flist).extract(eg, root)
        assert str(result.expr) == "(* a 2)"

    def test_solve_info_recorded(self):
        eg, root, costs = shared_plan_egraph()
        extractor = ILPExtractor(cost_table(costs))
        extractor.extract(eg, root)
        info = extractor.last_solve_info
        assert info is not None
        assert info.status == "optimal"
        assert info.num_variables > 0

    def test_optimum_is_proven_at_the_root(self):
        eg, root, costs = shared_plan_egraph()
        extractor = ILPExtractor(cost_table(costs))
        extractor.extract(eg, root)
        info = extractor.last_solve_info
        assert info.mip_node_count <= 1
        assert info.mip_dual_bound == pytest.approx(info.objective) == pytest.approx(10.0)
        assert info.mip_gap == pytest.approx(0.0)

    def test_bnb_backend_reports_no_highs_facts(self):
        # A solve HiGHS did not run leaves its facts unset.
        eg, root, costs = shared_plan_egraph()
        extractor = BnBExtractor(cost_table(costs))
        extractor.extract(eg, root)
        info = extractor.last_solve_info
        assert info.status == "optimal"
        assert (info.mip_node_count, info.mip_dual_bound, info.mip_gap) == (None, None, None)

    def test_stage_timings_on_result(self):
        eg, root, costs = shared_plan_egraph()
        result = ILPExtractor(cost_table(costs)).extract(eg, root)
        assert set(result.stages) == {"prune", "ilp"}  # no greedy pass before the solve
        assert all(secs >= 0.0 for secs in result.stages.values())


class TestCycleHandling:
    def build_cyclic_egraph(self):
        """Create an e-graph with an e-class-level cycle via the merge rule (paper Figure 3)."""
        eg = EGraph()
        root = eg.add_term("(matmul 0 x (matmul 0 x y))")
        rule = MultiPatternRewrite.parse(
            "merge",
            sources=["(matmul ?a ?x ?w1)", "(matmul ?a ?x ?w2)"],
            targets=[
                "(split0 (split 1 (matmul ?a ?x (concat2 1 ?w1 ?w2))))",
                "(split1 (split 1 (matmul ?a ?x (concat2 1 ?w1 ?w2))))",
            ],
        )
        for combo in rule.search(eg):
            rule.apply_match(eg, combo)
        eg.rebuild()
        return eg, root

    def test_ilp_with_cycle_constraints_returns_acyclic_graph(self):
        eg, root = self.build_cyclic_egraph()
        nc = cost_table({}, default=1.0)
        result = ILPExtractor(nc, with_cycle_constraints=True).extract(eg, root)
        # build_recexpr would raise on a cyclic selection, so reaching here is the point.
        assert result.expr.subterm_size() >= 3

    def test_ilp_with_integer_topo_matches_real_topo(self):
        eg, root = self.build_cyclic_egraph()
        nc = cost_table({}, default=1.0)
        real_res = ILPExtractor(nc, with_cycle_constraints=True, integer_topo=False).extract(eg, root)
        int_res = ILPExtractor(nc, with_cycle_constraints=True, integer_topo=True).extract(eg, root)
        assert real_res.cost == pytest.approx(int_res.cost)

    def test_without_cycle_constraints_on_filtered_egraph(self):
        eg = EGraph()
        root = eg.add_term("(matmul 0 x (matmul 0 x y))")
        rule = MultiPatternRewrite.parse(
            "merge",
            sources=["(matmul ?a ?x ?w1)", "(matmul ?a ?x ?w2)"],
            targets=[
                "(split0 (split 1 (matmul ?a ?x (concat2 1 ?w1 ?w2))))",
                "(split1 (split 1 (matmul ?a ?x (concat2 1 ?w1 ?w2))))",
            ],
        )
        cycle_filter = EfficientCycleFilter()
        Runner(
            eg,
            multi_rewrites=[rule],
            limits=RunnerLimits(iter_limit=2, k_multi=2),
            cycle_filter=cycle_filter,
        ).run()
        nc = cost_table({}, default=1.0)
        result = ILPExtractor(
            nc, with_cycle_constraints=False, filter_list=cycle_filter.filter_list
        ).extract(eg, root)
        assert result.status in ("optimal", "feasible")


class TestProblemReduction:
    def make_dominated_egraph(self):
        """One e-class with two candidates over the same child: (f a) and the
        strictly more expensive (g a) -- g is dominated."""
        eg = EGraph()
        root = eg.add_term("(f a)")
        Rewrite.parse("worse", "(f ?x)", "(g ?x)").run(eg)
        eg.rebuild()
        nc = cost_table({"f": 1.0, "g": 2.0}, default=0.0)
        return eg, root, nc

    def test_dominated_node_is_pruned(self):
        eg, root, nc = self.make_dominated_egraph()
        raw = build_extraction_problem(eg, root, nc)
        reduced = build_extraction_problem(eg, root, nc, prune_dominated=True)
        assert raw.reduction is None
        assert reduced.reduction is not None
        assert reduced.reduction.dominated_pruned >= 1
        assert reduced.num_variables < raw.num_variables
        assert reduced.reduction.variable_ratio > 1.0
        ops = {node.op for _, node in reduced.variables.nodes}
        assert "g" not in ops  # the dominated candidate is gone

    def test_equal_cost_duplicates_collapse_deterministically(self):
        eg = EGraph()
        root = eg.add_term("(f a)")
        Rewrite.parse("twin", "(f ?x)", "(g ?x)").run(eg)
        eg.rebuild()
        nc = cost_table({"f": 1.0, "g": 1.0}, default=0.0)
        reduced = build_extraction_problem(eg, root, nc, prune_dominated=True)
        # Exact tie: earlier-registered candidate wins, exactly one survives.
        class_sizes = {}
        for cls_pos, _ in reduced.variables.nodes:
            class_sizes[cls_pos] = class_sizes.get(cls_pos, 0) + 1
        assert max(class_sizes.values()) == 1

    def test_singleton_chain_is_fixed(self):
        eg = EGraph()
        root = eg.add_term("(f (g (h a)))")  # pure chain: every class a singleton
        nc = cost_table({}, default=1.0)
        problem = build_extraction_problem(
            eg, root, nc, prune_dominated=True, collapse_singletons=True
        )
        assert problem.reduction.singletons_fixed == 4
        assert (problem.lower[: problem.variables.num_nodes] == 1.0).all()

    def test_singleton_chain_under_an_alternative_is_fixed(self):
        eg = EGraph()
        root = eg.add_term("(f (s x))")
        eg.union(root, eg.add_term("(g (s x))"))
        eg.rebuild()
        nc = cost_table({"f": 1.0, "g": 2.0}, default=1.0)
        problem = build_extraction_problem(eg, root, nc, collapse_singletons=True)
        # (s x) and x are needed by both root alternatives; the root itself
        # keeps its exactly-one row and its two free candidates.
        assert problem.reduction.classes_forced == 3
        assert problem.reduction.singletons_fixed == 2
        assert forced_ops(problem) == {"s", "x"}

    def test_pruning_preserves_the_optimum(self):
        eg, root, costs = shared_plan_egraph()
        nc = cost_table(costs)
        pruned = ILPExtractor(nc, reduce_problem=True).extract(eg, root)
        raw = ILPExtractor(nc, reduce_problem=False).extract(eg, root)
        assert pruned.cost == pytest.approx(raw.cost) == pytest.approx(10.0)
        assert pruned.reduction is not None

    def test_reduction_stats_reach_solve_info(self):
        eg, root, nc = self.make_dominated_egraph()
        extractor = ILPExtractor(nc, reduce_problem=True)
        extractor.extract(eg, root)
        assert extractor.last_solve_info.prune_ratio > 1.0


def forced_ops(problem):
    """Operators of the candidates fixed to 1 by the forced-class pass."""
    return {node.op for i, (_, node) in enumerate(problem.variables.nodes) if problem.lower[i] == 1.0}


def forced_class_positions(problem):
    """Class positions with a candidate fixed to 1 or an exactly-one row."""
    variables = problem.variables
    positions = {variables.nodes[i][0] for i in range(variables.num_nodes) if problem.lower[i] == 1.0}
    for row in range(problem.a_eq.shape[0]):
        cols = problem.a_eq.indices[problem.a_eq.indptr[row]:problem.a_eq.indptr[row + 1]]
        positions |= {variables.nodes[j][0] for j in cols}
    return positions


def class_position(problem, egraph, eclass):
    return problem.variables.class_ids.index(egraph.find(eclass))


class TestForcedClasses:
    def test_class_both_alternatives_need_is_forced(self):
        # root = (f S) | (g S z), S = (s x) | (t y): S is needed either way,
        # and with two candidates it gets an exactly-one row.  z is not.
        eg = EGraph()
        shared = eg.add_term("(s x)")
        eg.union(shared, eg.add_term("(t y)"))
        root = eg.add(ENode("f", (shared,)))
        eg.union(root, eg.add(ENode("g", (shared, eg.add_term("z")))))
        eg.rebuild()
        nc = cost_table({"f": 1.0, "g": 0.5, "s": 3.0, "t": 1.0}, default=1.0)
        problem = build_extraction_problem(
            eg, root, nc, prune_dominated=True, collapse_singletons=True
        )
        plain = build_extraction_problem(eg, root, nc, prune_dominated=True)
        s_pos = class_position(problem, eg, shared)
        assert forced_class_positions(problem) == {problem.variables.root_position, s_pos}
        assert problem.reduction.classes_forced == 2
        assert problem.reduction.singletons_fixed == 0
        # The at-most-one row moved to a_eq: the row count is unchanged.
        assert problem.a_eq.shape[0] == 2
        assert problem.a_ub.shape[0] + 2 == plain.a_ub.shape[0] + 1
        for extractor in (ILPExtractor(nc), BnBExtractor(nc)):
            result = extractor.extract(eg, root)
            assert result.cost == pytest.approx(3.0)  # f + t + y

    def test_class_only_one_alternative_needs_is_not_forced(self):
        eg = EGraph()
        root = eg.add_term("(f a)")
        eg.union(root, eg.add_term("(g b)"))
        eg.rebuild()
        problem = build_extraction_problem(
            eg, root, cost_table({}), prune_dominated=True, collapse_singletons=True
        )
        assert forced_class_positions(problem) == {problem.variables.root_position}
        assert problem.reduction.classes_forced == 1
        assert problem.a_eq.shape[0] == 1

    def cycle_escape_egraph(self):
        """X = (g Y) | (g2 W), Y = (h X) | (h2 W), root = (r X).

        Every acyclic selection pays for W, but X -> Y -> X covers both
        classes without it: W is reached only around that cycle's exits.
        """
        eg = EGraph()
        w = eg.add_term("w")
        x = eg.add(ENode("g2", (w,)))
        y = eg.add(ENode("h2", (w,)))
        eg.union(x, eg.add(ENode("g", (y,))))
        eg.union(y, eg.add(ENode("h", (x,))))
        eg.rebuild()
        root = eg.add(ENode("r", (eg.find(x),)))
        return eg, root, w, cost_table({"w": 10.0}, default=1.0)

    def test_class_reached_only_around_a_cycle_is_not_forced(self):
        eg, root, w, nc = self.cycle_escape_egraph()
        for cycles in (False, True):
            problem = build_extraction_problem(
                eg, root, nc, with_cycle_constraints=cycles, collapse_singletons=True
            )
            assert class_position(problem, eg, w) not in forced_class_positions(problem)
            assert problem.reduction.classes_forced == 2  # the root and X
        # Without cycle constraints the ILP may take the cycle and skip W;
        # forcing W would have moved that optimum.
        free = ILPExtractor(nc)
        problem = free.build_problem(eg, root)
        _, objective, status, _ = free._solve(problem)
        assert status == "optimal" and objective == pytest.approx(3.0)
        acyclic = ILPExtractor(nc, with_cycle_constraints=True).extract(eg, root)
        assert acyclic.cost == pytest.approx(12.0)  # r + g2 + w


def stopped_milp(monkeypatch):
    """Make HiGHS stop at a limit without returning a solution."""
    from scipy.optimize import OptimizeResult

    import repro.egraph.extraction.ilp as ilp_module

    def milp(**kwargs):
        return OptimizeResult(status=1, x=None, fun=None, success=False, message="time limit")

    monkeypatch.setattr(ilp_module, "milp", milp)


def filtered_leaf_egraph():
    """A one-node e-graph whose only e-node is on the filter list."""
    eg = EGraph()
    root = eg.add_term("a")
    flist = FilterList()
    flist.add(eg, ENode("a", ()))
    return eg, root, flist


class TestGreedyFallback:
    def test_limit_without_solution_falls_back_to_greedy(self, monkeypatch):
        eg, root, costs = shared_plan_egraph()
        stopped_milp(monkeypatch)
        extractor = ILPExtractor(cost_table(costs))
        result = extractor.extract(eg, root)
        assert result.status == "ilp_iteration_or_time_limit_greedy_fallback"
        assert set(result.stages) == {"prune", "ilp", "greedy"}
        assert extractor.last_solve_info.status == "iteration_or_time_limit"

    def test_limit_without_solution_returns_the_greedy_result(self, monkeypatch):
        eg, root, costs = shared_plan_egraph()
        nc = cost_table(costs)
        greedy = GreedyExtractor(nc).extract(eg, root)
        stopped_milp(monkeypatch)
        result = ILPExtractor(nc).extract(eg, root)
        assert result.status == "ilp_iteration_or_time_limit_greedy_fallback"
        assert str(result.expr) == str(greedy.expr)
        assert result.cost == pytest.approx(greedy.cost) == pytest.approx(14.0)

    @pytest.mark.parametrize("reduce_problem", [True, False])
    def test_empty_problem_is_infeasible_without_calling_the_solver(self, reduce_problem, monkeypatch):
        # Pruning drops the filtered root node and leaves no variable; the
        # unpruned problem keeps it at x = 0.  Both read as infeasible, so
        # both reach greedy's typed error.
        import repro.egraph.extraction.ilp as ilp_module

        solves = []
        solve = ilp_module.milp
        monkeypatch.setattr(ilp_module, "milp", lambda **kwargs: solves.append(1) or solve(**kwargs))
        eg, root, flist = filtered_leaf_egraph()
        nc = cost_table({})
        extractor = ILPExtractor(nc, filter_list=flist, reduce_problem=reduce_problem)
        with pytest.raises(ValueError, match="no acyclic representative"):
            extractor.extract(eg, root)
        assert extractor.last_solve_info.status == "infeasible"
        assert (extractor.last_solve_info.num_variables == 0) == reduce_problem
        assert len(solves) == (0 if reduce_problem else 1)


#: A small end-to-end run: saturation stays well under a second.
SESSION_CONFIG = dict(node_limit=2_000, iter_limit=5, k_multi=1)


def extraction_session(observers=()):
    return OptimizationSession(
        build_model("nasrnn", "tiny"), config=TensatConfig(**SESSION_CONFIG), observers=observers
    )


class TestInSession:
    def test_fallback_status_reaches_stats_extraction_status(self, monkeypatch):
        stopped_milp(monkeypatch)
        session = extraction_session()
        extraction = session.extract()
        status = "ilp_iteration_or_time_limit_greedy_fallback"
        assert extraction.status == status
        assert session.extraction_status == status
        result = session.result()
        assert result.stats.extraction_status == status
        assert result.stats.as_dict()["extraction_status"] == status

    def test_solver_stop_falls_back_to_greedy_and_never_raises(self, monkeypatch):
        stopped_milp(monkeypatch)
        result = extraction_session().result()
        assert result.stats.extraction_status == "ilp_iteration_or_time_limit_greedy_fallback"
        # The run still returns an optimized graph.
        assert result.optimized is not None
        assert result.stats.optimized_cost > 0

    def test_stats_carry_stage_seconds_and_prune_ratio(self):
        stats = extraction_session().result().stats
        assert set(stats.extraction_stage_seconds) == {"prune", "ilp"}
        assert all(secs >= 0.0 for secs in stats.extraction_stage_seconds.values())
        assert stats.extraction_prune_ratio >= 1.0
        payload = stats.as_dict()
        assert "extraction_stage_seconds" in payload
        assert "extraction_prune_ratio" in payload

    def test_on_extraction_event_fires_with_the_result(self):
        recording = RecordingObserver()
        session = extraction_session(observers=[recording])
        extraction = session.extract()
        events = recording.of_kind("extraction")
        assert len(events) == 1
        assert events[0][1] is extraction
        assert set(extraction.stages) == {"prune", "ilp"}
        reduction = extraction.reduction
        assert reduction["nodes_before"] >= reduction["nodes_after"] > 0
