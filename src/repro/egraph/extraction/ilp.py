"""ILP extraction (paper Section 5.1).

Selecting one e-node per needed e-class such that the extracted graph is a
valid DAG of minimum total cost is formulated as a 0/1 integer linear
program.  The paper's formulation is reproduced exactly, including:

* the optional topological-order ("cycle") constraints with either real or
  integer order variables (Table 5 ablation),
* the filter-list constraints ``x_i = 0`` for e-nodes removed by cycle
  filtering (Section 5.2),
* a solver time limit (the paper uses 1 hour with SCIP; here the solver is
  HiGHS through :func:`scipy.optimize.milp`).

Before the solver sees the problem, dominated e-nodes are pruned and the
e-classes every selection must cover are forced (``reduce_problem``, default
on; :func:`~repro.egraph.extraction.problem.build_extraction_problem`).  With
them forced, HiGHS proves the optimum at or near the root node.  When HiGHS
stops without a solution, the greedy extractor's answer is returned with
status ``'ilp_<status>_greedy_fallback'`` (see ``docs/extraction.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.egraph.cycles import FilterList
from repro.egraph.egraph import EGraph
from repro.egraph.extraction.base import ExtractionResult, Extractor, NodeCost, build_recexpr, dag_cost
from repro.egraph.extraction.greedy import GreedyExtractor
from repro.egraph.extraction.problem import ILPProblem, build_extraction_problem
from repro.egraph.language import ENode

__all__ = ["ILPExtractor", "ILPSolveInfo"]

@dataclass
class ILPSolveInfo:
    """Details about one ILP solve (exposed for the Table 5 benchmark)."""

    status: str
    objective: float
    solve_seconds: float
    num_variables: int
    num_constraints: int
    #: Variable-space shrink factor of the problem-reduction pass (1.0 = none).
    prune_ratio: float = 1.0
    #: HiGHS's branch-and-bound node count, best dual bound and relative
    #: gap (None when HiGHS reports none, or when it did not run).
    mip_node_count: Optional[int] = None
    mip_dual_bound: Optional[float] = None
    mip_gap: Optional[float] = None


class ILPExtractor(Extractor):
    """Extract the minimum-cost DAG from an e-graph by solving an ILP.

    Parameters
    ----------
    node_cost:
        Additive per-e-node cost.
    with_cycle_constraints:
        Include the topological-order constraints (paper constraint (4)).
        When the e-graph was kept acyclic by cycle filtering these can be
        dropped, which is the paper's key scalability lever (Table 5).
    integer_topo:
        Use integer instead of real topological-order variables.
    filter_list:
        E-nodes excluded by cycle filtering (forced to ``x_i = 0``).
    time_limit:
        Solver wall-clock limit in seconds (paper: 3600).  When the solver
        returns no solution (time limit, infeasible), greedy extraction
        answers instead, so end-to-end optimization always returns a graph.
    mip_rel_gap:
        Relative optimality gap passed to the MIP solver; 0 demands a proven
        optimum, small positive values trade a bounded amount of optimality
        for a large reduction in solve time on big e-graphs.
    reduce_problem:
        Prune dominated e-nodes and force the e-classes every selection must
        cover before solving (optimum-preserving; see
        :mod:`repro.egraph.extraction.problem`).
    """

    def __init__(
        self,
        node_cost: NodeCost,
        with_cycle_constraints: bool = False,
        integer_topo: bool = False,
        filter_list: Optional[FilterList] = None,
        time_limit: float = 3600.0,
        mip_rel_gap: float = 0.0,
        reduce_problem: bool = True,
    ) -> None:
        self.node_cost = node_cost
        self.with_cycle_constraints = with_cycle_constraints
        self.integer_topo = integer_topo
        self.filter_list = filter_list
        self.time_limit = time_limit
        self.mip_rel_gap = mip_rel_gap
        self.reduce_problem = reduce_problem
        self.last_solve_info: Optional[ILPSolveInfo] = None

    # ------------------------------------------------------------------ #

    def build_problem(self, egraph: EGraph, root: int) -> ILPProblem:
        return build_extraction_problem(
            egraph,
            root,
            self.node_cost,
            with_cycle_constraints=self.with_cycle_constraints,
            integer_topo=self.integer_topo,
            filter_list=self.filter_list,
            prune_dominated=self.reduce_problem,
            collapse_singletons=self.reduce_problem,
        )

    def _solve(self, problem: ILPProblem):
        """Solve with HiGHS; returns ``(x, objective, status, solver_facts)``."""
        constraints = [
            LinearConstraint(problem.a_ub, -np.inf, problem.b_ub),
            LinearConstraint(problem.a_eq, problem.b_eq, problem.b_eq),
        ]
        # Always passed: HiGHS's own default gap is 1e-4, not 0.
        options = {"time_limit": self.time_limit, "presolve": True, "mip_rel_gap": self.mip_rel_gap}
        res = milp(
            c=problem.c,
            constraints=constraints,
            integrality=problem.integrality,
            bounds=Bounds(problem.lower, problem.upper),
            options=options,
        )
        facts = {
            "mip_node_count": getattr(res, "mip_node_count", None),
            "mip_dual_bound": getattr(res, "mip_dual_bound", None),
            "mip_gap": getattr(res, "mip_gap", None),
        }
        if res.status == 0 and res.x is not None:
            return res.x, float(res.fun), "optimal", facts
        if res.x is not None:
            return res.x, float(res.fun), "feasible", facts
        status = {1: "iteration_or_time_limit", 2: "infeasible", 3: "unbounded"}.get(res.status, "failed")
        return None, float("inf"), status, facts

    # ------------------------------------------------------------------ #

    def extract(self, egraph: EGraph, root: int) -> ExtractionResult:
        t0 = time.perf_counter()
        root = egraph.find(root)
        stages: Dict[str, float] = {}

        problem = self.build_problem(egraph, root)
        stages["prune"] = time.perf_counter() - t0
        reduction = problem.reduction.as_dict() if problem.reduction is not None else None

        t_solve = time.perf_counter()
        if problem.num_variables == 0:
            # Pruning left no candidate for the root (every one filtered):
            # nothing to solve, and milp rejects an empty objective.
            x, objective, status, facts = None, float("inf"), "infeasible", {}
        else:
            x, objective, status, facts = self._solve(problem)
        stages["ilp"] = time.perf_counter() - t_solve

        solve_seconds = time.perf_counter() - t0
        self.last_solve_info = ILPSolveInfo(
            status=status,
            objective=objective,
            solve_seconds=solve_seconds,
            num_variables=problem.num_variables,
            num_constraints=problem.a_ub.shape[0] + problem.a_eq.shape[0],
            prune_ratio=problem.reduction.variable_ratio if problem.reduction else 1.0,
            **facts,
        )

        if x is None:
            greedy = GreedyExtractor(self.node_cost, filter_list=self.filter_list)
            result = greedy.extract(egraph, root)
            result.status = f"ilp_{status}_greedy_fallback"
            result.solve_seconds = solve_seconds + result.solve_seconds
            result.stages = {**stages, **result.stages}
            result.reduction = reduction
            return result

        choices = self._choices_from_solution(egraph, problem, x)
        expr = build_recexpr(egraph, root, choices)
        cost = dag_cost(egraph, root, choices, self.node_cost)
        return ExtractionResult(
            expr=expr,
            cost=cost,
            choices=choices,
            solve_seconds=solve_seconds,
            status=status,
            stages=stages,
            reduction=reduction,
        )

    @staticmethod
    def _choices_from_solution(egraph: EGraph, problem: ILPProblem, x: np.ndarray) -> Dict[int, ENode]:
        variables = problem.variables
        choices: Dict[int, ENode] = {}
        best_value: Dict[int, float] = {}
        for i, (class_pos, node) in enumerate(variables.nodes):
            value = float(x[i])
            if value < 0.5:
                continue
            cid = variables.class_ids[class_pos]
            if value > best_value.get(cid, 0.0):
                best_value[cid] = value
                choices[cid] = node
        return choices
