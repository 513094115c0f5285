"""ILP extraction (paper Section 5.1).

Selecting one e-node per needed e-class such that the extracted graph is a
valid DAG of minimum total cost is formulated as a 0/1 integer linear
program.  The paper's formulation is reproduced exactly, including:

* the optional topological-order ("cycle") constraints with either real or
  integer order variables (Table 5 ablation),
* the filter-list constraints ``x_i = 0`` for e-nodes removed by cycle
  filtering (Section 5.2),
* a solver time limit (the paper uses 1 hour with SCIP; here the default
  backend is HiGHS through :func:`scipy.optimize.milp`).

Two extraction-at-scale levers sit on top (see ``docs/extraction.md``):

* **problem reduction** (``reduce_problem``, default on): dominated e-nodes
  are pruned, and the e-classes every selection must cover are forced before
  the solver sees the problem
  (:func:`~repro.egraph.extraction.problem.build_extraction_problem`).  With
  them forced, HiGHS proves the optimum at or near the root node;
* **warm starting** (``warm_start``, default on): the greedy solution is
  computed on the reduced problem.  The ``bnb`` backend takes it as its
  starting incumbent.  scipy exposes no MIP-start hook for HiGHS, so there
  the greedy vector is only what is returned, with status
  ``'<status>_warm_incumbent'``, when HiGHS stops without a solution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.egraph.cycles import FilterList
from repro.egraph.egraph import EGraph
from repro.egraph.extraction.base import ExtractionResult, Extractor, NodeCost, build_recexpr, dag_cost
from repro.egraph.extraction.bnb import solve_branch_and_bound
from repro.egraph.extraction.greedy import GreedyExtractor
from repro.egraph.extraction.problem import ILPProblem, build_extraction_problem, warm_start_solution
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
    backend: str
    #: True when a greedy warm start seeded this solve.
    warm_started: bool = False
    #: Objective of the warm-start incumbent (None when solving cold).
    warm_start_objective: Optional[float] = None
    #: Variable-space shrink factor of the problem-reduction pass (1.0 = none).
    prune_ratio: float = 1.0
    #: HiGHS's branch-and-bound node count, best dual bound and relative
    #: gap (None on the ``bnb`` backend, or when HiGHS reports none).
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
        Solver wall-clock limit in seconds (paper: 3600).
    backend:
        ``"scipy"`` (HiGHS via ``scipy.optimize.milp``) or ``"bnb"`` (the
        pure-Python branch-and-bound fallback).
    fallback_to_greedy:
        On solver failure/timeout, fall back to greedy extraction instead of
        raising, so end-to-end optimization always returns a graph.
    mip_rel_gap:
        Relative optimality gap passed to the MIP solver; 0 demands a proven
        optimum, small positive values trade a bounded amount of optimality
        for a large reduction in solve time on big e-graphs.
    reduce_problem:
        Prune dominated e-nodes and force the e-classes every selection must
        cover before solving (optimum-preserving; see
        :mod:`repro.egraph.extraction.problem`).
    warm_start:
        Compute the greedy solution first: the starting incumbent for
        ``bnb``, and for ``scipy`` the answer returned when HiGHS stops at a
        limit without one.  Optimum-preserving.
    """

    def __init__(
        self,
        node_cost: NodeCost,
        with_cycle_constraints: bool = False,
        integer_topo: bool = False,
        filter_list: Optional[FilterList] = None,
        time_limit: float = 3600.0,
        backend: str = "scipy",
        fallback_to_greedy: bool = True,
        mip_rel_gap: float = 0.0,
        reduce_problem: bool = True,
        warm_start: bool = True,
    ) -> None:
        if backend not in ("scipy", "bnb"):
            raise ValueError(f"unknown ILP backend {backend!r}; expected 'scipy' or 'bnb'")
        self.node_cost = node_cost
        self.with_cycle_constraints = with_cycle_constraints
        self.integer_topo = integer_topo
        self.filter_list = filter_list
        self.time_limit = time_limit
        self.backend = backend
        self.fallback_to_greedy = fallback_to_greedy
        self.mip_rel_gap = mip_rel_gap
        self.reduce_problem = reduce_problem
        self.warm_start = warm_start
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

    def _solve_scipy(self, problem: ILPProblem):
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

    def _solve_bnb(self, problem: ILPProblem, incumbent=None):
        res = solve_branch_and_bound(
            problem.c,
            problem.a_ub,
            problem.b_ub,
            problem.a_eq,
            problem.b_eq,
            problem.lower,
            problem.upper,
            problem.integrality,
            time_limit=self.time_limit,
            incumbent=incumbent,
        )
        if res.x is not None:
            return res.x, res.objective, "optimal" if res.status == "optimal" else res.status
        return None, float("inf"), res.status

    # ------------------------------------------------------------------ #

    def extract(self, egraph: EGraph, root: int) -> ExtractionResult:
        t0 = time.perf_counter()
        root = egraph.find(root)
        stages: Dict[str, float] = {}
        stage_costs: Dict[str, float] = {}

        problem = self.build_problem(egraph, root)
        stages["prune"] = time.perf_counter() - t0
        reduction = problem.reduction.as_dict() if problem.reduction is not None else None

        warm: Optional[Tuple[np.ndarray, float]] = None
        if self.warm_start:
            t_warm = time.perf_counter()
            warm = warm_start_solution(problem)
            stages["greedy"] = time.perf_counter() - t_warm
            if warm is not None:
                stage_costs["greedy"] = warm[1]

        t_solve = time.perf_counter()
        facts: Dict[str, Optional[float]] = {}
        if self.backend == "scipy":
            x, objective, status, facts = self._solve_scipy(problem)
        else:
            x, objective, status = self._solve_bnb(problem, incumbent=warm)
        stage_name = "ilp" if self.backend == "scipy" else "bnb"
        stages[stage_name] = time.perf_counter() - t_solve

        solve_seconds = time.perf_counter() - t0
        self.last_solve_info = ILPSolveInfo(
            status=status,
            objective=objective,
            solve_seconds=solve_seconds,
            num_variables=problem.num_variables,
            num_constraints=problem.a_ub.shape[0] + problem.a_eq.shape[0],
            backend=self.backend,
            warm_started=warm is not None,
            warm_start_objective=warm[1] if warm is not None else None,
            prune_ratio=problem.reduction.variable_ratio if problem.reduction else 1.0,
            **facts,
        )

        if x is None and warm is not None:
            # The solver gave nothing back, but the warm-start incumbent is a
            # full feasible solution -- return it instead of re-running greedy.
            x, objective, status = warm[0], warm[1], f"{status}_warm_incumbent"

        if x is None:
            if self.fallback_to_greedy:
                greedy = GreedyExtractor(self.node_cost, filter_list=self.filter_list)
                result = greedy.extract(egraph, root)
                result.status = f"ilp_{status}_greedy_fallback"
                result.solve_seconds = solve_seconds + result.solve_seconds
                result.stages = {**stages, **result.stages}
                result.reduction = reduction
                return result
            raise RuntimeError(f"ILP extraction failed: solver status {status!r}")

        choices = self._choices_from_solution(egraph, problem, x)
        expr = build_recexpr(egraph, root, choices)
        cost = dag_cost(egraph, root, choices, self.node_cost)
        stage_costs[stage_name] = cost
        return ExtractionResult(
            expr=expr,
            cost=cost,
            choices=choices,
            solve_seconds=solve_seconds,
            status=status,
            stages=stages,
            stage_costs=stage_costs,
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
