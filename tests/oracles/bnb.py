"""A small pure-Python branch-and-bound 0/1 MILP solver: the reference HiGHS is checked against.

It solves::

    min  c @ x
    s.t. A_ub @ x <= b_ub
         A_eq @ x == b_eq
         lower <= x <= upper
         x_i integer for integrality_i == 1

by depth-first LP-relaxation branch and bound, using
:func:`scipy.optimize.linprog` for the relaxations.  It is meant for the
small e-graphs of the tests, as a second solver for the extraction problem:
:class:`BnBExtractor` runs it in place of the HiGHS MIP solve, so the
extraction ILP's optimum can be compared between the two
(``tests/test_extraction_equivalence.py``, ``tests/test_extraction_ilp.py``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.egraph.extraction.ilp import ILPExtractor
from repro.egraph.extraction.problem import ILPProblem

__all__ = ["BnBExtractor", "BnBResult", "solve_branch_and_bound"]


@dataclass
class BnBResult:
    """Result of the branch-and-bound solve."""

    x: Optional[np.ndarray]
    objective: float
    status: str  # "optimal", "infeasible", "timeout", "node_limit"
    nodes_explored: int
    seconds: float


def _solve_relaxation(c, a_ub, b_ub, a_eq, b_eq, lower, upper):
    bounds = np.column_stack([lower, upper])
    return linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")


def solve_branch_and_bound(
    c: np.ndarray,
    a_ub: sparse.csr_matrix,
    b_ub: np.ndarray,
    a_eq: sparse.csr_matrix,
    b_eq: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    integrality: np.ndarray,
    time_limit: float = 60.0,
    node_limit: int = 10_000,
    tol: float = 1e-6,
) -> BnBResult:
    """Depth-first branch and bound with best-known-incumbent pruning."""
    t0 = time.perf_counter()
    integer_vars = np.where(integrality > 0.5)[0]

    best_x: Optional[np.ndarray] = None
    best_obj = math.inf
    nodes_explored = 0
    status = "optimal"

    # Each stack entry is a (lower_bounds, upper_bounds) pair defining a subproblem.
    stack = [(lower.copy(), upper.copy())]

    while stack:
        if time.perf_counter() - t0 > time_limit:
            status = "timeout"
            break
        if nodes_explored >= node_limit:
            status = "node_limit"
            break

        lo, hi = stack.pop()
        nodes_explored += 1
        res = _solve_relaxation(c, a_ub, b_ub, a_eq, b_eq, lo, hi)
        if not res.success:
            continue  # infeasible subproblem
        if res.fun >= best_obj - tol:
            continue  # bound: cannot beat incumbent

        x = res.x
        # Find the most fractional integer variable.
        frac_var = -1
        frac_dist = tol
        for i in integer_vars:
            frac = abs(x[i] - round(x[i]))
            if frac > frac_dist:
                frac_dist = frac
                frac_var = i

        if frac_var < 0:
            # Integral (within tolerance) solution: round and record as incumbent.
            x_int = x.copy()
            x_int[integer_vars] = np.round(x_int[integer_vars])
            obj = float(c @ x_int)
            if obj < best_obj - tol:
                best_obj = obj
                best_x = x_int
            continue

        # Branch on frac_var: floor branch and ceil branch.
        floor_val = math.floor(x[frac_var])
        ceil_val = floor_val + 1

        lo_floor, hi_floor = lo.copy(), hi.copy()
        hi_floor[frac_var] = min(hi_floor[frac_var], floor_val)
        lo_ceil, hi_ceil = lo.copy(), hi.copy()
        lo_ceil[frac_var] = max(lo_ceil[frac_var], ceil_val)

        # Explore the branch suggested by the relaxation first (depth-first).
        if x[frac_var] - floor_val > 0.5:
            stack.append((lo_floor, hi_floor))
            stack.append((lo_ceil, hi_ceil))
        else:
            stack.append((lo_ceil, hi_ceil))
            stack.append((lo_floor, hi_floor))

    if best_x is None and status == "optimal":
        status = "infeasible"
    return BnBResult(
        x=best_x,
        objective=best_obj,
        status=status,
        nodes_explored=nodes_explored,
        seconds=time.perf_counter() - t0,
    )


class BnBExtractor(ILPExtractor):
    """:class:`ILPExtractor` with its HiGHS MIP solve replaced by :func:`solve_branch_and_bound`.

    The problem build, the solution decoding and the greedy fallback are the
    production extractor's; only the solver differs.  HiGHS's node count,
    dual bound and gap are not reported (``None``).
    """

    def _solve(self, problem: ILPProblem):
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
        )
        return res.x, res.objective, res.status, {}
