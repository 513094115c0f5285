"""Anytime/portfolio extraction under a wall-clock deadline.

The three extraction strategies trade optimality for time in a strict order:
greedy is near-instant but ignores sharing, branch-and-bound is exact but only
viable on small problems, and the HiGHS ILP is exact and scales furthest but
can still hit its time limit on saturated e-graphs.  The portfolio extractor
races them **sequentially** under one deadline:

1. ``greedy`` always runs (it is the feasibility guarantee -- the portfolio
   never raises on a tight deadline, it degrades to the greedy result);
2. ``bnb`` runs with a slice of the remaining budget, warm-started from the
   greedy incumbent;
3. ``ilp`` runs with everything left, on the reduced problem whose forced
   classes let HiGHS prove most optima at the root, unless BnB already
   proved optimality.

The returned :class:`~repro.egraph.extraction.base.ExtractionResult` carries
per-stage provenance: ``stages`` maps each stage that ran to its wall time,
``stage_costs`` to the cost it achieved, and ``status`` is
``"portfolio_<winner>"`` with a ``"_fallback"`` suffix whenever the deadline
forced later stages to be skipped (the PR 4 regression-guard convention --
see ``docs/extraction.md``).
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.egraph.cycles import FilterList
from repro.egraph.egraph import EGraph
from repro.egraph.extraction.base import ExtractionResult, Extractor, NodeCost
from repro.egraph.extraction.greedy import GreedyExtractor
from repro.egraph.extraction.ilp import ILPExtractor, ILPSolveInfo

__all__ = ["PortfolioExtractor"]

#: A cost must improve on the incumbent by more than this to win a stage.
_COST_TOL = 1e-12


class PortfolioExtractor(Extractor):
    """Race greedy -> BnB -> ILP under a deadline; return the best feasible term.

    Parameters
    ----------
    node_cost:
        Additive per-e-node cost shared by every stage.
    deadline:
        Total wall-clock budget in seconds for all stages combined.
    filter_list / with_cycle_constraints / integer_topo / mip_rel_gap:
        Forwarded to the exact backends (same semantics as
        :class:`~repro.egraph.extraction.ilp.ILPExtractor`).
    reduce_problem / warm_start:
        Extraction-at-scale levers forwarded to the exact backends.
    ilp_time_limit:
        Upper cap on the ILP stage's slice even when the deadline leaves more.
    bnb_share:
        Fraction of the remaining budget handed to the BnB stage.
    min_stage_seconds:
        A stage is only attempted if at least this much budget remains.
    """

    def __init__(
        self,
        node_cost: NodeCost,
        deadline: float = 60.0,
        filter_list: Optional[FilterList] = None,
        with_cycle_constraints: bool = False,
        integer_topo: bool = False,
        mip_rel_gap: float = 0.0,
        reduce_problem: bool = True,
        warm_start: bool = True,
        ilp_time_limit: float = 3600.0,
        bnb_share: float = 0.25,
        min_stage_seconds: float = 0.05,
    ) -> None:
        if deadline <= 0:
            raise ValueError(f"portfolio deadline must be positive, got {deadline}")
        self.node_cost = node_cost
        self.deadline = deadline
        self.filter_list = filter_list
        self.with_cycle_constraints = with_cycle_constraints
        self.integer_topo = integer_topo
        self.mip_rel_gap = mip_rel_gap
        self.reduce_problem = reduce_problem
        self.warm_start = warm_start
        self.ilp_time_limit = ilp_time_limit
        self.bnb_share = bnb_share
        self.min_stage_seconds = min_stage_seconds
        self.last_solve_info: Optional[ILPSolveInfo] = None

    # ------------------------------------------------------------------ #

    def extract(self, egraph: EGraph, root: int) -> ExtractionResult:
        t0 = time.perf_counter()
        remaining = lambda: self.deadline - (time.perf_counter() - t0)  # noqa: E731

        stages: Dict[str, float] = {}
        stage_costs: Dict[str, float] = {}
        reduction: Optional[Dict[str, float]] = None
        self.last_solve_info = None

        # Stage 1: greedy -- the feasibility floor.  Always runs, regardless
        # of how little budget is left.
        greedy = GreedyExtractor(self.node_cost, filter_list=self.filter_list)
        best = greedy.extract(egraph, root)
        winner = "greedy"
        stages.update(best.stages)
        stage_costs.update(best.stage_costs)

        bnb_proved_optimal = False
        skipped = False

        # Stage 2: branch and bound with a budget slice and the greedy incumbent.
        bnb_budget = max(self.min_stage_seconds, remaining() * self.bnb_share)
        if remaining() >= self.min_stage_seconds:
            bnb = ILPExtractor(
                self.node_cost,
                with_cycle_constraints=self.with_cycle_constraints,
                integer_topo=self.integer_topo,
                filter_list=self.filter_list,
                time_limit=bnb_budget,
                backend="bnb",
                fallback_to_greedy=False,
                reduce_problem=self.reduce_problem,
                warm_start=self.warm_start,
            )
            try:
                candidate = bnb.extract(egraph, root)
            except RuntimeError:
                candidate = None
            if candidate is not None:
                for name, secs in candidate.stages.items():
                    stages[name] = stages.get(name, 0.0) + secs
                if "bnb" in candidate.stage_costs:
                    stage_costs["bnb"] = candidate.stage_costs["bnb"]
                if candidate.reduction is not None:
                    reduction = candidate.reduction
                self.last_solve_info = bnb.last_solve_info
                if candidate.status == "optimal":
                    bnb_proved_optimal = True
                if candidate.cost < best.cost - _COST_TOL:
                    best, winner = candidate, "bnb"
        else:
            skipped = True

        # Stage 3: the HiGHS ILP with everything left, unless BnB already
        # proved its answer optimal (re-solving would be pure waste).
        if bnb_proved_optimal:
            pass
        elif remaining() >= self.min_stage_seconds:
            ilp = ILPExtractor(
                self.node_cost,
                with_cycle_constraints=self.with_cycle_constraints,
                integer_topo=self.integer_topo,
                filter_list=self.filter_list,
                time_limit=min(remaining(), self.ilp_time_limit),
                backend="scipy",
                fallback_to_greedy=False,
                mip_rel_gap=self.mip_rel_gap,
                reduce_problem=self.reduce_problem,
                warm_start=self.warm_start,
            )
            try:
                candidate = ilp.extract(egraph, root)
            except RuntimeError:
                candidate = None
            if candidate is not None:
                for name, secs in candidate.stages.items():
                    stages[name] = stages.get(name, 0.0) + secs
                if "ilp" in candidate.stage_costs:
                    stage_costs["ilp"] = candidate.stage_costs["ilp"]
                if candidate.reduction is not None:
                    reduction = candidate.reduction
                self.last_solve_info = ilp.last_solve_info
                if candidate.cost < best.cost - _COST_TOL:
                    best, winner = candidate, "ilp"
        else:
            skipped = True

        status = f"portfolio_{winner}"
        if skipped:
            status += "_fallback"
        return ExtractionResult(
            expr=best.expr,
            cost=best.cost,
            choices=best.choices,
            solve_seconds=time.perf_counter() - t0,
            status=status,
            stages=stages,
            stage_costs=stage_costs,
            reduction=reduction,
        )
