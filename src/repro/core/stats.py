"""Statistics reported by the TENSAT optimizer.

These mirror the quantities the paper reports: optimization-time breakdown
into exploration and extraction (Table 3), e-graph sizes (Figure 7), and the
cost/speedup of the optimized graph (Table 1, Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.egraph.runner import RunnerReport

__all__ = ["OptimizationStats"]


@dataclass
class OptimizationStats:
    """Phase timings, e-graph sizes, and costs of one optimization run."""

    exploration_seconds: float = 0.0
    extraction_seconds: float = 0.0
    total_seconds: float = 0.0

    #: Exploration broken into the pipeline's phases: searching for matches,
    #: planning + applying them, and flushing unions / restoring congruence.
    search_seconds: float = 0.0
    apply_seconds: float = 0.0
    rebuild_seconds: float = 0.0
    #: Time spent building the multi-pattern join's probe indexes (a
    #: sub-span of the search phase; 0.0 when no multi-pattern rule ran).
    #: The combinations themselves are joined as the apply phase draws
    #: them, so that work counts in ``apply_seconds``.
    multi_join_seconds: float = 0.0
    #: Time spent filtering single-pattern rules' matches through their
    #: conditions (a sub-span of the search phase; multi-pattern conditions
    #: run as their combinations are drawn and count in ``apply_seconds``).
    condition_seconds: float = 0.0

    exploration_iterations: int = 0
    stop_reason: str = ""
    num_enodes: int = 0
    num_eclasses: int = 0
    num_filtered_nodes: int = 0
    cycles_resolved: int = 0

    original_cost: float = 0.0
    optimized_cost: float = 0.0
    extraction_status: str = ""
    ilp_num_variables: int = 0
    ilp_num_constraints: int = 0
    #: Extraction wall time split into pipeline stages (``"prune"`` /
    #: ``"ilp"`` / ``"greedy"``, whichever ran); empty when the extractor
    #: predates the stage accounting.
    extraction_stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: Variable-space shrink factor of the dominated-node pruning pass
    #: (nodes before / nodes after; 1.0 when pruning was off or free).
    extraction_prune_ratio: float = 1.0

    @property
    def speedup_percent(self) -> float:
        """Cost-model speedup of the optimized graph over the original (paper convention)."""
        if self.optimized_cost <= 0:
            return 0.0
        return (self.original_cost / self.optimized_cost - 1.0) * 100.0

    @classmethod
    def from_runner_report(cls, report: RunnerReport) -> "OptimizationStats":
        """Exploration totals, each summed once over ``report.iterations``."""
        its = report.iterations
        return cls(
            exploration_seconds=report.total_seconds,
            search_seconds=sum(it.search_seconds for it in its),
            apply_seconds=sum(it.apply_seconds for it in its),
            rebuild_seconds=sum(it.rebuild_seconds for it in its),
            multi_join_seconds=sum(it.multi_join_seconds for it in its),
            condition_seconds=sum(it.condition_seconds for it in its),
            exploration_iterations=report.num_iterations,
            stop_reason=report.stop_reason.value,
            num_enodes=report.n_enodes,
            num_eclasses=report.n_eclasses,
            num_filtered_nodes=report.n_filtered,
            cycles_resolved=sum(it.n_cycles_resolved for it in its),
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "exploration_seconds": round(self.exploration_seconds, 4),
            "search_seconds": round(self.search_seconds, 4),
            "apply_seconds": round(self.apply_seconds, 4),
            "rebuild_seconds": round(self.rebuild_seconds, 4),
            "multi_join_seconds": round(self.multi_join_seconds, 4),
            "condition_seconds": round(self.condition_seconds, 4),
            "extraction_seconds": round(self.extraction_seconds, 4),
            "total_seconds": round(self.total_seconds, 4),
            "iterations": self.exploration_iterations,
            "stop_reason": self.stop_reason,
            "enodes": self.num_enodes,
            "eclasses": self.num_eclasses,
            "filtered_nodes": self.num_filtered_nodes,
            "cycles_resolved": self.cycles_resolved,
            "original_cost_ms": self.original_cost,
            "optimized_cost_ms": self.optimized_cost,
            "speedup_percent": round(self.speedup_percent, 2),
            "extraction_status": self.extraction_status,
            "extraction_stage_seconds": {
                name: round(secs, 4) for name, secs in self.extraction_stage_seconds.items()
            },
            "extraction_prune_ratio": round(self.extraction_prune_ratio, 4),
            "ilp_num_variables": self.ilp_num_variables,
            "ilp_num_constraints": self.ilp_num_constraints,
        }
