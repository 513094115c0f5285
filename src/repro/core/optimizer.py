"""The TENSAT optimizer: equality-saturation exploration followed by extraction.

This is the paper's primary contribution assembled end-to-end:

1. the input :class:`~repro.ir.graph.TensorGraph` is loaded into an e-graph
   carrying the tensor analysis (shape / split-location metadata),
2. the exploration phase applies all rewrite rules simultaneously, with
   multi-pattern rules limited to the first ``k_multi`` iterations and cycle
   filtering keeping the e-graph extractable (Sections 4 and 5.2),
3. the extraction phase selects the cheapest equivalent graph with either the
   greedy algorithm or the ILP (Section 5.1),
4. the selected term is converted back to a :class:`TensorGraph`, validated,
   and returned together with detailed statistics.

The phases live on :class:`~repro.core.session.OptimizationSession`;
:class:`TensatOptimizer` is the configured front door whose
:meth:`~TensatOptimizer.optimize` is a thin composition of the session's
steps.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.config import TensatConfig
from repro.core.session import OptimizationResult, OptimizationSession
from repro.costs.model import AnalyticCostModel, CostModel
from repro.ir.graph import TensorGraph
from repro.rules.library import RuleSet, default_ruleset

__all__ = ["OptimizationResult", "TensatOptimizer", "optimize"]


class TensatOptimizer:
    """Tensor graph superoptimizer based on equality saturation.

    Parameters
    ----------
    cost_model:
        Per-operator cost model (defaults to the analytic T4-like model).
    rules:
        Rewrite rules (defaults to the full library).
    config:
        Pipeline configuration (defaults to the paper's settings).
    """

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        rules: Optional[RuleSet] = None,
        config: Optional[TensatConfig] = None,
    ) -> None:
        self.cost_model = cost_model if cost_model is not None else AnalyticCostModel()
        self.rules = rules if rules is not None else default_ruleset()
        self.config = config if config is not None else TensatConfig()

    # ------------------------------------------------------------------ #

    def session(self, graph: TensorGraph, observers: Sequence[object] = ()) -> OptimizationSession:
        """Start an :class:`OptimizationSession` for ``graph`` (nothing runs yet)."""
        return OptimizationSession(
            graph,
            cost_model=self.cost_model,
            rules=self.rules,
            config=self.config,
            observers=observers,
        )

    def optimize(self, graph: TensorGraph, observers: Sequence[object] = ()) -> OptimizationResult:
        """Optimize ``graph`` end-to-end (the one-shot session composition)."""
        return self.session(graph, observers=observers).result()


def optimize(
    graph: TensorGraph,
    cost_model: Optional[CostModel] = None,
    rules: Optional[RuleSet] = None,
    config: Optional[TensatConfig] = None,
    observers: Sequence[object] = (),
    **config_overrides,
) -> OptimizationResult:
    """One-call convenience wrapper around :class:`TensatOptimizer`.

    Keyword arguments are applied as overrides on top of ``config`` (or the
    default configuration), e.g. ``optimize(graph, k_multi=2, extraction="greedy")``.
    """
    base = config if config is not None else TensatConfig()
    if config_overrides:
        base = base.with_overrides(**config_overrides)
    return TensatOptimizer(cost_model=cost_model, rules=rules, config=base).optimize(
        graph, observers=observers
    )
