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
:func:`optimize` is the one-call composition of them.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.config import TensatConfig
from repro.core.session import OptimizationResult, OptimizationSession
from repro.costs.model import CostModel
from repro.ir.graph import TensorGraph
from repro.rules.library import RuleSet

__all__ = ["optimize"]


def optimize(
    graph: TensorGraph,
    cost_model: Optional[CostModel] = None,
    rules: Optional[RuleSet] = None,
    config: Optional[TensatConfig] = None,
    observers: Sequence[object] = (),
    **config_overrides,
) -> OptimizationResult:
    """Optimize ``graph`` end-to-end: ``OptimizationSession(...).result()``.

    ``cost_model`` defaults to the analytic T4-like model, ``rules`` to the
    full library and ``config`` to the paper's settings.  Keyword arguments
    are applied as overrides on top of ``config``, e.g.
    ``optimize(graph, k_multi=2, extraction="greedy")``.
    """
    config = config if config is not None else TensatConfig()
    if config_overrides:
        config = config.with_overrides(**config_overrides)
    return OptimizationSession(
        graph, cost_model=cost_model, rules=rules, config=config, observers=observers
    ).result()
