"""The session-based driver API: one optimization run as an object.

An :class:`OptimizationSession` owns everything one run produces -- the input
graph, the e-graph and its root, the cycle filter, the exploration reports,
the extraction, the materialized graph -- and exposes the pipeline as
explicit, individually callable steps::

    session = OptimizationSession(graph, config=TensatConfig.fast())
    while session.step() is not None:       # one saturation iteration at a
        inspect(session.egraph)             # time, resumable and inspectable
    extraction = session.extract()
    optimized = session.materialize()
    result = session.result()

Each phase method is idempotent and auto-runs its prerequisites, so
``OptimizationSession(graph).result()`` is the one-shot path --
:meth:`TensatOptimizer.optimize` is exactly that composition.  Observers
(:mod:`repro.core.events`) subscribe to the run's event stream; the
step-at-a-time loop, the one-shot path, and the batch front door
(:mod:`repro.core.batch`) all walk bit-for-bit identical trajectories
(pinned by ``tests/test_session.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import TensatConfig
from repro.core.events import dispatch_event
from repro.core.stats import OptimizationStats
from repro.costs.model import AnalyticCostModel, CostModel
from repro.egraph.cycles import CycleFilter
from repro.egraph.extraction import EXTRACTORS
from repro.egraph.extraction.base import ExtractionResult
from repro.egraph.extraction.greedy import GreedyExtractor
from repro.egraph.machine import TrieMatcher
from repro.egraph.runner import (
    IterationReport,
    Runner,
    RunnerLimits,
    RunnerReport,
    make_cycle_filter,
)
from repro.ir.convert import egraph_from_graph, recexpr_to_graph
from repro.ir.graph import TensorGraph
from repro.ir.tensor import ShapeError
from repro.ir.validate import check_same_interface, validate_graph
from repro.rules.library import RuleSet, default_ruleset

__all__ = [
    "OptimizationResult",
    "OptimizationSession",
    "materialize_extraction",
    "runner_limits_from_config",
]


@dataclass
class OptimizationResult:
    """Everything produced by one optimization run."""

    original: TensorGraph
    optimized: TensorGraph
    stats: OptimizationStats
    runner_report: Optional[RunnerReport] = None
    extraction: Optional[ExtractionResult] = None

    @property
    def speedup_percent(self) -> float:
        return self.stats.speedup_percent

    @property
    def original_cost(self) -> float:
        return self.stats.original_cost

    @property
    def optimized_cost(self) -> float:
        return self.stats.optimized_cost

    def summary(self) -> str:
        s = self.stats
        return (
            f"{self.original.name}: cost {s.original_cost:.4f} ms -> {s.optimized_cost:.4f} ms "
            f"({s.speedup_percent:+.1f}%), exploration {s.exploration_seconds:.2f}s "
            f"({s.num_enodes} e-nodes, stop: {s.stop_reason}), "
            f"extraction {s.extraction_seconds:.2f}s ({s.extraction_status})"
        )


def runner_limits_from_config(config: TensatConfig) -> RunnerLimits:
    """The exploration limits a :class:`TensatConfig` prescribes."""
    return RunnerLimits(
        node_limit=config.node_limit,
        iter_limit=config.iter_limit,
        time_limit=config.exploration_time_limit,
        k_multi=config.k_multi,
        scheduler=config.scheduler,
        match_limit=config.scheduler_match_limit,
        ban_length=config.scheduler_ban_length,
    )


def materialize_extraction(
    graph: TensorGraph,
    egraph,
    root: int,
    cycle_filter: CycleFilter,
    extraction: ExtractionResult,
    cost_model: CostModel,
) -> Tuple[TensorGraph, ExtractionResult, str]:
    """Turn an extracted term into a concrete graph, falling back when needed.

    The tensor analysis attaches split locations (the cut position of the
    most recent concat) to e-classes, but an e-class can end up holding
    concats with *different* cut positions; an extraction that pairs a
    ``split`` with the "other" concat then fails shape inference when the
    concrete graph is rebuilt.  This is rare (it needs several interacting
    merge rewrites, typically at k_multi >= 2) and the safe response is the
    one TASO-style systems take: reject the candidate and fall back, first
    to greedy extraction and ultimately to the original graph.

    Returns ``(optimized_graph, extraction_result, status)``.  The status
    records the fallback provenance (``"<status>_rejected_greedy_fallback"``
    / ``"<status>_rejected_original_kept"``); the passed-in
    :class:`ExtractionResult` is never mutated.
    """
    try:
        optimized = recexpr_to_graph(extraction.expr, name=f"{graph.name}-optimized")
        return optimized, extraction, extraction.status
    except (ShapeError, ValueError):
        pass
    try:
        node_cost = cost_model.extraction_cost_function()
        greedy = GreedyExtractor(node_cost, filter_list=cycle_filter.filter_list).extract(egraph, root)
        optimized = recexpr_to_graph(greedy.expr, name=f"{graph.name}-optimized")
        return optimized, greedy, f"{extraction.status}_rejected_greedy_fallback"
    except (ShapeError, ValueError):
        return graph, extraction, f"{extraction.status}_rejected_original_kept"


class OptimizationSession:
    """One optimization run: steppable phases over owned state.

    Parameters
    ----------
    graph:
        The input :class:`TensorGraph` (loaded into a fresh e-graph).
    cost_model:
        Per-operator cost model (defaults to the analytic T4-like model).
    rules:
        Rewrite rules (defaults to the full library).
    config:
        Pipeline configuration (defaults to the paper's settings).
    observers:
        Subscribers to the run's event stream (see :mod:`repro.core.events`).
    shared_trie:
        A pre-compiled rule trie to reuse (see
        :func:`repro.core.batch.compile_shared_trie`); it must have been
        compiled from ``rules``.  Sharing only skips recompilation -- results
        are identical.

    Attributes of interest between phases: ``egraph``, ``root``,
    ``cycle_filter``, ``runner`` (with ``runner.iterations`` /
    ``runner.stop_reason``), ``report``, ``extraction``,
    ``extraction_status``, ``optimized``, ``phase_seconds``.
    """

    def __init__(
        self,
        graph: TensorGraph,
        cost_model: Optional[CostModel] = None,
        rules: Optional[RuleSet] = None,
        config: Optional[TensatConfig] = None,
        observers: Sequence[object] = (),
        shared_trie: Optional[TrieMatcher] = None,
    ) -> None:
        self.graph = graph
        self.cost_model = cost_model if cost_model is not None else AnalyticCostModel()
        self.rules = rules if rules is not None else default_ruleset()
        self.config = config if config is not None else TensatConfig()
        self.observers = tuple(observers)
        self.egraph, self.root = egraph_from_graph(graph)
        self.cycle_filter = make_cycle_filter(self.config.cycle_filter)
        self.runner = Runner(
            self.egraph,
            rewrites=self.rules.rewrites,
            multi_rewrites=self.rules.multi_rewrites,
            limits=runner_limits_from_config(self.config),
            cycle_filter=self.cycle_filter,
            observers=self.observers,
            trie_matcher=shared_trie,
        )
        self.original_cost = self.cost_model.graph_cost(graph)
        #: Aggregate exploration report, set once exploration stops.
        self.report: Optional[RunnerReport] = None
        #: Primary extraction (or the greedy fallback that replaced it).
        self.extraction: Optional[ExtractionResult] = None
        #: Effective extraction status, including fallback / guard provenance.
        self.extraction_status: str = ""
        #: The materialized output graph, set by :meth:`materialize`.
        self.optimized: Optional[TensorGraph] = None
        self.optimized_cost: Optional[float] = None
        #: Completed pipeline phases -> seconds (mirrors the ``on_phase`` events).
        self.phase_seconds: Dict[str, float] = {}
        self._result: Optional[OptimizationResult] = None
        #: The extractor built by :meth:`extract` (exposes ``last_solve_info``).
        self._extractor = None

    # -- events --------------------------------------------------------- #

    def _emit(self, event: str, *args) -> None:
        dispatch_event(self.observers, event, *args)

    def _end_phase(self, phase: str, seconds: float) -> None:
        self.phase_seconds[phase] = seconds
        self._emit("on_phase", phase, seconds)

    # -- exploration ----------------------------------------------------- #

    @property
    def iteration_reports(self) -> List[IterationReport]:
        """Per-iteration exploration reports so far (valid mid-exploration)."""
        return self.runner.iterations

    def step(self) -> Optional[IterationReport]:
        """Advance exploration by one saturation iteration.

        Returns the iteration's report, or ``None`` once exploration has
        stopped (saturation or a limit) -- at which point :attr:`report`
        is populated and the ``"exploration"`` phase event fires.  The
        e-graph is inspectable (but must not be mutated) between steps.
        """
        if self.report is not None:
            return None
        iteration = self.runner.step()
        if iteration is None:
            self.report = self.runner.report()
            self._end_phase("exploration", self.report.total_seconds)
        return iteration

    def explore(self) -> RunnerReport:
        """Run exploration to completion (no-op if already finished)."""
        while self.step() is not None:
            pass
        return self.report

    # -- extraction ------------------------------------------------------ #

    def extract(self) -> ExtractionResult:
        """Extract the cheapest represented graph (exploring first if needed).

        The extractor is built by the :data:`~repro.egraph.extraction.EXTRACTORS`
        entry named by ``config.extraction``.
        """
        if self.extraction is not None:
            return self.extraction
        if self.report is None:
            self.explore()
        t0 = time.perf_counter()
        extractor = EXTRACTORS[self.config.extraction](
            self.cost_model.extraction_cost_function(), self.config, self.cycle_filter.filter_list
        )
        self._extractor = extractor
        self.extraction = extractor.extract(self.egraph, self.root)
        self.extraction_status = self.extraction.status
        self._emit("on_extraction", self.extraction)
        self._end_phase("extraction", time.perf_counter() - t0)
        return self.extraction

    # -- materialization ------------------------------------------------- #

    def materialize(self) -> TensorGraph:
        """Turn the extraction into a validated output graph.

        Runs the fallback chain (:func:`materialize_extraction`), then the
        cost-regression guard: the e-graph always represents the original
        term, so extraction can never *really* do worse than the input --
        but cost-model or bookkeeping regressions are guarded against by
        keeping the original graph and recording
        ``"<status>_regression_guard_original_kept"`` in
        :attr:`extraction_status`.
        """
        if self.optimized is not None:
            return self.optimized
        extraction = self.extract()
        t0 = time.perf_counter()
        optimized, extraction, status = materialize_extraction(
            self.graph, self.egraph, self.root, self.cycle_filter, extraction, self.cost_model
        )
        optimized_cost = self.cost_model.graph_cost(optimized)
        if optimized_cost > self.original_cost + 1e-9:
            optimized = self.graph
            optimized_cost = self.original_cost
            status = f"{status}_regression_guard_original_kept"

        validate_graph(optimized)
        check_same_interface(self.graph, optimized)
        if self.config.verify_numerically:
            # numpy loads here, so runs that do not verify never import it.
            from repro.backend.executor import execute_graph, outputs_allclose

            if not outputs_allclose(
                execute_graph(self.graph), execute_graph(optimized), rtol=1e-4, atol=1e-5
            ):
                raise RuntimeError(
                    f"optimized graph for {self.graph.name!r} is not numerically "
                    "equivalent to the original"
                )

        self.extraction = extraction
        self.extraction_status = status
        self.optimized = optimized
        self.optimized_cost = optimized_cost
        self._end_phase("materialization", time.perf_counter() - t0)
        return optimized

    # -- result ---------------------------------------------------------- #

    def result(self) -> OptimizationResult:
        """The run's :class:`OptimizationResult` (running remaining phases)."""
        if self._result is not None:
            return self._result
        self.materialize()
        if self.report is None:
            # A custom/stubbed extract() may have skipped exploration.
            self.explore()
        stats = OptimizationStats.from_runner_report(self.report)
        stats.extraction_seconds = self.phase_seconds.get("extraction", 0.0)
        stats.total_seconds = sum(self.phase_seconds.values())
        stats.original_cost = self.original_cost
        stats.optimized_cost = self.optimized_cost
        stats.extraction_status = self.extraction_status
        if self.extraction is not None:
            stats.extraction_stage_seconds = dict(self.extraction.stages)
            reduction = self.extraction.reduction
            if reduction and reduction.get("nodes_after", 0) > 0:
                stats.extraction_prune_ratio = reduction["nodes_before"] / reduction["nodes_after"]
        solve_info = getattr(self._extractor, "last_solve_info", None)
        if solve_info is not None:
            stats.ilp_num_variables = solve_info.num_variables
            stats.ilp_num_constraints = solve_info.num_constraints
        self._result = OptimizationResult(
            original=self.graph,
            optimized=self.optimized,
            stats=stats,
            runner_report=self.report,
            extraction=self.extraction,
        )
        return self._result
