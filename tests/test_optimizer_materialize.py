"""Regression tests for the materialization fallback chain.

An extraction can select a term that fails shape inference when rebuilt into
a concrete graph (mixed split locations in one e-class; see
:func:`repro.core.session.materialize_extraction`).  The safe response is
staged: reject the candidate and re-extract greedily, and if that also
fails, keep the original graph.  These tests drive each stage directly.
The effective status is *returned* alongside the result -- the passed-in
:class:`ExtractionResult` is never mutated in place.
"""

from __future__ import annotations

import pytest

import repro.core.session as session_module
from repro.core.config import TensatConfig
from repro.core.optimizer import optimize
from repro.core.session import OptimizationSession, materialize_extraction
from repro.costs import AnalyticCostModel
from repro.egraph.extraction.base import ExtractionResult
from repro.egraph.language import RecExpr

CONFIG = TensatConfig.fast()

#: A term whose matmul inner dimensions disagree: converting it back to a
#: TensorGraph raises ShapeError.
BAD_EXPR = RecExpr.parse('(matmul 0 (input "x@8 64") (weight "w@7 5"))')


@pytest.fixture
def explored(shared_matmul_graph):
    session = OptimizationSession(shared_matmul_graph, config=CONFIG)
    session.explore()
    return session


def _bad_extraction() -> ExtractionResult:
    return ExtractionResult(expr=BAD_EXPR, cost=1.0, status="ilp_optimal")


def test_rejected_ilp_falls_back_to_greedy(explored):
    session = explored
    bad = _bad_extraction()
    optimized, extraction, status = materialize_extraction(
        session.graph, session.egraph, session.root, session.cycle_filter, bad, session.cost_model
    )
    # The greedy re-extraction succeeds; the provenance lives in the returned
    # status, and neither ExtractionResult was mutated to carry it.
    assert status == "ilp_optimal_rejected_greedy_fallback"
    assert bad.status == "ilp_optimal"
    assert extraction is not bad
    assert "rejected" not in extraction.status
    assert optimized is not session.graph
    assert optimized.name == f"{session.graph.name}-optimized"


def test_rejected_greedy_keeps_original(explored, monkeypatch):
    session = explored

    class AlwaysBadGreedy:
        def __init__(self, *args, **kwargs):
            pass

        def extract(self, egraph, root):
            return _bad_extraction()

    monkeypatch.setattr(session_module, "GreedyExtractor", AlwaysBadGreedy)
    bad = _bad_extraction()
    optimized, returned, status = materialize_extraction(
        session.graph, session.egraph, session.root, session.cycle_filter, bad, session.cost_model
    )
    # Both stages failed: the original graph is kept, the terminal rejection
    # is recorded in the returned status, and the extraction is untouched.
    assert optimized is session.graph
    assert returned is bad
    assert returned.status == "ilp_optimal"
    assert status == "ilp_optimal_rejected_original_kept"


def test_healthy_extraction_passes_through(explored):
    session = explored
    healthy = session.extract()
    optimized, returned, status = materialize_extraction(
        session.graph, session.egraph, session.root, session.cycle_filter, healthy, session.cost_model
    )
    assert returned is healthy
    assert status == healthy.status
    assert "rejected" not in status


def test_end_to_end_optimize_survives_bad_primary_extraction(shared_matmul_graph, monkeypatch):
    """The full pipeline stays correct when the primary extraction is rejected."""

    def bad_extract(self):
        if self.extraction is None:
            self.extraction = _bad_extraction()
            self.extraction_status = self.extraction.status
        return self.extraction

    monkeypatch.setattr(OptimizationSession, "extract", bad_extract)
    result = optimize(shared_matmul_graph, config=CONFIG)
    assert result.stats.extraction_status.startswith("ilp_optimal_rejected")
    # Whatever fallback stage won, the output must be a valid graph no more
    # expensive than the input.
    assert result.optimized_cost <= result.original_cost + 1e-9


def test_regression_guard_records_status(shared_matmul_graph):
    """A cost-model regression on the materialized graph keeps the original
    and records the guard in the extraction status (it is never silent)."""

    class InflatingCostModel(AnalyticCostModel):
        # The materialized candidate is always named "<input>-optimized", so
        # inflating its graph cost forces the guard while extraction itself
        # (which uses the per-node cost function) behaves normally.
        def graph_cost(self, graph):
            cost = super().graph_cost(graph)
            if graph.name.endswith("-optimized"):
                return cost * 100.0
            return cost

    result = optimize(shared_matmul_graph, cost_model=InflatingCostModel(), config=CONFIG)
    assert result.optimized is result.original
    assert result.optimized_cost == result.original_cost
    assert result.stats.extraction_status.endswith("_regression_guard_original_kept")
    # The ExtractionResult itself is not rewritten by the guard.
    assert "regression_guard" not in result.extraction.status
