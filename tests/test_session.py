"""Session-API semantics: step parity, observers, batch parity, shims.

The acceptance invariant of the session redesign is that every driving style
-- step-at-a-time ``session.step()`` loops, the one-shot ``optimize()``
composition, and the batch ``optimize_many()`` front door sharing one
compiled rule trie -- walks a bit-for-bit identical saturation trajectory
and produces identical extraction results.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import (
    OptimizationSession,
    OptimizationObserver,
    RecordingObserver,
    TensatConfig,
    optimize,
    optimize_many,
)
from repro.models import build_model

FAST = TensatConfig.fast()

#: Small budgets: parity tests check equivalence, not scale.
GOLDEN_CONFIG = dict(node_limit=1_500, iter_limit=4, k_multi=1, extraction="greedy")


def _trajectory(result) -> dict:
    """Everything that must be bit-for-bit identical across driving styles."""
    report = result.runner_report
    return {
        "num_enodes": result.stats.num_enodes,
        "num_eclasses": result.stats.num_eclasses,
        "original_cost": result.stats.original_cost,
        "optimized_cost": result.stats.optimized_cost,
        "stop_reason": result.stats.stop_reason,
        "extraction_status": result.stats.extraction_status,
        "iterations": report.num_iterations,
        "per_iteration_matches": tuple(it.n_matches for it in report.iterations),
        "per_iteration_applied": tuple(it.n_applied for it in report.iterations),
        "per_iteration_deduped": tuple(it.n_deduped for it in report.iterations),
        "per_iteration_enodes": tuple(it.n_enodes for it in report.iterations),
    }


class TestStepParity:
    @pytest.mark.slow
    @pytest.mark.parametrize("model", ["nasrnn", "resnext"])
    def test_step_loop_matches_one_shot_optimize(self, model):
        config = TensatConfig(**GOLDEN_CONFIG)
        one_shot = optimize(build_model(model, "tiny"), config=config)

        session = OptimizationSession(build_model(model, "tiny"), config=config)
        n_steps = 0
        while session.step() is not None:
            n_steps += 1
            # The session is inspectable between iterations.
            assert session.iteration_reports[-1].index == n_steps - 1
            assert session.egraph.num_enodes > 0
        result = session.result()

        assert n_steps == one_shot.runner_report.num_iterations
        assert _trajectory(result) == _trajectory(one_shot)

    def test_step_parity_fast(self, shared_matmul_graph, nasrnn_like_graph):
        for graph_a, graph_b in ((shared_matmul_graph, nasrnn_like_graph),):
            for graph in (graph_a, graph_b):
                one_shot = optimize(graph, config=FAST)
                session = OptimizationSession(graph, config=FAST)
                while session.step() is not None:
                    pass
                assert _trajectory(session.result()) == _trajectory(one_shot)

    def test_step_returns_none_after_exploration_stops(self, shared_matmul_graph):
        session = OptimizationSession(shared_matmul_graph, config=FAST)
        session.explore()
        assert session.report is not None
        assert session.step() is None
        assert session.runner.done
        assert session.runner.stop_reason is not None

    def test_phases_are_idempotent(self, shared_matmul_graph):
        session = OptimizationSession(shared_matmul_graph, config=FAST)
        report = session.explore()
        assert session.explore() is report
        extraction = session.extract()
        assert session.extract() is extraction
        optimized = session.materialize()
        assert session.materialize() is optimized
        result = session.result()
        assert session.result() is result

    def test_result_runs_all_phases(self, shared_matmul_graph):
        result = OptimizationSession(shared_matmul_graph, config=FAST).result()
        assert result.stats.num_enodes > 0
        assert result.stats.extraction_status
        assert result.stats.total_seconds >= result.stats.exploration_seconds

    def test_runner_report_requires_stop(self, shared_matmul_graph):
        session = OptimizationSession(shared_matmul_graph, config=FAST)
        session.step()
        if not session.runner.done:
            with pytest.raises(RuntimeError):
                session.runner.report()


class TestObservers:
    def test_event_stream_ordering_and_counts(self, shared_matmul_graph):
        recorder = RecordingObserver()
        result = optimize(shared_matmul_graph, config=FAST, observers=[recorder])
        report = result.runner_report

        starts = recorder.of_kind("iteration_start")
        ends = recorder.of_kind("iteration_end")
        assert len(starts) == len(ends) == report.num_iterations
        assert [e[1] for e in starts] == list(range(report.num_iterations))
        assert [e[1] for e in ends] == list(range(report.num_iterations))

        # Phases complete in pipeline order, exactly once each.
        phases = [e[1] for e in recorder.of_kind("phase")]
        assert phases == ["exploration", "extraction", "materialization"]

        # Every iteration's match batches land between its start and end
        # events, and their counts sum to the iteration's n_matches.
        for iteration, it_report in enumerate(report.iterations):
            batch_total = sum(
                e[3] for e in recorder.of_kind("match_batch") if e[1] == iteration
            )
            assert batch_total == it_report.n_matches
        kinds = [e[0] for e in recorder.events]
        first_end = kinds.index("iteration_end")
        assert "iteration_start" in kinds[:first_end]

    def test_event_interleaving_per_iteration(self, shared_matmul_graph):
        recorder = RecordingObserver()
        optimize(shared_matmul_graph, config=FAST, observers=[recorder])
        current = None
        for event in recorder.events:
            if event[0] == "iteration_start":
                assert current is None
                current = event[1]
            elif event[0] == "match_batch":
                assert event[1] == current
            elif event[0] == "iteration_end":
                assert event[1] == current
                current = None

    def test_observers_do_not_change_trajectory(self, nasrnn_like_graph):
        silent = optimize(nasrnn_like_graph, config=FAST)
        observed = optimize(
            nasrnn_like_graph, config=FAST, observers=[RecordingObserver(), OptimizationObserver()]
        )
        assert _trajectory(observed) == _trajectory(silent)

    def test_phase_events_and_stage_totals_match_stats(self, shared_matmul_graph):
        recorder = RecordingObserver()
        result = optimize(shared_matmul_graph, config=FAST, observers=[recorder])
        stats = result.stats
        phases = {name: seconds for _kind, name, seconds in recorder.of_kind("phase")}
        assert list(phases) == ["exploration", "extraction", "materialization"]
        assert phases["exploration"] == stats.exploration_seconds
        assert phases["extraction"] == stats.extraction_seconds
        assert sum(phases.values()) == pytest.approx(stats.total_seconds)
        iterations = result.runner_report.iterations
        assert len(recorder.of_kind("iteration_end")) == len(iterations)
        for field in ("search_seconds", "apply_seconds", "rebuild_seconds",
                      "multi_join_seconds", "condition_seconds"):
            assert getattr(stats, field) == pytest.approx(
                sum(getattr(it, field) for it in iterations)
            )


@pytest.mark.parametrize("extraction", ["greedy", "ilp"])
def test_finished_session_frees_its_egraph_by_refcounting(extraction):
    """No reference cycle holds a finished run's e-graph.

    A cycle through it (a self-referencing recursive closure, say) would
    keep every e-node alive until the next cyclic collection, so a closed
    loop of runs would carry the previous run's e-graph into the next.
    """
    config = TensatConfig(**{**GOLDEN_CONFIG, "iter_limit": 3, "extraction": extraction})
    graph = build_model("nasrnn", "tiny")
    gc.collect()
    gc.disable()
    try:
        session = OptimizationSession(graph, config=config)
        result = session.result()
        assert extraction in result.stats.extraction_stage_seconds
        egraph = weakref.ref(session.egraph)
        del session, result
        assert egraph() is None
    finally:
        gc.enable()


class TestOptimizeMany:
    @pytest.mark.slow
    def test_batch_matches_sequential(self):
        config = TensatConfig(**GOLDEN_CONFIG)
        models = ["nasrnn", "resnext"]
        batch = optimize_many([build_model(m, "tiny") for m in models], config=config)
        sequential = [optimize(build_model(m, "tiny"), config=config) for m in models]
        assert len(batch) == len(sequential) == 2
        for batched, single in zip(batch, sequential):
            assert _trajectory(batched) == _trajectory(single)

    def test_batch_fast_and_overrides(self, shared_matmul_graph, nasrnn_like_graph):
        results = optimize_many(
            [shared_matmul_graph, nasrnn_like_graph], config=FAST, extraction="greedy"
        )
        assert len(results) == 2
        for result in results:
            assert result.optimized_cost <= result.original_cost + 1e-9
            assert result.stats.extraction_status.startswith("greedy") or result.stats.extraction_status
