"""Observer hooks for the optimization pipeline.

An observer subscribes to the event stream of an
:class:`~repro.core.session.OptimizationSession` (and the
:class:`~repro.egraph.runner.Runner` it drives).  Stats collection,
per-phase timing, progress display, and benchmark instrumentation are all
subscribers of this stream instead of fields hand-carried through the
pipeline.

Events, in emission order for one run:

* ``on_iteration_start(iteration, egraph)`` -- before an exploration
  iteration searches the (frozen) e-graph.
* ``on_match_batch(iteration, rule, n_matches, admitted)`` -- once per
  searched rule per iteration, with the rule's match count and whether the
  scheduler admitted the matches into the apply plan.  Scheduler-banned
  rules are never searched, so they emit nothing.
* ``on_iteration_end(iteration, report)`` -- after the iteration's rebuild,
  with the fully populated :class:`~repro.egraph.runner.IterationReport`.
* ``on_extraction(result)`` -- when extraction completes, with the
  :class:`~repro.egraph.extraction.base.ExtractionResult` (carrying the
  per-stage timing/cost breakdown and problem-reduction stats).
* ``on_phase(phase, seconds)`` -- when a pipeline phase completes:
  ``"exploration"`` (once saturation stops), ``"extraction"``, and
  ``"materialization"``.

Observers are notified synchronously on the optimizer's thread and must not
mutate the e-graph: the golden-trajectory tests pin that attaching observers
never changes results.  Events are dispatched by duck typing (only the hooks
an object defines are called), but subclassing :class:`OptimizationObserver`
is the supported way to stay compatible with future events.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

__all__ = ["OptimizationObserver", "PhaseTimingObserver", "RecordingObserver", "dispatch_event"]


def dispatch_event(observers: Iterable[object], event: str, *args) -> None:
    """Fan one event out to every observer that defines the hook.

    Dispatch is duck-typed -- only the hooks an object defines are called --
    and synchronous; both the session and the runner route their emissions
    through this one function.
    """
    for observer in observers:
        hook = getattr(observer, event, None)
        if hook is not None:
            hook(*args)


class OptimizationObserver:
    """Base observer: every hook is a no-op.  Subclass and override."""

    def on_phase(self, phase: str, seconds: float) -> None:
        """A pipeline phase (exploration / extraction / materialization) completed."""

    def on_iteration_start(self, iteration: int, egraph) -> None:
        """An exploration iteration is about to search the frozen e-graph."""

    def on_iteration_end(self, iteration: int, report) -> None:
        """An exploration iteration finished; ``report`` is its IterationReport."""

    def on_match_batch(self, iteration: int, rule: str, n_matches: int, admitted: bool) -> None:
        """One rule's matches were searched (and scheduled) this iteration."""

    def on_extraction(self, result) -> None:
        """Extraction completed; ``result`` is its ExtractionResult."""


class RecordingObserver(OptimizationObserver):
    """Records every event as a tuple, in order.  For tests and debugging.

    ``events`` holds ``("phase", name, seconds)``,
    ``("iteration_start", iteration)``,
    ``("iteration_end", iteration, report)``,
    ``("match_batch", iteration, rule, n_matches, admitted)``, and
    ``("extraction", result)`` entries.
    """

    def __init__(self) -> None:
        self.events: List[Tuple] = []

    def on_phase(self, phase: str, seconds: float) -> None:
        self.events.append(("phase", phase, seconds))

    def on_iteration_start(self, iteration: int, egraph) -> None:
        self.events.append(("iteration_start", iteration))

    def on_iteration_end(self, iteration: int, report) -> None:
        self.events.append(("iteration_end", iteration, report))

    def on_match_batch(self, iteration: int, rule: str, n_matches: int, admitted: bool) -> None:
        self.events.append(("match_batch", iteration, rule, n_matches, admitted))

    def on_extraction(self, result) -> None:
        self.events.append(("extraction", result))

    def of_kind(self, kind: str) -> List[Tuple]:
        """The recorded events of one kind, in order."""
        return [e for e in self.events if e[0] == kind]


class PhaseTimingObserver(OptimizationObserver):
    """Accumulates the timing breakdown benchmarks report.

    ``phase_seconds`` maps each completed pipeline phase to its duration;
    the ``search_seconds`` / ``apply_seconds`` / ``rebuild_seconds`` /
    ``multi_join_seconds`` / ``condition_seconds`` attributes break
    exploration down by pipeline stage, summed over iterations
    (``per_iteration`` keeps the unsummed per-iteration values for
    profiles).  ``extraction_stage_seconds`` breaks the extraction phase
    into its pipeline stages (prune / ilp / greedy) and
    ``extraction_prune_ratio`` records the problem-reduction shrink.
    """

    def __init__(self) -> None:
        self.phase_seconds: Dict[str, float] = {}
        self.iterations = 0
        self.search_seconds = 0.0
        self.apply_seconds = 0.0
        self.rebuild_seconds = 0.0
        self.multi_join_seconds = 0.0
        self.condition_seconds = 0.0
        self.per_iteration: List[Dict[str, float]] = []
        #: Extraction stage -> seconds, summed over extractions (empty until
        #: an extraction completes).
        self.extraction_stage_seconds: Dict[str, float] = {}
        #: Variable-space shrink of the extraction problem-reduction pass.
        self.extraction_prune_ratio = 1.0

    def on_phase(self, phase: str, seconds: float) -> None:
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    def on_iteration_end(self, iteration: int, report) -> None:
        self.iterations += 1
        self.search_seconds += report.search_seconds
        self.apply_seconds += report.apply_seconds
        self.rebuild_seconds += report.rebuild_seconds
        self.multi_join_seconds += report.multi_join_seconds
        self.condition_seconds += report.condition_seconds
        self.per_iteration.append(
            {
                "search_seconds": report.search_seconds,
                "apply_seconds": report.apply_seconds,
                "rebuild_seconds": report.rebuild_seconds,
                "multi_join_seconds": report.multi_join_seconds,
                "condition_seconds": report.condition_seconds,
            }
        )

    def on_extraction(self, result) -> None:
        for name, secs in result.stages.items():
            self.extraction_stage_seconds[name] = (
                self.extraction_stage_seconds.get(name, 0.0) + secs
            )
        if result.reduction is not None:
            before = result.reduction.get("nodes_before", 0)
            after = result.reduction.get("nodes_after", 0)
            if after > 0:
                self.extraction_prune_ratio = before / after

    @property
    def total_seconds(self) -> float:
        """Sum of all completed phases."""
        return sum(self.phase_seconds.values())
