"""Observer hooks for the optimization pipeline.

An observer subscribes to the event stream of an
:class:`~repro.core.session.OptimizationSession` (and the
:class:`~repro.egraph.runner.Runner` it drives), for progress display,
tests and ad-hoc instrumentation.  The run's totals do not need one: they
are on :class:`~repro.core.stats.OptimizationStats`.

Events, in emission order for one run:

* ``on_iteration_start(iteration, egraph)`` -- before an exploration
  iteration searches the (frozen) e-graph.
* ``on_match_batch(iteration, rule, n_matches, admitted)`` -- once per
  searched rule per iteration, with the rule's match count and whether the
  scheduler admitted the matches into the apply plan.  Scheduler-banned
  rules are never searched, so they emit nothing.  A multi-pattern rule's
  batch comes after the apply phase, and its count is the combinations
  drawn from its stream (fewer than it would yield when the node limit
  stops the phase, 0 when the phase stopped before the stream).
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

from typing import Iterable, List, Tuple

__all__ = ["OptimizationObserver", "RecordingObserver", "dispatch_event"]


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
        """One rule's matches were searched (and scheduled) this iteration.

        For a multi-pattern rule, ``n_matches`` counts the combinations the
        apply phase drew from the rule's stream.
        """

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
