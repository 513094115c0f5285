"""The exploration-phase driver (saturation runner).

The runner is steppable: :meth:`Runner.step` executes one iteration and the
e-graph is inspectable between steps (:meth:`Runner.run` is the loop to
completion).  Observers receive the iteration event stream (see
:mod:`repro.core.events`).  The runner repeatedly searches and applies
rewrite rules until one of:

* **saturation** -- an iteration adds no new information to the e-graph,
* the e-graph exceeds a node limit (paper: ``N_max = 50000``),
* an iteration limit is reached (paper: ``k_max = 15``),
* a wall-clock time limit is reached.

Each iteration is a deterministic **search -> schedule -> plan -> apply ->
rebuild** pipeline:

1. **search** -- every rule's source pattern is matched against the *frozen*
   e-graph (no mutation interleaves with matching) in one traversal of the
   shared-prefix rule trie per op bucket, seeded from the previous
   iteration's delta; each rule's condition then filters its match list.
2. **schedule** -- a :class:`~repro.egraph.scheduler.Scheduler` strategy
   (simple or egg-style backoff) decides which rules' matches proceed.
3. **plan** -- surviving matches, and each multi-pattern rule's stream of
   combinations, are handed to an
   :class:`~repro.egraph.applier.ApplyPlan`, which dedups identical RHS
   instantiations.
4. **apply** -- the plan executes in one pass: draw from the streams,
   cycle-filter checks, bulk RHS adds against a frozen union-find, unions
   queued; nothing is drawn once the node limit is exceeded.
5. **rebuild** -- the queued unions are flushed and a single coordinated
   :meth:`EGraph.rebuild` restores congruence; cycle post-processing runs on
   the rebuilt graph.

Multi-pattern rules grow the e-graph double-exponentially (paper Section 4),
so they are only applied for the first ``k_multi`` iterations; afterwards only
single-pattern rules run.  Their plan entries precede the single-pattern
entries so a node-limit truncation spends the ``k_multi`` budget first.
Their canonical source patterns are admitted into the shared-prefix rule
trie, so the one traversal per op bucket that matches the single-pattern
rules yields the multi-pattern source matches too; per-rule combination is
a streamed index-probe join on the shared variables, drawn by the apply
phase (see ``docs/multipattern.md``).

Cycle filtering (paper Section 5.2) plugs in as a :class:`~repro.egraph.cycles.CycleFilter`
strategy: a per-iteration setup hook, a per-match ``allows`` check, and a
post-processing hook.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

from repro.egraph.applier import ApplyPlan
from repro.egraph.cycles import CycleFilter, FilterList, NoCycleFilter, make_cycle_filter
from repro.egraph.egraph import EGraph
from repro.egraph.machine import TrieMatcher
from repro.egraph.multipattern import MultiPatternRewrite, MultiPatternSearcher
from repro.egraph.rewrite import Rewrite
from repro.egraph.scheduler import Scheduler, make_scheduler

__all__ = [
    "StopReason",
    "IterationReport",
    "RunnerReport",
    "RunnerLimits",
    "Runner",
    "collect_trie_patterns",
    "make_cycle_filter",
]


class StopReason(enum.Enum):
    """Why the exploration phase terminated."""

    SATURATED = "saturated"
    ITERATION_LIMIT = "iteration_limit"
    NODE_LIMIT = "node_limit"
    TIME_LIMIT = "time_limit"


@dataclass
class IterationReport:
    """Statistics for one exploration iteration."""

    index: int
    #: Every searched single-pattern rule's match count plus the
    #: combinations drawn from each multi-pattern rule's stream.  When the
    #: node limit stops the apply phase, the combinations left undrawn are
    #: not counted.
    n_matches: int = 0
    n_applied: int = 0
    n_skipped_cycle: int = 0
    n_cycles_resolved: int = 0
    n_enodes: int = 0
    n_eclasses: int = 0
    seconds: float = 0.0
    applied_multi: bool = False
    n_rules_banned: int = 0
    #: Matches dropped by the apply planner as identical RHS instantiations
    #: (of the multi-pattern combinations, only those drawn).
    n_deduped: int = 0
    #: Pipeline phase timings: searching for matches, planning + applying
    #: them, and flushing unions / restoring congruence.
    search_seconds: float = 0.0
    apply_seconds: float = 0.0
    rebuild_seconds: float = 0.0
    #: Time spent building the multi-pattern join's probe indexes (a
    #: sub-span of ``search_seconds``; 0.0 when no multi rules ran).  The
    #: combinations are joined as the apply phase draws them, so that work
    #: counts in ``apply_seconds``.
    multi_join_seconds: float = 0.0
    #: Time spent filtering single-pattern rules' matches through their
    #: conditions (a sub-span of ``search_seconds``; multi-pattern conditions
    #: run as their combinations are drawn and count in ``apply_seconds``).
    condition_seconds: float = 0.0
    #: True when this iteration searched the whole e-graph; False when the
    #: search was seeded from the previous iteration's delta.
    full_search: bool = True
    #: Size of the previous iteration's delta (-1 for a full search).
    n_delta_classes: int = -1


@dataclass
class RunnerReport:
    """Aggregate exploration report."""

    stop_reason: StopReason
    iterations: List[IterationReport] = field(default_factory=list)
    total_seconds: float = 0.0
    n_enodes: int = 0
    n_eclasses: int = 0
    n_filtered: int = 0

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)


#: Each iteration's search is seeded from the e-classes the previous one
#: dirtied, unless they are more than this fraction of all e-classes: then a
#: union cascade touched most of the e-graph and the full search is cheaper
#: than the closure walk.  Iteration 0 always searches the full e-graph.
DELTA_FULL_FRACTION = 0.5


@dataclass
class RunnerLimits:
    """Exploration limits (paper Section 6.1 defaults)."""

    node_limit: int = 50_000
    iter_limit: int = 15
    time_limit: float = 3600.0
    k_multi: int = 1
    #: Rule scheduling: "simple" applies every rule every iteration (the
    #: paper's behaviour); "backoff" temporarily bans single-pattern rules
    #: whose match count explodes, like egg's default BackoffScheduler.
    scheduler: str = "simple"
    #: Backoff scheduler: per-rule match budget per iteration before banning.
    match_limit: int = 1_000
    #: Backoff scheduler: base ban length in iterations (doubles per offence).
    ban_length: int = 5


def collect_trie_patterns(
    rewrites: Sequence[Rewrite], multi_searcher: Optional[MultiPatternSearcher]
) -> "tuple[list, List[str]]":
    """The pattern list a runner compiles into its trie, plus the multi keys.

    Single-pattern LHS patterns come first (index == rule index); the unique
    canonical multi-pattern source patterns follow, keyed so the runner can
    split one ``search_all`` result back per rule.
    :func:`repro.core.batch.compile_shared_trie` uses the same helper to
    compile one :class:`~repro.egraph.machine.TrieMatcher` reused across runs.
    """
    patterns = [rw.lhs for rw in rewrites]
    keys: List[str] = []
    if multi_searcher is not None:
        for key, pattern in multi_searcher.canonical_patterns():
            keys.append(key)
            patterns.append(pattern)
    return patterns, keys


class Runner:
    """Equality-saturation exploration driver.

    Parameters
    ----------
    egraph:
        The e-graph to grow (already seeded with the input term).
    rewrites:
        Single-pattern rewrite rules.
    multi_rewrites:
        Multi-pattern rewrite rules (paper Algorithm 1); applied only for the
        first ``limits.k_multi`` iterations.
    limits:
        Node / iteration / time limits.
    cycle_filter:
        Cycle-filtering strategy; default is no filtering.
    observers:
        Objects receiving the exploration event stream
        (:class:`~repro.core.events.OptimizationObserver` hooks:
        ``on_iteration_start`` / ``on_match_batch`` / ``on_iteration_end``).
        Observers are notified synchronously and must not mutate the e-graph.
    trie_matcher:
        A pre-compiled :class:`~repro.egraph.machine.TrieMatcher` to use
        instead of compiling one.  It must have been built over
        :func:`collect_trie_patterns` of the *same* rules; the batch front
        door uses this to share one compiled trie across runs.
        The matcher's per-e-graph cache resets itself on a new e-graph, so
        sharing never changes results.
    """

    def __init__(
        self,
        egraph: EGraph,
        rewrites: Sequence[Rewrite] = (),
        multi_rewrites: Sequence[MultiPatternRewrite] = (),
        limits: Optional[RunnerLimits] = None,
        cycle_filter: Optional[CycleFilter] = None,
        observers: Sequence[object] = (),
        trie_matcher: Optional[TrieMatcher] = None,
    ) -> None:
        # Lazy import: repro.egraph must stay importable without repro.core.
        from repro.core.events import dispatch_event

        self._dispatch = dispatch_event
        self.egraph = egraph
        self.rewrites = list(rewrites)
        self.multi_rewrites = list(multi_rewrites)
        self.limits = limits if limits is not None else RunnerLimits()
        # Raises on an unknown scheduler kind.
        self.scheduler: Scheduler = make_scheduler(
            self.limits.scheduler, self.limits.match_limit, self.limits.ban_length
        )
        self.cycle_filter = cycle_filter if cycle_filter is not None else NoCycleFilter()
        self.observers = tuple(observers)
        self._multi_searcher = MultiPatternSearcher(self.multi_rewrites) if self.multi_rewrites else None
        # One shared-prefix trie matcher over all single-pattern rules *plus*
        # the unique canonical multi-pattern source patterns (admitted at
        # indices >= n_single, so one traversal per op bucket yields their
        # matches too).
        self._trie_matcher: Optional[TrieMatcher] = None
        self._n_single = len(self.rewrites)
        patterns, self._multi_keys = collect_trie_patterns(self.rewrites, self._multi_searcher)
        if patterns:
            self._trie_matcher = trie_matcher if trie_matcher is not None else TrieMatcher(patterns)
        # E-classes dirtied by the previous iteration; None forces a full
        # search (iteration 0).
        self._delta: Optional[Set[int]] = None
        # Stepping state: iteration reports so far, accumulated in-step time
        # (the budget the time limit is charged against -- wall-clock pauses
        # between step() calls are free), and the stop reason once decided.
        self._reports: List[IterationReport] = []
        self._elapsed = 0.0
        self._started = False
        self._stop: Optional[StopReason] = None

    @property
    def filter_list(self) -> FilterList:
        return self.cycle_filter.filter_list

    @property
    def iterations(self) -> List[IterationReport]:
        """Per-iteration reports so far (inspectable between steps)."""
        return list(self._reports)

    @property
    def stop_reason(self) -> Optional[StopReason]:
        """Why exploration stopped, or None while it can still step."""
        return self._stop

    @property
    def done(self) -> bool:
        return self._stop is not None

    def _emit(self, event: str, *args) -> None:
        # Bound in __init__ (lazy import: repro.egraph must stay importable
        # without repro.core at module-import time).
        self._dispatch(self.observers, event, *args)

    # ------------------------------------------------------------------ #

    def step(self) -> Optional[IterationReport]:
        """Run one exploration iteration; None when exploration has stopped.

        The first call drains the e-graph's seeding dirty marks (iteration 0
        always searches the full e-graph).  After the iteration, the stop
        conditions are evaluated in the same order as :meth:`run` always
        used -- saturation, node limit, time limit, iteration limit -- so a
        step-at-a-time loop walks the exact trajectory of a one-shot run.
        """
        if self._stop is not None:
            return None
        t0 = time.perf_counter()
        if not self._started:
            # Iteration 0 always searches the whole e-graph, so the dirty
            # marks accumulated while the caller seeded it carry no
            # information; drain them so iteration 1's delta covers only
            # iteration 0's changes.
            self.egraph.take_dirty()
            self._delta = None
            self._started = True

        iteration = len(self._reports)
        if iteration >= self.limits.iter_limit:
            self._stop = StopReason.ITERATION_LIMIT
            return None
        if self._elapsed > self.limits.time_limit:
            self._stop = StopReason.TIME_LIMIT
            return None
        if self.egraph.num_enodes > self.limits.node_limit:
            self._stop = StopReason.NODE_LIMIT
            return None

        report = self._run_iteration(iteration)
        self._reports.append(report)
        self._elapsed += time.perf_counter() - t0

        if report.n_applied == 0 and report.n_rules_banned == 0:
            self._stop = StopReason.SATURATED
        elif self.egraph.num_enodes > self.limits.node_limit:
            self._stop = StopReason.NODE_LIMIT
        elif self._elapsed > self.limits.time_limit:
            self._stop = StopReason.TIME_LIMIT
        elif len(self._reports) >= self.limits.iter_limit:
            self._stop = StopReason.ITERATION_LIMIT
        return report

    def run(self) -> RunnerReport:
        """Run the exploration loop until saturation or a limit is hit."""
        while self.step() is not None:
            pass
        return self.report()

    def report(self) -> RunnerReport:
        """Aggregate report; exploration must have stopped (see :meth:`step`)."""
        if self._stop is None:
            raise RuntimeError(
                "exploration has not stopped; keep calling step() (or use run()), "
                "or inspect the in-progress state via Runner.iterations"
            )
        return RunnerReport(
            stop_reason=self._stop,
            iterations=list(self._reports),
            total_seconds=self._elapsed,
            n_enodes=self.egraph.num_enodes,
            n_eclasses=self.egraph.num_eclasses,
            n_filtered=len(self.filter_list),
        )

    # ------------------------------------------------------------------ #

    def _run_iteration(self, iteration: int) -> IterationReport:
        t0 = time.perf_counter()
        self._emit("on_iteration_start", iteration, self.egraph)
        report = IterationReport(index=iteration)
        unions_before = self.egraph.num_unions
        enodes_before = self.egraph.num_enodes

        delta = self._delta
        if delta is not None and len(delta) > DELTA_FULL_FRACTION * max(1, self.egraph.num_eclasses):
            # A union cascade touched most of the e-graph; the closure walk
            # would cost more than the full search it is meant to avoid.
            delta = None
        report.full_search = delta is None
        report.n_delta_classes = -1 if delta is None else len(delta)

        self.cycle_filter.begin_iteration(self.egraph)

        # --- search phase: every rule matched against the frozen e-graph --- #
        t_search = time.perf_counter()
        multi_active = self._multi_searcher is not None and iteration < self.limits.k_multi
        trie_results: List[list] = []
        if self._trie_matcher is not None:
            # Once the k_multi window closes the multi-pattern trie slots are
            # never read again; skipping them drops their cache maintenance.
            skip = () if multi_active else range(self._n_single, self._n_single + len(self._multi_keys))
            trie_results = self._trie_matcher.search_all(self.egraph, delta=delta, skip=skip)

        multi_streams = []
        if multi_active:
            report.applied_multi = True
            # Trie admission: the canonical source patterns were searched as
            # a byproduct of the single traversal per op bucket above.
            canonical_matches = {
                key: trie_results[self._n_single + offset]
                for offset, key in enumerate(self._multi_keys)
            }
            t_join = time.perf_counter()
            multi_streams = self._multi_searcher.streams(self.egraph, canonical_matches)
            report.multi_join_seconds = time.perf_counter() - t_join

        # One ordered match list per rule; None marks a banned (unsearched) rule.
        single_matches: List[Optional[list]] = []
        for rule_index, rewrite in enumerate(self.rewrites):
            if self.scheduler.is_banned(rule_index, iteration):
                report.n_rules_banned += 1
                single_matches.append(None)
                continue
            t_cond = time.perf_counter()
            single_matches.append(rewrite.filter_matches(self.egraph, trie_results[rule_index]))
            report.condition_seconds += time.perf_counter() - t_cond
        report.search_seconds = time.perf_counter() - t_search

        # --- plan + apply phases: schedule, dedup, execute in one pass ---- #
        t_apply = time.perf_counter()
        plan = ApplyPlan()
        for rule, combos in multi_streams:
            plan.add_multi(rule, combos)
        for rule_index, matches in enumerate(single_matches):
            if matches is None:
                continue
            report.n_matches += len(matches)
            admitted = self.scheduler.admit_matches(rule_index, iteration, len(matches))
            self._emit("on_match_batch", iteration, self.rewrites[rule_index].name, len(matches), admitted)
            if not admitted:
                report.n_rules_banned += 1
                continue
            rewrite = self.rewrites[rule_index]
            for match in matches:
                plan.add_rewrite(rewrite, match)

        apply_stats = plan.execute(self.egraph, self.cycle_filter, node_limit=self.limits.node_limit)
        # A multi rule's batch is the combinations drawn from its stream.
        for (rule, _combos), drawn in zip(multi_streams, apply_stats.multi_drawn):
            report.n_matches += drawn
            self._emit("on_match_batch", iteration, rule.name, drawn, True)
        report.n_applied = apply_stats.n_applied
        report.n_skipped_cycle = apply_stats.n_skipped_cycle
        report.n_deduped = apply_stats.n_deduped
        report.apply_seconds = time.perf_counter() - t_apply

        # --- rebuild phase: flush queued unions, one coordinated rebuild --- #
        t_rebuild = time.perf_counter()
        self.egraph.flush_deferred_unions()
        self.egraph.rebuild()
        report.n_cycles_resolved = self.cycle_filter.end_iteration(self.egraph)
        self.egraph.rebuild()
        report.rebuild_seconds = time.perf_counter() - t_rebuild

        # Everything dirtied during this iteration (rule applications, repairs,
        # cycle resolution) seeds the next iteration's search.
        self._delta = self.egraph.take_dirty()

        # Saturation detection: nothing applied, or nothing actually changed.
        # A banned rule might still have work to do, so an iteration with bans
        # does not count as saturated.
        if (
            self.egraph.num_unions == unions_before
            and self.egraph.num_enodes == enodes_before
            and report.n_rules_banned == 0
        ):
            report.n_applied = 0

        report.n_enodes = self.egraph.num_enodes
        report.n_eclasses = self.egraph.num_eclasses
        report.seconds = time.perf_counter() - t0
        self._emit("on_iteration_end", iteration, report)
        return report
