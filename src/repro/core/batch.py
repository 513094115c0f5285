"""Batch front door: many graphs, one compiled search state, plus compare().

``optimize_many`` amortises the per-run setup the paper's single-graph flow
repeats: the rule trie (every rule's compiled program merged into one
shared-prefix trie per root operator) is compiled **once** and reused by
every run.  Compilation depends only on the rule set, never on the e-graph,
and the trie matcher's per-e-graph cache resets itself on a new e-graph, so
batched results are bit-for-bit identical to sequential ``optimize`` calls
(pinned by ``tests/test_session.py``).

``compare`` is the one implementation of the "TENSAT vs. TASO-style
backtracking" evaluation that both the CLI's ``compare`` subcommand and the
benchmark harness (``benchmarks/common.py``) call.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.core.config import ConfigError, TensatConfig
from repro.core.session import OptimizationResult, OptimizationSession
from repro.costs.model import AnalyticCostModel, CostModel
from repro.egraph.machine import TrieMatcher
from repro.egraph.multipattern import MultiPatternSearcher
from repro.egraph.runner import collect_trie_patterns
from repro.ir.graph import TensorGraph
from repro.rules.library import RuleSet, default_ruleset
from repro.search.backtracking import BacktrackingResult, BacktrackingSearch

__all__ = [
    "ComparisonResult",
    "compare",
    "compile_shared_trie",
    "ensure_picklable",
    "optimize_many",
]


def ensure_picklable(components: Mapping[str, object], context: str) -> None:
    """Raise :class:`ConfigError` naming the first unpicklable component.

    Process-based execution ships state across process boundaries with
    pickle; a user-registered component holding a lambda or an open handle
    would otherwise die with a traceback deep inside the pool machinery,
    far from the configuration that caused it.
    """
    for name, value in components.items():
        try:
            pickle.dumps(value)
        except Exception as exc:
            raise ConfigError(
                f"{context} requires picklable components, but {name} "
                f"({type(value).__name__}) is not picklable: {exc}"
            ) from exc


def compile_shared_trie(
    rules: RuleSet, config: Optional[TensatConfig] = None
) -> Optional[TrieMatcher]:
    """Compile the rule trie a run over ``rules`` builds (None without rules).

    Every configuration searches with the same trie, so ``config`` does not
    change the result.  The trie can be passed to any number of
    :class:`OptimizationSession` s over the same rules, as long as the
    sessions run one after another -- interleaving steps of two sessions
    stays *correct* (the cache self-invalidates per e-graph) but forfeits
    the delta-search speedup.
    """
    searcher = MultiPatternSearcher(rules.multi_rewrites) if rules.multi_rewrites else None
    patterns, _keys = collect_trie_patterns(rules.rewrites, searcher)
    return TrieMatcher(patterns) if patterns else None


class _SynchronizedObserver:
    """Serialise event delivery when sessions run on concurrent threads.

    Observers are written for the single-threaded event stream; one shared
    lock around every dispatch preserves that contract (events from parallel
    runs interleave between calls, never inside one).
    """

    def __init__(self, observers: Sequence[object]) -> None:
        import threading

        self._observers = tuple(observers)
        self._lock = threading.Lock()

    def __getattr__(self, event: str):
        if event.startswith("_"):
            raise AttributeError(event)

        def relay(*args):
            from repro.core.events import dispatch_event

            with self._lock:
                dispatch_event(self._observers, event, *args)

        return relay


def _optimize_one(graph, cost_model, rules, config, observers, shared_trie):
    """One whole session; module-level so the process fan-out can pickle it."""
    return OptimizationSession(
        graph,
        cost_model=cost_model,
        rules=rules,
        config=config,
        observers=observers,
        shared_trie=shared_trie,
    ).result()


def optimize_many(
    graphs: Iterable[TensorGraph],
    cost_model: Optional[CostModel] = None,
    rules: Optional[RuleSet] = None,
    config: Optional[TensatConfig] = None,
    observers: Sequence[object] = (),
    jobs: int = 1,
    executor: str = "thread",
    shared_trie: Optional[TrieMatcher] = None,
    **config_overrides,
) -> List[OptimizationResult]:
    """Optimize several graphs under one configuration, sharing compiled state.

    Results are returned in input order and are identical to calling
    :func:`repro.core.optimizer.optimize` per graph; ``observers`` subscribe
    to every run's event stream.  Keyword arguments override ``config``
    fields, as in :func:`~repro.core.optimizer.optimize`.

    ``jobs > 1`` fans whole sessions out to ``executor`` workers ("thread"
    or "process"); each run is unchanged -- its own e-graph, its own serial
    pipeline -- so per-run results stay bit-identical to ``jobs=1`` and only
    wall-clock changes.  Thread workers share the one compiled trie through
    :meth:`~repro.egraph.machine.TrieMatcher.fork` (same immutable trie,
    private delta caches); process workers recompile it once per worker from
    the pickled rules.  Observer events are serialised under one lock in
    thread mode; process mode runs workers detached and raises
    :class:`~repro.core.config.ConfigError` if observers are passed, rather
    than silently dropping their event stream.

    ``shared_trie`` lets a long-lived caller (the optimization service)
    pass in an already-compiled rule trie for ``rules`` instead of
    recompiling per call; it must come from
    :func:`compile_shared_trie` (or a :meth:`~repro.egraph.machine.TrieMatcher.fork`
    of its result) over the same rule set.
    """
    config = config if config is not None else TensatConfig()
    if config_overrides:
        config = config.with_overrides(**config_overrides)
    cost_model = cost_model if cost_model is not None else AnalyticCostModel()
    rules = rules if rules is not None else default_ruleset()
    graphs = list(graphs)
    if shared_trie is None:
        shared_trie = compile_shared_trie(rules)

    if jobs == 1:
        results: List[OptimizationResult] = []
        for graph in graphs:
            results.append(
                _optimize_one(graph, cost_model, rules, config, observers, shared_trie)
            )
        return results

    if jobs < 1:
        raise ConfigError(f"optimize_many jobs must be >= 1, got {jobs}")
    if executor not in ("thread", "process"):
        raise ConfigError(
            f"optimize_many executor must be 'thread' or 'process', got {executor!r}"
        )

    if executor == "thread":
        from concurrent.futures import ThreadPoolExecutor

        shared = _SynchronizedObserver(observers) if observers else None
        with ThreadPoolExecutor(max_workers=jobs, thread_name_prefix="repro-batch") as pool:
            futures = [
                pool.submit(
                    _optimize_one,
                    graph,
                    cost_model,
                    rules,
                    config,
                    (shared,) if shared is not None else (),
                    shared_trie.fork() if shared_trie is not None else None,
                )
                for graph in graphs
            ]
            return [f.result() for f in futures]  # submission order

    # Process fan-out: everything a worker needs crosses a pickle boundary,
    # so preflight the user-supplied pieces and name the offender instead of
    # dying inside the pool.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if observers:
        raise ConfigError(
            "optimize_many(executor='process') cannot deliver observer events "
            "(workers run in separate processes); use executor='thread' or drop "
            "the observers"
        )
    ensure_picklable(
        {
            "the cost model": cost_model,
            "the rule set": rules,
            "the configuration": config,
            "the input graphs": graphs,
        },
        "optimize_many(executor='process')",
    )
    with ProcessPoolExecutor(
        max_workers=jobs, mp_context=multiprocessing.get_context("fork")
    ) as pool:
        futures = [
            pool.submit(_optimize_one, graph, cost_model, rules, config, (), None)
            for graph in graphs
        ]
        return [f.result() for f in futures]  # submission order


@dataclass
class ComparisonResult:
    """TENSAT and the TASO-style backtracking baseline on one graph."""

    graph: TensorGraph
    original_cost: float
    tensat: OptimizationResult
    tensat_seconds: float
    taso: BacktrackingResult

    def as_dict(self) -> Dict[str, object]:
        """The CLI's ``compare --json`` payload (stable schema)."""
        return {
            "model": self.graph.name,
            "original_cost_ms": self.original_cost,
            "tensat": {
                "speedup_percent": self.tensat.speedup_percent,
                "seconds": self.tensat_seconds,
            },
            "taso": {
                "speedup_percent": self.taso.speedup_percent,
                "total_seconds": self.taso.total_seconds,
                "best_seconds": self.taso.best_seconds,
            },
        }


def compare(
    graph: TensorGraph,
    cost_model: Optional[CostModel] = None,
    rules: Optional[RuleSet] = None,
    config: Optional[TensatConfig] = None,
    observers: Sequence[object] = (),
    taso_budget: int = 30,
    taso_time_limit: float = 3600.0,
    taso_alpha: float = 1.0,
) -> ComparisonResult:
    """Optimize ``graph`` with TENSAT and with the backtracking baseline.

    ``config`` defaults to :meth:`TensatConfig.fast` (the comparison exists
    for interactive evaluation, not paper-scale runs); the ``taso_*`` knobs
    mirror :class:`~repro.search.backtracking.BacktrackingSearch` and share
    its defaults.  ``tensat_seconds`` covers the whole TENSAT run including
    e-graph construction.
    """
    cost_model = cost_model if cost_model is not None else AnalyticCostModel()
    config = config if config is not None else TensatConfig.fast()

    start = time.perf_counter()
    tensat = OptimizationSession(
        graph, cost_model=cost_model, rules=rules, config=config, observers=observers
    ).result()
    tensat_seconds = time.perf_counter() - start

    taso = BacktrackingSearch(
        cost_model, budget=taso_budget, time_limit=taso_time_limit, alpha=taso_alpha
    ).optimize(graph)

    return ComparisonResult(
        graph=graph,
        original_cost=cost_model.graph_cost(graph),
        tensat=tensat,
        tensat_seconds=tensat_seconds,
        taso=taso,
    )
