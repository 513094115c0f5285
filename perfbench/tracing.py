"""Outside-in layer tracing: timing wrappers around the program's public calls.

The benchmark does not change the program.  :func:`install` replaces the
public functions and methods listed in :data:`LAYERS` with wrappers that
record one span per call -- name, start, end, parent -- in memory, plus the
work counts each layer exposes through its arguments and return value.
Spans are written out at the end (:meth:`Tracer.dump`) and folded into
per-layer *self time*: a span's duration minus the part covered by its
direct children, so nested layers (a rebuild inside an apply, a prune
inside an ILP extraction) are never counted twice.

Only the traced run installs the wrappers; end-to-end numbers come from
untraced runs, and the gap between the two is reported as tracing overhead.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Span name of one operation (one optimize call, or one served request).
OP = "op"


class Tracer:
    """In-memory span store with per-thread parent stacks.

    A span opened inside another on the same thread is its child.  The
    request span of the daemon is asynchronous (it stays open across
    awaits), so it is recorded detached: without a parent and without
    entering the stack.
    """

    def __init__(self) -> None:
        #: One ``[name, start, end, parent_index]`` per span.
        self.spans: List[list] = []
        #: One ``[time, name, value]`` per work count read at a boundary.
        self.counts: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, detached: bool = False) -> int:
        stack = self._stack()
        parent = -1 if detached or not stack else stack[-1]
        now = time.perf_counter()
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, now, 0.0, parent])
        if not detached:
            stack.append(index)
        return index

    def end(self, index: int, detached: bool = False) -> None:
        self.spans[index][2] = time.perf_counter()
        if not detached:
            self._stack().pop()

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts.append([time.perf_counter(), name, value])

    def snapshot(self, since: float = 0.0, until: float = float("inf")) -> Dict[str, object]:
        """Self seconds, operation durations and work counts of spans started in
        ``[since, until)`` (on the host's shared monotonic clock)."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: Dict[str, float] = defaultdict(float)
        durations: List[float] = []
        for (name, start, end, _parent), covered in zip(self.spans, child_time):
            if not since <= start < until:
                continue
            self_s[name] += (end - start) - covered
            if name == OP:
                durations.append(end - start)
        counts: Dict[str, float] = defaultdict(float)
        for stamp, name, value in self.counts:
            if since <= stamp < until:
                counts[name] += value
        return {
            "self_s": dict(self_s),
            "counts": dict(counts),
            "op_durations": durations,
        }

    def dump(self, path) -> None:
        """Write every span and count as JSON."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "span_fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                    "count_fields": ["time", "name", "value"],
                    "counts": self.counts,
                },
                handle,
            )

    @classmethod
    def load(cls, path) -> "Tracer":
        with open(path) as handle:
            data = json.load(handle)
        tracer = cls()
        tracer.spans, tracer.counts = data["spans"], data["counts"]
        return tracer


def _wrap(tracer: Tracer, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            index = tracer.begin(name, detached=True)
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.end(index, detached=True)

        return traced_async

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(tracer, args, result)
        return result

    return traced


# --------------------------------------------------------------------------- #
# Work counts read at the layer boundary
# --------------------------------------------------------------------------- #


def _search_counts(t, args, result):
    t.count("egraph.search_matches", sum(len(matches) for matches in result))


def _join_counts(t, args, result):
    t.count("egraph.multi_join_combos", sum(len(combos) for _rule, combos in result))


def _condition_counts(t, args, result):
    t.count("rules.condition_in", len(args[2]))
    t.count("rules.condition_out", len(result))


def _apply_counts(t, args, result):
    t.count("egraph.apply_planned", result.n_planned)
    t.count("egraph.apply_applied", result.n_applied)
    t.count("egraph.apply_deduped", result.n_deduped)


def _cycle_counts(t, args, result):
    if result is not None:
        t.count("egraph.cycles_resolved", result)


def _prune_counts(t, args, result):
    if result.reduction is not None:
        t.count("extraction.prune_nodes_before", result.reduction.nodes_before)
        t.count("extraction.prune_nodes_after", result.reduction.nodes_after)


def _ilp_counts(t, args, result):
    info = args[0].last_solve_info
    t.count("extraction.ilp_solves", 1)
    if info is not None:
        t.count("extraction.ilp_vars", info.num_variables)
        t.count("extraction.ilp_optimal", 1 if info.status == "optimal" else 0)


def _cache_get_counts(t, args, result):
    t.count("service.cache_lookups", 1)
    t.count("service.cache_hits", 0 if result is None else 1)


#: (module, attribute path, span name, counts hook).  Methods are wrapped on
#: every class that defines them, so subclass overrides are traced too.
LAYERS = (
    ("repro.ir.onnx_import", "import_onnx", "ir.import", None),
    ("repro.ir.convert", "egraph_from_graph", "ir.egraph_build", None),
    ("repro.egraph.machine", "TrieMatcher.search_all", "egraph.search", _search_counts),
    ("repro.egraph.multipattern", "MultiPatternSearcher.combine_matches", "egraph.multi_join", _join_counts),
    ("repro.egraph.rewrite", "Rewrite.filter_matches", "rules.condition", _condition_counts),
    ("repro.egraph.applier", "ApplyPlan.execute", "egraph.apply", _apply_counts),
    ("repro.egraph.egraph", "EGraph.rebuild", "egraph.rebuild", None),
    ("repro.egraph.egraph", "EGraph.flush_deferred_unions", "egraph.rebuild", None),
    ("repro.egraph.cycles", "CycleFilter.begin_iteration", "egraph.cycle", None),
    ("repro.egraph.cycles", "CycleFilter.end_iteration", "egraph.cycle", _cycle_counts),
    ("repro.egraph.extraction.ilp", "ILPExtractor.build_problem", "extraction.prune", _prune_counts),
    ("repro.egraph.extraction.ilp", "ILPExtractor.extract", "extraction.ilp", _ilp_counts),
    ("repro.egraph.extraction.greedy", "GreedyExtractor.extract", "extraction.greedy", None),
    ("repro.core.session", "OptimizationSession.materialize", "core.materialize", None),
    ("repro.costs.model", "CostModel.graph_cost", "costs.graph_cost", None),
    ("repro.ir.serialize", "graph_from_doc", "service.parse", None),
    ("repro.ir.serialize", "graph_to_doc", "service.serialize", None),
    ("repro.service.fingerprint", "graph_fingerprint", "service.fingerprint", None),
    ("repro.service.fingerprint", "config_digest", "service.digest", None),
    ("repro.service.cache", "ResultCache.get", "service.cache", _cache_get_counts),
    ("repro.service.cache", "ResultCache.put", "service.cache", None),
    ("repro.core.batch", "optimize_many", "service.optimize", None),
    ("repro.service.server", "OptimizationService.handle", OP, None),
)


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


class Installed:
    """The wrappers :func:`install` placed; :meth:`off` puts the program's
    own functions back and :meth:`on` re-installs the wrappers, so a traced
    and an untraced operation can alternate in one process."""

    def __init__(self, patches: List[tuple]) -> None:
        #: ``(owner, attribute, original, wrapper)`` per patched binding.
        self.patches = patches

    def on(self) -> None:
        for owner, attr, _original, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def off(self) -> None:
        for owner, attr, original, _wrapper in self.patches:
            setattr(owner, attr, original)


def install(tracer: Tracer, closed_loop: bool) -> Installed:
    """Wrap every layer in :data:`LAYERS` and return the switch.

    Module-level functions are also rebound in every loaded ``repro``
    module that imported them by name.  In the closed loop the caller opens
    the per-operation span itself, so ``optimize_many`` and the service's
    request handler are left alone there, as are the service layers.
    """
    import importlib

    patches = []
    for module_name, path, span, hook in LAYERS:
        if closed_loop and (span == OP or span.startswith("service.")):
            continue
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, method = path.split(".")
            for cls in _subclasses(getattr(module, class_name)):
                fn = cls.__dict__.get(method)
                if fn is not None:
                    patches.append((cls, method, fn, _wrap(tracer, span, fn, hook)))
            continue
        fn = getattr(module, path)
        traced = _wrap(tracer, span, fn, hook)
        for name, loaded in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and getattr(loaded, path, None) is fn:
                patches.append((loaded, path, fn, traced))
    installed = Installed(patches)
    installed.on()
    return installed


def layer_metrics(snap: Dict[str, object], ops: int) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    ``*_ms`` metrics are self milliseconds per operation; counts are per
    operation; ``*_frac`` and ``*_ratio`` are ratios of totals.
    """
    self_s, c = snap["self_s"], snap["counts"]
    ops = max(ops, 1)

    def ms(name):
        return 1000.0 * self_s.get(name, 0.0) / ops

    def per_op(name):
        return c.get(name, 0.0) / ops

    def frac(num, den):
        return c.get(num, 0.0) / c[den] if c.get(den) else 0.0

    return {
        "ir.import_ms": ms("ir.import"),
        "ir.egraph_build_ms": ms("ir.egraph_build"),
        "egraph.search_ms": ms("egraph.search"),
        "egraph.search_matches": per_op("egraph.search_matches"),
        "egraph.multi_join_ms": ms("egraph.multi_join"),
        "egraph.multi_join_combos": per_op("egraph.multi_join_combos"),
        "rules.condition_ms": ms("rules.condition"),
        "rules.condition_pass_frac": frac("rules.condition_out", "rules.condition_in"),
        "egraph.apply_ms": ms("egraph.apply"),
        "egraph.apply_useful_frac": frac("egraph.apply_applied", "egraph.apply_planned"),
        "egraph.apply_deduped": per_op("egraph.apply_deduped"),
        "egraph.rebuild_ms": ms("egraph.rebuild"),
        "egraph.cycle_ms": ms("egraph.cycle"),
        "egraph.cycles_resolved": per_op("egraph.cycles_resolved"),
        "extraction.prune_ms": ms("extraction.prune"),
        "extraction.prune_ratio": frac("extraction.prune_nodes_before", "extraction.prune_nodes_after"),
        "extraction.greedy_ms": ms("extraction.greedy"),
        "extraction.ilp_ms": ms("extraction.ilp"),
        "extraction.ilp_vars": frac("extraction.ilp_vars", "extraction.ilp_solves"),
        "extraction.ilp_optimal_frac": frac("extraction.ilp_optimal", "extraction.ilp_solves"),
        "core.materialize_ms": ms("core.materialize"),
        "costs.graph_cost_ms": ms("costs.graph_cost"),
        "service.parse_ms": ms("service.parse"),
        "service.fingerprint_ms": ms("service.fingerprint"),
        "service.digest_ms": ms("service.digest"),
        "service.cache_ms": ms("service.cache"),
        "service.cache_hit_frac": frac("service.cache_hits", "service.cache_lookups"),
        "service.serialize_ms": ms("service.serialize"),
        "service.optimize_ms": ms("service.optimize"),
    }


def family_shares(snap: Dict[str, object]) -> Dict[str, float]:
    """Share of all traced self time spent in e-graph / extraction layers."""
    self_s = snap["self_s"]
    total = sum(self_s.values()) or 1.0
    return {
        "egraph": sum(self_s.get(n, 0.0) for n in EGRAPH_SPANS) / total,
        "extraction": sum(self_s.get(n, 0.0) for n in EXTRACTION_SPANS) / total,
    }


#: Span names grouped by the layer family the held-out-seed check compares.
EGRAPH_SPANS = (
    "ir.egraph_build", "egraph.search", "egraph.multi_join", "rules.condition",
    "egraph.apply", "egraph.rebuild", "egraph.cycle",
)
EXTRACTION_SPANS = ("extraction.prune", "extraction.greedy", "extraction.ilp")
