"""Output checks and summary statistics shared by every workload.

The checks run outside the timed region, once per distinct graph per run:

* the original and optimized graphs are executed with
  ``repro.backend.execute_graph`` on inputs seeded by the run's seed, and
  their outputs must agree (``outputs_allclose``);
* the optimized cost must not exceed the original cost, both recomputed
  here with the analytic cost model;
* the status must be clean: exploration stopped on saturation, the node
  limit or the iteration limit, and the extraction status carries no
  fallback, regression guard, ``feasible`` or time-limit marker (for the
  ILP it must read ``optimal``).

Every operation of a distinct graph must also repeat the work counts of
its first operation exactly (:func:`repeat_mismatches`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

#: Exploration stop reasons that a count, not the wall clock, decided.
FIXED_WORK_STOPS = ("saturated", "node_limit", "iteration_limit")
#: Status fragments that mark a result the program did not fully own.
UNCLEAN_STATUS = ("_fallback", "_guard", "feasible", "time_limit")

#: Work counts that must repeat exactly across operations on one input.
REPEAT_FIELDS = (
    "iterations", "enodes", "matches", "applied", "ilp_vars",
    "original_cost", "optimized_cost", "output",
)


def status_problem(stop: str, status: str, ilp: bool) -> Optional[str]:
    """Why an operation's status is not clean, or None."""
    if stop not in FIXED_WORK_STOPS:
        return f"exploration stopped on {stop!r}"
    for marker in UNCLEAN_STATUS:
        if marker in status:
            return f"extraction status {status!r}"
    if ilp and status != "optimal":
        return f"ILP status {status!r} is not 'optimal'"
    return None


def graph_problem(original, optimized, seed: int) -> Optional[str]:
    """Why ``optimized`` is not an acceptable result for ``original``, or None."""
    import numpy as np

    from repro.backend.executor import execute_graph, outputs_allclose
    from repro.costs.model import AnalyticCostModel

    model = AnalyticCostModel()
    before, after = model.graph_cost(original), model.graph_cost(optimized)
    if after > before + 1e-9:
        return f"optimized cost {after:.6g} exceeds original cost {before:.6g}"
    try:
        # Random weights saturate sigmoids; the overflow to 0/1 is harmless.
        with np.errstate(over="ignore"):
            same = outputs_allclose(
                execute_graph(original, salt=seed), execute_graph(optimized, salt=seed),
                rtol=1e-4, atol=1e-5,
            )
    except (ValueError, KeyError) as exc:
        return f"execution failed: {type(exc).__name__}: {exc}"
    if not same:
        return "optimized outputs differ from the original outputs"
    return None


def repeat_mismatches(keys: Sequence[str], counts: Sequence[dict]) -> List[int]:
    """Indices of operations whose work counts differ from the first
    operation on the same input."""
    first: Dict[str, tuple] = {}
    bad = []
    for i, (key, c) in enumerate(zip(keys, counts)):
        signature = tuple(c[f] for f in REPEAT_FIELDS)
        if first.setdefault(key, signature) != signature:
            bad.append(i)
    return bad


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def beyond(values: Sequence[float], threshold: float) -> int:
    return sum(1 for v in values if v > threshold)


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def quartiles(values: Sequence[float]) -> List[float]:
    return [percentile(values, 25), percentile(values, 50), percentile(values, 75)]
