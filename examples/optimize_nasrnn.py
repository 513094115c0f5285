#!/usr/bin/env python
"""Optimize a NasRNN cell and compare TENSAT against the TASO-style baseline.

NasRNN is the model where the paper reports its largest gain (68.9% over the
unoptimized graph, versus 45.4% for TASO's backtracking search) because the
cell contains many small matmuls that share inputs.  This example runs both
optimizers on a scaled-down NasRNN and prints a small comparison table,
mirroring the structure of the paper's Table 1.

Run with::

    python examples/optimize_nasrnn.py [scale]

where ``scale`` is ``tiny`` (default), ``small``, or ``full``.
"""

import sys
import time

from repro import TensatConfig, optimize
from repro.backend import execute_graph, outputs_allclose
from repro.costs import AnalyticCostModel
from repro.models import build_model
from repro.search import BacktrackingSearch


def main() -> None:
    scale = sys.argv[1] if len(sys.argv) > 1 else "tiny"
    cost_model = AnalyticCostModel()
    graph = build_model("nasrnn", scale=scale)
    original_cost = cost_model.graph_cost(graph)
    print(f"NasRNN ({scale}): {graph.describe()}")
    print(f"original cost: {original_cost:.5f} ms\n")

    # --- TENSAT ---------------------------------------------------------- #
    config = TensatConfig(node_limit=5_000, iter_limit=8, k_multi=1, ilp_time_limit=60.0)
    t0 = time.perf_counter()
    tensat = optimize(graph, cost_model=cost_model, config=config)
    tensat_time = time.perf_counter() - t0

    # --- TASO-style backtracking ----------------------------------------- #
    t0 = time.perf_counter()
    taso = BacktrackingSearch(cost_model, budget=30, time_limit=120.0).optimize(graph)
    taso_time = time.perf_counter() - t0

    print(f"{'optimizer':<22}{'speedup %':>12}{'opt. time (s)':>16}")
    print(f"{'TASO backtracking':<22}{taso.speedup_percent:>12.1f}{taso_time:>16.2f}")
    print(f"{'TENSAT (this work)':<22}{tensat.speedup_percent:>12.1f}{tensat_time:>16.2f}")

    for name, optimized in (("TENSAT", tensat.optimized), ("TASO", taso.optimized)):
        ok = outputs_allclose(execute_graph(graph), execute_graph(optimized))
        print(f"{name} optimized graph numerically equivalent: {ok}")
        assert ok


if __name__ == "__main__":
    main()
