"""Shared infrastructure for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper.  Because
the reproduction runs a pure-Python e-graph and an open-source MIP solver
instead of the paper's Rust + SCIP + GPU stack, the default workload scale is
``tiny`` so the full suite completes in minutes; set ``REPRO_BENCH_SCALE=small``
(or ``full``) for larger runs.  Absolute numbers differ from the paper; the
*shapes* (who wins, by roughly what factor, where the crossovers are) are what
the harness reproduces -- see the "Tests and benchmarks" section of README.md.

Each module writes a plain-text table to ``benchmarks/results/`` so the
regenerated rows survive pytest's output capture.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core import OptimizationResult, OptimizationSession, TensatConfig, compare
from repro.costs import AnalyticCostModel
from repro.ir.graph import TensorGraph
from repro.models import build_model
from repro.search.backtracking import BacktrackingResult

RESULTS_DIR = Path(__file__).parent / "results"

#: The seven models of the paper's evaluation (plus the order they appear in Table 1).
PAPER_MODELS = ["nasrnn", "bert", "resnext", "nasnet", "squeezenet", "vgg", "inception"]

#: Paper-reported numbers, printed next to measured
#: values so the qualitative comparison is visible in the regenerated tables.
PAPER_TABLE1 = {
    # model: (taso_search_s, tensat_search_s, taso_speedup_%, tensat_speedup_%)
    "nasrnn": (177.3, 0.5, 45.4, 68.9),
    "bert": (13.6, 1.4, 8.5, 9.2),
    "resnext": (25.3, 0.7, 5.5, 8.8),
    "nasnet": (1226.0, 10.6, 1.9, 7.3),
    "squeezenet": (16.4, 0.3, 6.7, 24.5),
    "vgg": (8.9, 0.4, 8.9, 8.9),
    "inception": (68.6, 5.1, 6.3, 10.0),
}


def bench_scale() -> str:
    """Workload scale for the benchmark suite (env-overridable)."""
    return os.environ.get("REPRO_BENCH_SCALE", "tiny")


def taso_budget() -> int:
    """Backtracking-search budget (queue pops), scaled with the workload."""
    return {"tiny": 30, "small": 60, "full": 100}[bench_scale()]


def cost_model() -> AnalyticCostModel:
    return AnalyticCostModel()


def tensat_config(model: str, **overrides) -> TensatConfig:
    """Per-model TENSAT configuration used by the benchmarks.

    Mirrors the paper's setup (k_multi = 1 by default, efficient cycle
    filtering, ILP without cycle constraints) with limits sized for the
    pure-Python substrate; BERT gets a longer ILP budget because HiGHS needs
    it to reach the strong incumbent.
    """
    base = dict(
        node_limit=4_000,
        iter_limit=8,
        k_multi=1,
        ilp_time_limit=30.0,
        ilp_mip_gap=0.01,
        exploration_time_limit=300.0,
    )
    if model == "bert":
        base["ilp_time_limit"] = 60.0
    if model == "nasnet":
        base["ilp_time_limit"] = 45.0
    base.update(overrides)
    return TensatConfig(**base)


@dataclass
class ModelRun:
    """One model optimized by both TENSAT and the TASO-style baseline."""

    model: str
    scale: str
    original_cost: float
    tensat: OptimizationResult
    tensat_seconds: float
    taso: BacktrackingResult

    @property
    def tensat_speedup(self) -> float:
        return self.tensat.speedup_percent

    @property
    def taso_speedup(self) -> float:
        return self.taso.speedup_percent


#: Cache of completed runs so benchmarks that share workloads (Table 1, Figures
#: 4 and 5, Table 3) do not repeat the same optimizations.
_RUN_CACHE: Dict[tuple, "ModelRun"] = {}


def run_model(
    model: str,
    scale: Optional[str] = None,
    k_multi: int = 1,
    run_taso: bool = True,
    **config_overrides,
) -> ModelRun:
    """Optimize one benchmark model with TENSAT and (optionally) the baseline."""
    scale = scale or bench_scale()
    cache_key = (model, scale, k_multi, run_taso, tuple(sorted(config_overrides.items())))
    cached = _RUN_CACHE.get(cache_key)
    if cached is not None:
        return cached
    cm = cost_model()
    graph = build_model(model, scale)
    config = tensat_config(model, k_multi=k_multi, **config_overrides)

    if run_taso:
        # The shared compare() front door is the same implementation the
        # CLI's `compare` subcommand uses.
        comparison = compare(
            graph,
            cost_model=cm,
            config=config,
            taso_budget=taso_budget(),
            taso_time_limit=600.0,
            taso_alpha=1.0,
        )
        tensat_result = comparison.tensat
        tensat_seconds = comparison.tensat_seconds
        taso_result = comparison.taso
    else:
        # Session construction seeds the e-graph, so it belongs inside the
        # timer (as it does in compare() and in the pre-session harness).
        start = time.perf_counter()
        session = OptimizationSession(graph, cost_model=cm, config=config)
        tensat_result = session.result()
        tensat_seconds = time.perf_counter() - start
        taso_result = BacktrackingResult(
            original=graph,
            optimized=graph,
            original_cost=cm.graph_cost(graph),
            optimized_cost=cm.graph_cost(graph),
            total_seconds=0.0,
            best_seconds=0.0,
            iterations=0,
            graphs_evaluated=0,
        )

    run = ModelRun(
        model=model,
        scale=scale,
        original_cost=cm.graph_cost(graph),
        tensat=tensat_result,
        tensat_seconds=tensat_seconds,
        taso=taso_result,
    )
    _RUN_CACHE[cache_key] = run
    return run


# --------------------------------------------------------------------- #
# Result table output
# --------------------------------------------------------------------- #


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width plain-text table."""
    columns = [[str(h)] + [str(r[i]) for r in rows] for i, h in enumerate(headers)]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines = []
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def write_result(name: str, text: str, data: Optional[dict] = None) -> None:
    """Persist a regenerated table under benchmarks/results/ (and echo it)."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    if data is not None:
        (RESULTS_DIR / f"{name}.json").write_text(json.dumps(data, indent=2, default=float) + "\n")
    print(f"\n=== {name} (scale={bench_scale()}) ===")
    print(text)
