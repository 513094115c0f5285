"""Table 1: optimization time and runtime speedup, TASO vs TENSAT, on all seven models.

Regenerates the paper's headline comparison.  For every benchmark model the
harness runs the TASO-style backtracking baseline and TENSAT over the same
rules and cost model, then reports search time and the cost-model speedup of
the optimized graph over the original.  Paper numbers are printed alongside
for qualitative comparison (absolute values are not expected to match -- see
the "Tests and benchmarks" section of README.md).
"""

import pytest

from benchmarks.common import (
    PAPER_MODELS,
    PAPER_TABLE1,
    bench_scale,
    format_table,
    run_model,
    write_result,
)


def _generate_table1():
    rows = []
    data = {}
    for model in PAPER_MODELS:
        run = run_model(model)
        paper = PAPER_TABLE1[model]
        rows.append(
            [
                model,
                f"{run.taso.total_seconds:.2f}",
                f"{run.tensat_seconds:.2f}",
                f"{run.taso_speedup:.1f}",
                f"{run.tensat_speedup:.1f}",
                f"{paper[2]:.1f}",
                f"{paper[3]:.1f}",
            ]
        )
        data[model] = {
            "taso_seconds": run.taso.total_seconds,
            "tensat_seconds": run.tensat_seconds,
            "taso_speedup_percent": run.taso_speedup,
            "tensat_speedup_percent": run.tensat_speedup,
            "original_cost_ms": run.original_cost,
            "scale": run.scale,
        }
    table = format_table(
        [
            "model",
            "TASO time (s)",
            "TENSAT time (s)",
            "TASO speedup %",
            "TENSAT speedup %",
            "paper TASO %",
            "paper TENSAT %",
        ],
        rows,
    )
    write_result("table1_headline", table, data)
    return data


@pytest.mark.benchmark(group="table1")
def test_table1_headline(benchmark):
    data = benchmark.pedantic(_generate_table1, rounds=1, iterations=1)
    # Qualitative shape of Table 1: TENSAT finds graphs at least as good as the
    # sequential baseline on every model it improves, and NasRNN shows the
    # largest gain among all models (as in the paper).
    assert data["nasrnn"]["tensat_speedup_percent"] >= data["nasrnn"]["taso_speedup_percent"]
    best = max(data, key=lambda m: data[m]["tensat_speedup_percent"])
    assert best == "nasrnn"
    for model in data:
        assert data[model]["tensat_speedup_percent"] >= -1e-6
