"""Golden optimize trajectories pinning the operator-registry refactor.

``tests/data/golden_refactor.json`` records, for every built-in model, the
full saturation trajectory (per-iteration match/apply/dedup/e-node counts),
the extracted cost, and the canonical fingerprint of the optimized graph, as
produced *before* shape inference / cost accounting moved from if/elif
chains to the :data:`repro.ir.opspec.OPS` registry.  These tests re-run the
same configuration and require bit-for-bit identical trajectories -- any
divergence means the registry dispatch changed a verdict somewhere.
"""

import json
from pathlib import Path

import pytest

from repro.core import TensatConfig
from repro.core.optimizer import optimize
from repro.models import build_model
from repro.service.fingerprint import graph_fingerprint

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_refactor.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.mark.slow
@pytest.mark.parametrize("model", sorted(GOLDEN["models"]))
def test_trajectory_bit_for_bit(model):
    expected = GOLDEN["models"][model]
    config = TensatConfig(**GOLDEN["config"])
    graph = build_model(model, GOLDEN["scale"])
    result = optimize(graph, config=config)

    report = result.runner_report
    iterations = report.iterations
    assert len(iterations) == expected["iterations"]
    assert [it.n_matches for it in iterations] == expected["per_iteration_matches"]
    assert [it.n_applied for it in iterations] == expected["per_iteration_applied"]
    assert [it.n_deduped for it in iterations] == expected["per_iteration_deduped"]
    assert [it.n_enodes for it in iterations] == expected["per_iteration_enodes"]
    assert result.stats.stop_reason == expected["stop_reason"]
    assert report.n_enodes == expected["num_enodes"]
    assert result.stats.original_cost == pytest.approx(expected["original_cost"], abs=0, rel=1e-12)
    assert result.stats.optimized_cost == pytest.approx(expected["optimized_cost"], abs=0, rel=1e-12)
    assert graph_fingerprint(result.optimized) == expected["optimized_fingerprint"]
