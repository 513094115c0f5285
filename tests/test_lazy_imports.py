"""numpy, scipy and the service stack load only where they run.

A greedy-extraction process never touches either package: the ILP extractor
(:mod:`repro.egraph.extraction.ilp` / ``problem``) loads on first use and the
numeric executor loads inside the ``verify_numerically`` branch.
``import repro`` leaves :mod:`repro.service` (and with it ``asyncio``)
unloaded until one of its names is read from the package.  Each check runs
in a fresh interpreter, because this test process has long since imported
all of them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.config import TensatConfig
from repro.core.optimizer import optimize
from repro.models import build_model

REPO_ROOT = Path(__file__).resolve().parent.parent
MLP_TINY = REPO_ROOT / "tests" / "data" / "onnx" / "mlp_tiny.onnx"

#: Prepended to a child script: any import of numpy or scipy raises.
BLOCKER = """
import importlib.abc, sys

class _Blocked(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "scipy"):
            raise ImportError(f"{name} is blocked in this interpreter")
        return None

sys.meta_path.insert(0, _Blocked())
"""

HEAVY = "[m for m in sys.modules if m.partition('.')[0] in ('numpy', 'scipy')]"


def run_child(script: str, *, block: bool) -> dict:
    """Run ``script`` in a fresh interpreter; it prints one JSON line last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    code = (BLOCKER if block else "") + "import sys, json\n" + script
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO_ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_greedy_runs_never_import_numpy_or_scipy():
    out = run_child(
        f"""
import repro
from repro.models import build_model
onnx_cost = repro.optimize(repro.import_onnx({str(MLP_TINY)!r}), extraction="greedy").optimized_cost
model_cost = repro.optimize(build_model("nasrnn", "tiny"), extraction="greedy").optimized_cost
print(json.dumps({{"heavy": {HEAVY}, "costs": [onnx_cost, model_cost]}}))
""",
        block=True,
    )
    assert out["heavy"] == []
    assert all(cost > 0 for cost in out["costs"])


def test_greedy_cli_runs_with_numpy_and_scipy_blocked():
    for source in (["--onnx", str(MLP_TINY)], ["--model", "nasrnn"]):
        argv = ["repro", "optimize", *source, "--extraction", "greedy", "--json"]
        out = run_child(
            f"""
import contextlib, io, runpy
sys.argv = {argv!r}
buffer = io.StringIO()
with contextlib.redirect_stdout(buffer):
    try:
        runpy.run_module("repro", run_name="__main__")
    except SystemExit as exc:
        assert not exc.code, exc.code
stats = json.loads(buffer.getvalue())
print(json.dumps({{"heavy": {HEAVY}, "status": stats["extraction_status"]}}))
""",
            block=True,
        )
        assert out == {"heavy": [], "status": "ok"}, source


def test_ilp_loads_scipy_on_first_use_with_the_same_cost():
    config = TensatConfig.fast().with_overrides(extraction="ilp")
    expected = optimize(build_model("nasrnn", "tiny"), config=config)
    out = run_child(
        f"""
import repro
from repro import TensatConfig
from repro.models import build_model
before = {HEAVY}
config = TensatConfig.fast().with_overrides(extraction="ilp")
result = repro.optimize(build_model("nasrnn", "tiny"), config=config)
print(json.dumps({{"before": before, "scipy": "scipy.optimize" in sys.modules,
                  "cost": result.optimized_cost, "status": result.stats.extraction_status}}))
""",
        block=False,
    )
    assert out["before"] == []
    assert out["scipy"] is True
    assert out["cost"] == expected.optimized_cost
    assert out["status"] == expected.stats.extraction_status


def test_lazy_names_still_import_from_the_package():
    out = run_child(
        f"""
import repro.egraph.extraction as extraction
before = {HEAVY}
from repro.egraph.extraction import ILPExtractor, ReductionStats, build_extraction_problem
from repro.egraph.extraction.ilp import ILPExtractor as direct
try:
    extraction.NoSuchExtractor
    missing = "resolved"
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({{"before": before, "same": ILPExtractor is direct,
                  "names": [ILPExtractor.__name__, ReductionStats.__name__,
                            build_extraction_problem.__name__],
                  "missing": missing}}))
""",
        block=False,
    )
    assert out["before"] == []
    assert out["same"] is True
    assert out["names"] == ["ILPExtractor", "ReductionStats", "build_extraction_problem"]
    assert "NoSuchExtractor" in out["missing"]


def test_import_repro_leaves_the_service_stack_unloaded():
    out = run_child(
        """
import repro
import repro.core.batch
from repro.rules.library import default_ruleset
default_ruleset()
print(json.dumps({"loaded": sorted(m for m in sys.modules
                                   if m == "asyncio" or m.startswith("repro.service"))}))
""",
        block=False,
    )
    assert out["loaded"] == []


def test_service_names_still_import_from_the_package():
    out = run_child(
        """
import repro
from repro import ServiceClient, ServiceConfig, ServiceError, ResultCache, graph_fingerprint
from repro.service import ServiceClient as direct
try:
    repro.NoSuchName
    missing = "resolved"
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({"same": ServiceClient is direct, "loaded": "repro.service" in sys.modules,
                  "names": [ServiceConfig.__name__, ServiceError.__name__, ResultCache.__name__,
                            graph_fingerprint.__name__],
                  "missing": missing}))
""",
        block=False,
    )
    assert out["same"] is True
    assert out["loaded"] is True
    assert out["names"] == ["ServiceConfig", "ServiceError", "ResultCache", "graph_fingerprint"]
    assert "NoSuchName" in out["missing"]
