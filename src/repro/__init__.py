"""repro -- a Python reproduction of TENSAT (MLSys 2021).

TENSAT performs tensor graph superoptimization with *equality saturation*: it
grows an e-graph containing every graph reachable from the input via a set of
semantics-preserving rewrite rules, then extracts the cheapest equivalent
graph with a greedy algorithm or an Integer Linear Program.

Top-level convenience API::

    from repro import optimize, TensatConfig
    from repro.models import build_model

    graph = build_model("nasrnn", scale="small")
    result = optimize(graph)
    print(result.speedup_percent)

Or phase by phase, with the session API (see ``docs/api.md``)::

    from repro import OptimizationSession

    session = OptimizationSession(graph)
    while session.step() is not None:   # one saturation iteration at a time
        pass
    result = session.result()

Batches share one compiled rule trie via :func:`optimize_many`.

For repeated traffic there is a long-lived daemon (``python -m repro serve``)
with a canonical-fingerprint result cache; see :mod:`repro.service` and
``docs/service.md``.

The package is organised as:

* :mod:`repro.egraph`   -- e-graph / equality-saturation substrate (egg-like).
* :mod:`repro.ir`       -- tensor computation graph IR (paper Table 2 operators).
* :mod:`repro.rules`    -- TASO-style rewrite rule library.
* :mod:`repro.costs`    -- operator cost models (analytic T4-like device model).
* :mod:`repro.backend`  -- numpy reference executor and simulated runtimes.
* :mod:`repro.search`   -- the sequential TASO-style backtracking baseline.
* :mod:`repro.core`     -- the TENSAT optimizer itself.
* :mod:`repro.models`   -- benchmark model graph constructors.
"""

from repro.core.batch import ComparisonResult, compare, optimize_many
from repro.core.config import ConfigError, TensatConfig
from repro.core.events import OptimizationObserver, PhaseTimingObserver, RecordingObserver
from repro.core.optimizer import OptimizationResult, TensatOptimizer, optimize
from repro.core.session import OptimizationSession
from repro.core.stats import OptimizationStats
from repro.ir.graph import GraphBuilder, TensorGraph
from repro.ir.onnx_import import OnnxImportError, import_onnx
from repro.ir.opspec import OPS, OpSpec, UnknownOperatorError, register_concat
from repro.ir.tensor import TensorShape

__version__ = "0.2.0"

#: Names served from :mod:`repro.service` on first access (PEP 562), so that
#: ``import repro`` loads neither the service stack nor ``asyncio``.
_SERVICE_NAMES = ("ResultCache", "ServiceClient", "ServiceConfig", "ServiceError", "graph_fingerprint")


def __getattr__(name: str):
    if name in _SERVICE_NAMES:
        from repro import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    # Driver API
    "OptimizationSession",
    "TensatOptimizer",
    "TensatConfig",
    "ConfigError",
    "OptimizationResult",
    "OptimizationStats",
    "optimize",
    # Batch front door
    "optimize_many",
    "compare",
    "ComparisonResult",
    # Event / observer API
    "OptimizationObserver",
    "PhaseTimingObserver",
    "RecordingObserver",
    # Optimization service
    "ResultCache",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "graph_fingerprint",
    # IR conveniences
    "GraphBuilder",
    "TensorGraph",
    "TensorShape",
    # Operator-spec registry + ONNX front door
    "OPS",
    "OpSpec",
    "UnknownOperatorError",
    "register_concat",
    "import_onnx",
    "OnnxImportError",
    "__version__",
]
