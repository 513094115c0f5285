"""The TENSAT optimizer: equality-saturation exploration + extraction.

The driver layer: :class:`OptimizationSession` (steppable phases),
:func:`optimize` (one-shot composition),
:func:`optimize_many` / :func:`compare` (batch front door), and the
observer hooks (:mod:`repro.core.events`).
"""

from repro.core.batch import ComparisonResult, compare, compile_shared_trie, optimize_many
from repro.core.config import ConfigError, TensatConfig
from repro.core.events import OptimizationObserver, RecordingObserver
from repro.core.optimizer import optimize
from repro.core.session import OptimizationResult, OptimizationSession, materialize_extraction
from repro.core.stats import OptimizationStats

__all__ = [
    "ComparisonResult",
    "ConfigError",
    "OptimizationObserver",
    "OptimizationResult",
    "OptimizationSession",
    "OptimizationStats",
    "RecordingObserver",
    "TensatConfig",
    "compare",
    "compile_shared_trie",
    "materialize_extraction",
    "optimize",
    "optimize_many",
]
