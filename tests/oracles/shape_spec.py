"""Shape-checking conditions by bottom-up inference per evaluation.

The spec of ``repro.rules.conditions.TargetsShapeValid``: every evaluation
re-runs shape inference over the target pattern, reading variable leaves
from ``egraph.analysis_data``.  The compiled condition programs must return
the identical verdict for every match (``tests/test_conditions.py``,
``tests/test_substitution.py``, ``tests/test_optimizer_golden.py``).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.egraph.egraph import EGraph
from repro.egraph.pattern import Pattern, PatternTerm, PatternVar
from repro.ir.opspec import infer_symbol
from repro.ir.tensor import ShapeError, TensorData


def _infer_term(egraph: EGraph, subst: Dict[str, int], term: PatternTerm, memo: Dict) -> TensorData:
    """Bottom-up shape inference for one pattern term under ``subst``.

    Variables read their metadata from the e-class analysis; operator nodes
    run shape inference on their children's results.  ``memo`` (keyed by
    term identity) shares the inference of repeated sub-terms within one
    evaluation.  Raises :class:`ShapeError` when the term is ill-typed.
    """
    key = id(term)
    data = memo.get(key)
    if data is not None:
        return data
    if isinstance(term, PatternVar):
        eclass = subst.get(term.name)
        if eclass is None:
            raise ShapeError(f"variable ?{term.name} unbound")
        data = egraph.analysis_data(eclass)
        if data is None or not data.is_valid:
            raise ShapeError(f"variable ?{term.name} has no valid analysis data")
    else:
        data = infer_symbol(
            term.op, [_infer_term(egraph, subst, c, memo) for c in term.children]
        )
    memo[key] = data
    return data


def pattern_data(egraph: EGraph, pattern: Pattern, subst: Dict[str, int]) -> TensorData:
    """Infer the metadata the root of ``pattern`` would have under ``subst``.

    Raises :class:`ShapeError` when the pattern would be ill-typed.
    """
    return _infer_term(egraph, subst, pattern.root, {})


def targets_valid_spec(egraph: EGraph, targets: Sequence[Pattern], subst: Dict[str, int]) -> bool:
    """Whether every target pattern type-checks under ``subst``."""
    memo: Dict[int, TensorData] = {}
    for target in targets:
        try:
            data = _infer_term(egraph, subst, target.root, memo)
        except ShapeError:
            return False
        if not data.is_valid:
            return False
    return True
