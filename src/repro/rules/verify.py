"""Numerical verification of rewrite rules.

TASO verifies generated rules against an operator specification; the closest
equivalent here is to instantiate each rule's source and target patterns with
the example operands registered alongside the rule, execute both with the
numpy backend on identical (deterministically generated) data, and compare the
outputs.  Every rule in the library is verified this way by the test suite,
and users adding custom rules can reuse :func:`verify_rule` for theirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.backend.executor import execute_graph
from repro.egraph.language import ENode, RecExpr
from repro.egraph.multipattern import MultiPatternRewrite
from repro.egraph.pattern import Pattern
from repro.egraph.rewrite import Rewrite
from repro.ir.convert import recexpr_to_graph
from repro.ir.graph import TensorGraph
from repro.ir.tensor import format_identifier
from repro.rules.defs import ExampleBinding, RuleDef

__all__ = ["VerificationResult", "pattern_to_graph", "verify_rule"]


@dataclass
class VerificationResult:
    """Outcome of verifying one rule."""

    name: str
    ok: bool
    max_error: float
    message: str = ""


def _binding_to_recexpr(var: str, binding: ExampleBinding) -> RecExpr:
    kind, payload = binding
    if kind in ("input", "weight"):
        ident = format_identifier(var, tuple(payload))
        expr = RecExpr()
        ident_idx = expr.add(ENode(ident))
        expr.add(ENode(kind, (ident_idx,)))
        return expr
    if kind == "int":
        expr = RecExpr()
        expr.add(ENode(str(int(payload))))
        return expr
    if kind == "str":
        expr = RecExpr()
        expr.add(ENode(str(payload)))
        return expr
    raise ValueError(f"unknown example binding kind {kind!r} for ?{var}")


def pattern_to_graph(
    pattern: Pattern, example: Dict[str, ExampleBinding], name: str = "pattern"
) -> TensorGraph:
    """Materialise a pattern as a concrete :class:`TensorGraph` using example bindings."""
    subst_terms = {var: _binding_to_recexpr(var, binding) for var, binding in example.items()}
    expr = pattern.to_recexpr(subst_terms)
    return recexpr_to_graph(expr, name=name)


def _compare(
    lhs: TensorGraph, rhs: TensorGraph, rtol: float, atol: float, salt: int
) -> Tuple[bool, float]:
    out_l = execute_graph(lhs, salt=salt).outputs
    out_r = execute_graph(rhs, salt=salt).outputs
    if len(out_l) != len(out_r):
        return False, float("inf")
    max_err = 0.0
    for a, b in zip(out_l, out_r):
        if a.shape != b.shape:
            return False, float("inf")
        max_err = max(max_err, float(np.max(np.abs(a - b))) if a.size else 0.0)
        if not np.allclose(a, b, rtol=rtol, atol=atol):
            return False, max_err
    return True, max_err


def verify_rule(
    rule_def: RuleDef,
    rtol: float = 1e-5,
    atol: float = 1e-6,
    salts: Tuple[int, ...] = (0, 1),
) -> VerificationResult:
    """Check a rule's source and target patterns compute the same values.

    Shared variables across patterns receive identical operand data because
    feeds are generated deterministically from the variable name, so the two
    sides see exactly the same inputs.  Several ``salts`` re-run the check with
    different random data.
    """
    example = rule_def.example
    if not example:
        return VerificationResult(rule_def.name, False, float("inf"), "rule has no example bindings")

    rule = rule_def.rule
    if isinstance(rule, Rewrite):
        pairs: List[Tuple[Pattern, Pattern]] = [(rule.lhs, rule.rhs)]
    elif isinstance(rule, MultiPatternRewrite):
        pairs = list(zip(rule.sources, rule.targets))
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown rule type {type(rule)!r}")

    worst = 0.0
    for salt in salts:
        for i, (source, target) in enumerate(pairs):
            try:
                lhs_graph = pattern_to_graph(source, example, name=f"{rule_def.name}-src{i}")
                rhs_graph = pattern_to_graph(target, example, name=f"{rule_def.name}-tgt{i}")
            except Exception as exc:  # noqa: BLE001 - report as verification failure
                return VerificationResult(
                    rule_def.name, False, float("inf"), f"failed to materialise patterns: {exc}"
                )
            ok, err = _compare(lhs_graph, rhs_graph, rtol, atol, salt)
            worst = max(worst, err)
            if not ok:
                return VerificationResult(
                    rule_def.name,
                    False,
                    err,
                    f"output {i} differs under salt {salt} (max abs error {err:.3g})",
                )
    return VerificationResult(rule_def.name, True, worst)
