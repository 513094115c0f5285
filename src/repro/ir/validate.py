"""Semantic validation of tensor graphs.

:class:`~repro.ir.graph.TensorGraph` already enforces topological node order
at construction; this module re-checks the *semantic* invariants that the
optimizer must preserve:

* every node's shape is consistent with re-running inference on its inputs,
* the graph is acyclic and single-connected from its outputs,
* inputs/weights referenced by the optimized graph existed in the original
  graph with identical shapes (the optimizer may only rearrange computation,
  never invent data).
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.ir.graph import TensorGraph
from repro.ir.ops import OpKind
from repro.ir.opspec import infer_symbol
from repro.ir.tensor import ShapeError

__all__ = ["ValidationError", "validate_graph", "check_same_interface", "reachable_from_outputs"]


class ValidationError(ValueError):
    """Raised when a graph violates a semantic invariant."""


def reachable_from_outputs(graph: TensorGraph) -> Set[int]:
    """Node ids reachable from the graph outputs (the 'live' part of the DAG)."""
    seen: Set[int] = set()
    stack = list(graph.outputs)
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        stack.extend(graph.nodes[nid].inputs)
    return seen


def validate_graph(graph: TensorGraph) -> None:
    """Check shape consistency and basic well-formedness; raise :class:`ValidationError`."""
    for node in graph.nodes:
        children = [graph.nodes[c].data for c in node.inputs]
        try:
            inferred = infer_symbol(node.symbol, children)
        except ShapeError as exc:
            raise ValidationError(f"node {node.id} ({node.symbol}) fails shape inference: {exc}") from exc
        if inferred.kind != node.data.kind:
            raise ValidationError(
                f"node {node.id} ({node.symbol}) has kind {node.data.kind} but inference gives {inferred.kind}"
            )
        if inferred.shape != node.data.shape:
            raise ValidationError(
                f"node {node.id} ({node.symbol}) has shape {node.data.shape} but inference gives {inferred.shape}"
            )
    if not graph.outputs:
        raise ValidationError("graph has no outputs")


def check_same_interface(original: TensorGraph, optimized: TensorGraph) -> None:
    """Check the optimized graph uses only inputs/weights available in the original.

    Weights may be *recombined* (e.g. concatenated) by rewrites, so the check
    is on identifiers: every input/weight identifier of the optimized graph
    must appear in the original with the same shape, and the number of graph
    outputs must match.
    """
    def identifiers(graph: TensorGraph) -> Dict[str, Tuple[int, ...]]:
        idents: Dict[str, Tuple[int, ...]] = {}
        for node in graph.nodes:
            if node.op in (OpKind.INPUT, OpKind.WEIGHT):
                ident_node = graph.nodes[node.inputs[0]]
                idents[str(ident_node.value)] = node.data.shape
        return idents

    orig = identifiers(original)
    opt = identifiers(optimized)
    for ident, shape in opt.items():
        if ident not in orig:
            raise ValidationError(f"optimized graph references unknown tensor {ident!r}")
        if orig[ident] != shape:
            raise ValidationError(
                f"tensor {ident!r} changed shape: {orig[ident]} in the original vs {shape} optimized"
            )
    if len(original.outputs) != len(optimized.outputs):
        raise ValidationError(
            f"output arity changed: {len(original.outputs)} originally vs {len(optimized.outputs)} optimized"
        )
