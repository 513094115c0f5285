"""Conversion between the tensor IR and e-graph terms, plus the tensor analysis.

* :func:`graph_to_recexpr` serialises a :class:`~repro.ir.graph.TensorGraph`
  into a single-rooted :class:`~repro.egraph.language.RecExpr` (combining
  multiple outputs with ``noop`` nodes, paper Section 3.1).
* :func:`recexpr_to_graph` parses an extracted term back into a
  :class:`TensorGraph`, re-running shape inference.
* :class:`TensorAnalysis` is the e-class analysis that carries
  :class:`~repro.ir.tensor.TensorData` (shape, split locations) for every
  e-class, used for shape checking during exploration and for the cost model
  during extraction (paper Section 6).  The implementation lives in
  :mod:`repro.egraph.shapeanalysis` (interned per-e-class facts); the name
  here is the historical front door and stays importable.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.egraph.egraph import EGraph
from repro.egraph.language import ENode, RecExpr
from repro.egraph.shapeanalysis import TensorShapeAnalysis
from repro.ir.graph import Node, TensorGraph
from repro.ir.ops import OpKind, symbol_to_op
from repro.ir.opspec import infer_symbol

__all__ = ["graph_to_recexpr", "recexpr_to_graph", "TensorAnalysis", "egraph_from_graph"]


# ---------------------------------------------------------------------- #
# Graph -> term
# ---------------------------------------------------------------------- #


def graph_to_recexpr(graph: TensorGraph) -> Tuple[RecExpr, Dict[int, int]]:
    """Serialise ``graph`` into a single-rooted term.

    Returns ``(expr, node_to_index)`` where ``node_to_index`` maps graph node
    ids to indices in the returned expression (the ``noop`` glue nodes that
    single-root a multi-output graph have no preimage).
    """
    expr = RecExpr()
    memo: Dict[ENode, int] = {}
    node_to_index: Dict[int, int] = {}

    for node in graph.nodes:
        children = tuple(node_to_index[c] for c in node.inputs)
        idx = expr.add_unique(ENode(node.symbol, children), memo)
        node_to_index[node.id] = idx

    # Make the expression single-rooted by folding outputs with noop nodes.
    output_indices = [node_to_index[o] for o in graph.outputs]
    root = output_indices[0]
    for other in output_indices[1:]:
        root = expr.add_unique(ENode("noop", (root, other)), memo)
    if len(output_indices) == 1 and root != expr.root:
        # Ensure the designated root is the last node (RecExpr convention).
        root = expr.add_unique(ENode("noop", (root, root)), memo)
    return expr, node_to_index


# ---------------------------------------------------------------------- #
# Term -> graph
# ---------------------------------------------------------------------- #


def recexpr_to_graph(expr: RecExpr, name: str = "extracted", strict: bool = True) -> TensorGraph:
    """Parse a term back into a :class:`TensorGraph`, re-running shape inference.

    ``noop`` nodes forming the single-rooting spine are stripped and their
    non-noop leaves become the graph outputs (in left-to-right order).

    By default symbols resolve *strictly*: a symbol that is neither a
    registered operator nor a recognisable literal (an integer, a
    ``name@dims`` identifier, or an integer-list string) raises
    :class:`~repro.ir.opspec.UnknownOperatorError` instead of silently
    becoming a string-literal node -- extracted terms and serialized files
    only ever contain known symbols, so an unknown one is a typo'd rule
    target or a corrupted document.  Pass ``strict=False`` for the
    historical lenient behaviour.
    """
    nodes: List[Node] = []
    index_to_id: Dict[int, int] = {}

    for i, enode in enumerate(expr.nodes):
        op, literal = symbol_to_op(enode.op, strict=strict)
        inputs = tuple(index_to_id[c] for c in enode.children)
        children_data = [nodes[c].data for c in inputs]
        data = infer_symbol(enode.op, children_data)
        node = Node(id=len(nodes), op=op, inputs=inputs, value=literal, data=data)
        nodes.append(node)
        index_to_id[i] = node.id

    root_id = index_to_id[expr.root]

    # Collect outputs: peel the noop spine.
    outputs: List[int] = []
    seen = set()

    def collect(node_id: int) -> None:
        node = nodes[node_id]
        if node.op == OpKind.NOOP:
            for child in node.inputs:
                collect(child)
        else:
            if node_id not in seen:
                seen.add(node_id)
                outputs.append(node_id)

    collect(root_id)
    if not outputs:
        outputs = [root_id]
    return TensorGraph(nodes, outputs, name=name)


# ---------------------------------------------------------------------- #
# Tensor e-class analysis
# ---------------------------------------------------------------------- #


class TensorAnalysis(TensorShapeAnalysis):
    """E-class analysis carrying tensor metadata (shape, split locations).

    The historical name for :class:`~repro.egraph.shapeanalysis.TensorShapeAnalysis`,
    kept as the IR-facing front door: ``make`` runs shape inference per new
    e-node, ``merge`` prefers valid data, unions split-location records, and
    detects shape conflicts (raising only in ``strict`` mode to keep
    exploration robust).  Facts are interned so condition checks can compare
    them by pointer; see the module docstring of
    :mod:`repro.egraph.shapeanalysis`.
    """


# ---------------------------------------------------------------------- #
# Convenience: seed an e-graph from a tensor graph
# ---------------------------------------------------------------------- #


def egraph_from_graph(graph: TensorGraph, strict: bool = False) -> Tuple[EGraph, int]:
    """Create an e-graph with the :class:`TensorAnalysis` seeded with ``graph``.

    Returns ``(egraph, root_eclass)``.
    """
    egraph = EGraph(analysis=TensorAnalysis(strict=strict))
    expr, _ = graph_to_recexpr(graph)
    root = egraph.add_expr(expr)
    return egraph, root
