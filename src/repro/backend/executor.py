"""Reference interpreter for tensor graphs.

Evaluates a :class:`~repro.ir.graph.TensorGraph` node by node using the numpy
kernels.  Input and weight tensors are bound by name; any tensor not supplied
is filled with a deterministic pseudo-random array derived from its identifier,
so two graphs over the same inputs/weights can be compared numerically even
when no explicit feeds are given (this is how rewrite rules and end-to-end
optimizations are verified for semantics preservation).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.backend.kernels import execute_symbol
from repro.ir.graph import TensorGraph
from repro.ir.ops import OpKind

__all__ = ["Executor", "ExecutionResult", "execute_graph", "random_feeds", "outputs_allclose"]


def _seed_from_identifier(identifier: str, salt: int = 0) -> int:
    digest = hashlib.sha256(f"{salt}:{identifier}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def random_feeds(graph: TensorGraph, salt: int = 0, scale: float = 0.5) -> Dict[str, np.ndarray]:
    """Deterministic pseudo-random arrays for every input/weight of ``graph``.

    The same identifier always produces the same array (for a given ``salt``),
    so the original and optimized graphs see identical data.  Values are kept
    small to avoid overflow through deep element-wise chains.
    """
    feeds: Dict[str, np.ndarray] = {}
    for node in graph.nodes:
        if node.op not in (OpKind.INPUT, OpKind.WEIGHT):
            continue
        ident = str(graph.nodes[node.inputs[0]].value)
        if ident in feeds:
            continue
        rng = np.random.default_rng(_seed_from_identifier(ident, salt))
        feeds[ident] = (rng.standard_normal(node.data.shape) * scale).astype(np.float64)
    return feeds


@dataclass
class ExecutionResult:
    """Outputs of one graph execution, keyed by output position."""

    outputs: List[np.ndarray]
    values: Dict[int, object] = field(default_factory=dict)

    def output(self, index: int = 0) -> np.ndarray:
        return self.outputs[index]


class Executor:
    """Evaluates tensor graphs with the numpy kernels."""

    def __init__(self, graph: TensorGraph) -> None:
        self.graph = graph

    def run(self, feeds: Optional[Mapping[str, np.ndarray]] = None, salt: int = 0) -> ExecutionResult:
        """Execute the graph.  Missing inputs/weights are generated deterministically."""
        feeds = dict(feeds) if feeds else {}
        defaults = random_feeds(self.graph, salt=salt)
        for key, value in defaults.items():
            feeds.setdefault(key, value)

        values: Dict[int, object] = {}
        for node in self.graph.nodes:
            if node.op == OpKind.NUM:
                values[node.id] = int(node.value)
            elif node.op == OpKind.STR:
                values[node.id] = str(node.value)
            elif node.op in (OpKind.INPUT, OpKind.WEIGHT):
                ident = str(self.graph.nodes[node.inputs[0]].value)
                array = np.asarray(feeds[ident])
                if tuple(array.shape) != node.data.shape:
                    raise ValueError(
                        f"feed for {ident!r} has shape {array.shape}, expected {node.data.shape}"
                    )
                values[node.id] = array
            else:
                operands = [values[c] for c in node.inputs]
                operand_data = [self.graph.nodes[c].data for c in node.inputs]
                values[node.id] = execute_symbol(node.symbol, operands, operand_data)

        outputs = [np.asarray(values[o]) for o in self.graph.outputs]
        return ExecutionResult(outputs=outputs, values=values)


def execute_graph(
    graph: TensorGraph,
    feeds: Optional[Mapping[str, np.ndarray]] = None,
    salt: int = 0,
) -> ExecutionResult:
    """Convenience wrapper around :class:`Executor`."""
    return Executor(graph).run(feeds=feeds, salt=salt)


def outputs_allclose(
    a: ExecutionResult,
    b: ExecutionResult,
    rtol: float = 1e-5,
    atol: float = 1e-6,
) -> bool:
    """Compare two executions output-by-output."""
    if len(a.outputs) != len(b.outputs):
        return False
    return all(
        np.allclose(x, y, rtol=rtol, atol=atol) for x, y in zip(a.outputs, b.outputs)
    )
