"""The tensor computation graph and its builder API.

A :class:`TensorGraph` is a DAG of :class:`Node` objects.  Following the
paper's representation (Section 3.1):

* every node represents the output tensor of its operator,
* operator parameters (strides, axes, activation/padding modes) are integer
  or string literal nodes,
* ``input`` / ``weight`` leaves carry a ``name@shape`` identifier string,
* a graph with several outputs is made single-rooted by combining them with
  ``noop`` nodes (which carry no cost and are never rewritten).

:class:`GraphBuilder` is the public construction API used by the model zoo in
:mod:`repro.models` and by user code; it hash-conses nodes so identical
subgraphs are shared, and it runs shape inference eagerly so malformed graphs
fail at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.ir.ops import Activation, OpKind, Padding, op_symbol
from repro.ir.opspec import OPS, infer_symbol
from repro.ir.tensor import TensorData, TensorShape, format_identifier

__all__ = ["Node", "TensorGraph", "GraphBuilder"]


@dataclass(frozen=True)
class Node:
    """A single node (operator output) in a tensor graph."""

    id: int
    op: OpKind
    inputs: Tuple[int, ...] = ()
    value: object = None  # literal payload for NUM / STR nodes
    data: TensorData = field(default_factory=lambda: TensorData.invalid("uninitialised"))

    @property
    def symbol(self) -> str:
        """The e-graph operator symbol of this node."""
        return op_symbol(self.op, num_inputs=len(self.inputs), value=self.value)

    @property
    def is_compute(self) -> bool:
        return self.op.is_compute

    @property
    def shape(self) -> TensorShape:
        return self.data.shape

    def __str__(self) -> str:
        args = ", ".join(str(i) for i in self.inputs)
        return f"%{self.id} = {self.symbol}({args}) : {self.data}"


class TensorGraph:
    """An immutable-ish tensor computation DAG.

    Nodes are stored in topological order (every node appears after all of
    its inputs).  Use :class:`GraphBuilder` to construct graphs.
    """

    def __init__(self, nodes: Sequence[Node], outputs: Sequence[int], name: str = "graph") -> None:
        self.nodes: List[Node] = list(nodes)
        self.outputs: List[int] = list(outputs)
        self.name = name
        self._validate_topology()

    # ------------------------------------------------------------------ #
    # Basic introspection
    # ------------------------------------------------------------------ #

    def _validate_topology(self) -> None:
        for i, node in enumerate(self.nodes):
            if node.id != i:
                raise ValueError(f"node ids must be dense and ordered; node {node.id} at position {i}")
            for child in node.inputs:
                if not 0 <= child < i:
                    raise ValueError(f"node {i} references input {child} that does not precede it")
        for out in self.outputs:
            if not 0 <= out < len(self.nodes):
                raise ValueError(f"output {out} is not a node of the graph")

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def compute_nodes(self) -> List[Node]:
        """Nodes that correspond to actual kernels (operators with a runtime cost)."""
        return [n for n in self.nodes if n.is_compute]

    def op_histogram(self) -> Dict[str, int]:
        hist: Dict[str, int] = {}
        for node in self.nodes:
            if node.is_compute:
                hist[node.op.value] = hist.get(node.op.value, 0) + 1
        return hist

    def num_compute_nodes(self) -> int:
        return len(self.compute_nodes())

    def consumers(self) -> Dict[int, List[int]]:
        """Map node id -> ids of nodes that consume it."""
        out: Dict[int, List[int]] = {n.id: [] for n in self.nodes}
        for node in self.nodes:
            for child in node.inputs:
                out[child].append(node.id)
        return out

    def input_nodes(self) -> List[Node]:
        return [n for n in self.nodes if n.op == OpKind.INPUT]

    def weight_nodes(self) -> List[Node]:
        return [n for n in self.nodes if n.op == OpKind.WEIGHT]

    def pruned(self) -> "TensorGraph":
        """Return a copy with dead nodes (unreachable from the outputs) removed."""
        live: List[int] = []
        seen = set()
        stack = list(self.outputs)
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            stack.extend(self.nodes[nid].inputs)
        mapping: Dict[int, int] = {}
        new_nodes: List[Node] = []
        for node in self.nodes:
            if node.id not in seen:
                continue
            new_id = len(new_nodes)
            mapping[node.id] = new_id
            new_nodes.append(
                Node(
                    id=new_id,
                    op=node.op,
                    inputs=tuple(mapping[c] for c in node.inputs),
                    value=node.value,
                    data=node.data,
                )
            )
        return TensorGraph(new_nodes, [mapping[o] for o in self.outputs], name=self.name)

    # ------------------------------------------------------------------ #
    # Cost
    # ------------------------------------------------------------------ #

    def total_cost(self, cost_model) -> float:
        """Total graph cost: the sum of per-operator costs (paper Section 5)."""
        total = 0.0
        for node in self.nodes:
            if not node.is_compute:
                continue
            children = [self.nodes[c].data for c in node.inputs]
            total += cost_model.op_cost(node.symbol, children, node.data)
        return total

    # ------------------------------------------------------------------ #
    # Canonical signature (used by the sequential search to deduplicate graphs)
    # ------------------------------------------------------------------ #

    def signature(self) -> str:
        """A canonical string identifying this graph up to node reordering."""
        from repro.ir.convert import graph_to_recexpr

        expr, _ = graph_to_recexpr(self)
        return str(expr)

    # ------------------------------------------------------------------ #
    # Pretty printing
    # ------------------------------------------------------------------ #

    def __str__(self) -> str:
        lines = [f"TensorGraph {self.name!r}: {len(self.nodes)} nodes, outputs={self.outputs}"]
        for node in self.nodes:
            lines.append("  " + str(node))
        return "\n".join(lines)

    def describe(self) -> str:
        hist = self.op_histogram()
        ops = ", ".join(f"{k}={v}" for k, v in sorted(hist.items()))
        return f"{self.name}: {self.num_compute_nodes()} compute nodes ({ops})"


class GraphBuilder:
    """Fluent builder for :class:`TensorGraph` with hash-consing and eager shape checks.

    Example
    -------
    >>> b = GraphBuilder("example")
    >>> x = b.input("x", (8, 64))
    >>> w = b.weight("w", (64, 128))
    >>> y = b.relu(b.matmul(x, w))
    >>> graph = b.finish(outputs=[y])
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._nodes: List[Node] = []
        self._memo: Dict[Tuple, int] = {}
        self._outputs: List[int] = []

    # ------------------------------------------------------------------ #
    # Core interning
    # ------------------------------------------------------------------ #

    def _intern(self, op: OpKind, inputs: Sequence[int] = (), value: object = None) -> int:
        inputs = tuple(int(i) for i in inputs)
        for child in inputs:
            if not 0 <= child < len(self._nodes):
                raise ValueError(f"unknown input node id {child}")
        key = (op, inputs, value)
        existing = self._memo.get(key)
        if existing is not None:
            return existing
        symbol = op_symbol(op, num_inputs=len(inputs), value=value)
        children_data = [self._nodes[c].data for c in inputs]
        data = infer_symbol(symbol, children_data)
        node = Node(id=len(self._nodes), op=op, inputs=inputs, value=value, data=data)
        self._nodes.append(node)
        self._memo[key] = node.id
        return node.id

    def data(self, node_id: int) -> TensorData:
        """Inferred metadata of a node already in the builder."""
        return self._nodes[node_id].data

    def add_symbol(self, symbol: str, inputs: Sequence[int] = (), strict: bool = False) -> int:
        """Add a node by its e-graph operator symbol (used when materialising patterns).

        ``strict=True`` raises :class:`~repro.ir.opspec.UnknownOperatorError`
        for symbols that are neither registered operators nor recognisable
        literals, instead of silently interning a string node.
        """
        from repro.ir.ops import symbol_to_op

        op, literal = symbol_to_op(symbol, strict=strict)
        return self._intern(op, tuple(inputs), literal)

    def import_node(self, graph: "TensorGraph", node_id: int, mapping: Dict[int, int]) -> int:
        """Copy one node of another graph into this builder (children must be mapped already)."""
        node = graph.nodes[node_id]
        inputs = tuple(mapping[c] for c in node.inputs)
        return self._intern(node.op, inputs, node.value)

    def shape(self, node_id: int) -> TensorShape:
        return self._nodes[node_id].data.shape

    # ------------------------------------------------------------------ #
    # Literals and identifiers
    # ------------------------------------------------------------------ #

    def num(self, value: int) -> int:
        """An integer parameter node."""
        return self._intern(OpKind.NUM, (), int(value))

    def string(self, value: str) -> int:
        """A string parameter node."""
        return self._intern(OpKind.STR, (), str(value))

    def input(self, name: str, shape: TensorShape) -> int:
        """An input (activation) tensor."""
        ident = self.string(format_identifier(name, shape))
        return self._intern(OpKind.INPUT, (ident,))

    def weight(self, name: str, shape: TensorShape) -> int:
        """A weight (parameter) tensor."""
        ident = self.string(format_identifier(name, shape))
        return self._intern(OpKind.WEIGHT, (ident,))

    # ------------------------------------------------------------------ #
    # Operators (paper Table 2)
    # ------------------------------------------------------------------ #

    def ewadd(self, a: int, b: int) -> int:
        """Element-wise addition."""
        return self._intern(OpKind.EWADD, (a, b))

    def ewmul(self, a: int, b: int) -> int:
        """Element-wise multiplication."""
        return self._intern(OpKind.EWMUL, (a, b))

    def matmul(self, a: int, b: int, activation: Activation = Activation.NONE) -> int:
        """Matrix multiplication with an optional fused activation."""
        return self._intern(OpKind.MATMUL, (self.num(int(activation)), a, b))

    def conv(
        self,
        x: int,
        w: int,
        stride: Tuple[int, int] = (1, 1),
        padding: Padding = Padding.SAME,
        activation: Activation = Activation.NONE,
    ) -> int:
        """Grouped convolution (normal and depth-wise convs are special cases)."""
        sh, sw = stride
        return self._intern(
            OpKind.CONV,
            (self.num(sh), self.num(sw), self.num(int(padding)), self.num(int(activation)), x, w),
        )

    def relu(self, x: int) -> int:
        return self._intern(OpKind.RELU, (x,))

    def tanh(self, x: int) -> int:
        return self._intern(OpKind.TANH, (x,))

    def sigmoid(self, x: int) -> int:
        return self._intern(OpKind.SIGMOID, (x,))

    def _pool(
        self,
        op: OpKind,
        x: int,
        kernel: Tuple[int, int],
        stride: Tuple[int, int],
        padding: Padding,
        activation: Activation,
    ) -> int:
        kh, kw = kernel
        sh, sw = stride
        return self._intern(
            op,
            (
                x,
                self.num(kh),
                self.num(kw),
                self.num(sh),
                self.num(sw),
                self.num(int(padding)),
                self.num(int(activation)),
            ),
        )

    def poolmax(
        self,
        x: int,
        kernel: Tuple[int, int],
        stride: Tuple[int, int] = (1, 1),
        padding: Padding = Padding.SAME,
        activation: Activation = Activation.NONE,
    ) -> int:
        """Max pooling."""
        return self._pool(OpKind.POOLMAX, x, kernel, stride, padding, activation)

    def poolavg(
        self,
        x: int,
        kernel: Tuple[int, int],
        stride: Tuple[int, int] = (1, 1),
        padding: Padding = Padding.SAME,
        activation: Activation = Activation.NONE,
    ) -> int:
        """Average pooling."""
        return self._pool(OpKind.POOLAVG, x, kernel, stride, padding, activation)

    def transpose(self, x: int, perm: Sequence[int]) -> int:
        """Transpose with the axis permutation given as a sequence of ints."""
        perm_str = " ".join(str(int(p)) for p in perm)
        return self._intern(OpKind.TRANSPOSE, (x, self.string(perm_str)))

    def enlarge(self, x: int, ref: int) -> int:
        """Zero-pad convolution kernel ``x`` spatially to the size of ``ref``."""
        return self._intern(OpKind.ENLARGE, (x, ref))

    def concat(self, axis: int, *tensors: int) -> int:
        """Concatenate two or more tensors along ``axis``.

        The maximum arity is the registry's concat symbol family
        (``OPS.concat_max_inputs``, default 8); widen it with
        :func:`repro.ir.opspec.register_concat`.
        """
        if len(tensors) < 2:
            raise ValueError("concat needs at least two tensors")
        max_inputs = OPS.concat_max_inputs
        if len(tensors) > max_inputs:
            raise ValueError(f"concat of {len(tensors)} tensors unsupported (max {max_inputs})")
        return self._intern(OpKind.CONCAT, (self.num(axis),) + tuple(tensors))

    def split(self, axis: int, x: int) -> Tuple[int, int]:
        """Split ``x`` along ``axis`` at the most recent concat position; returns both pieces."""
        tup = self._intern(OpKind.SPLIT, (self.num(axis), x))
        return self._intern(OpKind.SPLIT0, (tup,)), self._intern(OpKind.SPLIT1, (tup,))

    def merge(self, w: int, count: int) -> int:
        """Merge every ``count`` groups of a grouped-convolution weight."""
        return self._intern(OpKind.MERGE, (w, self.num(count)))

    def reshape(self, x: int, shape: TensorShape) -> int:
        shape_str = " ".join(str(int(d)) for d in shape)
        return self._intern(OpKind.RESHAPE, (x, self.string(shape_str)))

    def noop(self, a: int, b: int) -> int:
        """Combine two outputs (used to make the graph single-rooted)."""
        return self._intern(OpKind.NOOP, (a, b))

    # ------------------------------------------------------------------ #
    # Convenience compound helpers (not Table-2 primitives)
    # ------------------------------------------------------------------ #

    def activation(self, x: int, kind: Activation) -> int:
        """Apply an activation given by its :class:`Activation` code."""
        if kind == Activation.NONE:
            return x
        if kind == Activation.RELU:
            return self.relu(x)
        if kind == Activation.SIGMOID:
            return self.sigmoid(x)
        if kind == Activation.TANH:
            return self.tanh(x)
        raise ValueError(f"unknown activation {kind}")

    def split_many(self, axis: int, x: int, count: int) -> List[int]:
        """Repeatedly split ``x`` into ``count`` pieces along ``axis``."""
        pieces: List[int] = []
        rest = x
        for _ in range(count - 1):
            first, rest = self.split(axis, rest)
            pieces.append(first)
        pieces.append(rest)
        return pieces

    # ------------------------------------------------------------------ #
    # Finalisation
    # ------------------------------------------------------------------ #

    def mark_output(self, *node_ids: int) -> None:
        for node_id in node_ids:
            if not 0 <= node_id < len(self._nodes):
                raise ValueError(f"unknown node id {node_id}")
            if node_id not in self._outputs:
                self._outputs.append(node_id)

    def finish(self, outputs: Optional[Sequence[int]] = None) -> TensorGraph:
        """Produce the finished :class:`TensorGraph`."""
        if outputs is not None:
            self.mark_output(*outputs)
        if not self._outputs:
            if not self._nodes:
                raise ValueError("cannot finish an empty graph")
            self._outputs = [len(self._nodes) - 1]
        return TensorGraph(self._nodes, self._outputs, name=self.name)
