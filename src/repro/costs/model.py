"""Cost model interface and the analytic (roofline) implementation.

A cost model assigns each operator instance an independent cost (paper
Section 5); the cost of a graph is the sum over its nodes, and the cost of a
candidate e-node during extraction is computed from the analysis data of its
children e-classes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.costs.device import DeviceProfile, T4
from repro.egraph.egraph import EGraph
from repro.egraph.language import ENode
from repro.egraph.shapeanalysis import infer_fact
from repro.ir.ops import OpKind
from repro.ir.opspec import OPS, infer_symbol, op_bytes, op_flops
from repro.ir.tensor import DataKind, TensorData

__all__ = ["CostModel", "AnalyticCostModel", "INVALID_COST"]

#: Cost assigned to e-nodes whose operands are shape-invalid; large enough
#: that extraction never selects them, finite so the ILP stays well-scaled.
INVALID_COST = 1e6


class CostModel:
    """Interface shared by all cost models.  Costs are in milliseconds.

    ``op_cost`` must be a pure function of its arguments: :meth:`enode_cost`
    computes each ``(symbol, operand facts)`` pair once per model instance
    and serves every later call from its cache.  A model whose costs change
    while it is in use (say, a per-symbol table that gets edited) needs a
    fresh instance.
    """

    def op_cost(
        self,
        symbol: str,
        children: Sequence[TensorData],
        output: Optional[TensorData] = None,
    ) -> float:
        """Cost of one operator instance given operand / result metadata."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Adapters
    # ------------------------------------------------------------------ #

    def enode_cost(self, enode: ENode, egraph: EGraph) -> float:
        """Cost of an e-node, reading operand metadata from the e-class analysis.

        Cached per instance under the symbol and the ids of the operand
        facts.  The ids stay unique: :func:`infer_fact` ran on the same
        operand objects and its process-wide entry keeps them alive.
        """
        children = [egraph.analysis_data(c) for c in enode.children]
        if any(c is None for c in children):
            return INVALID_COST
        try:
            cache = self._enode_costs
        except AttributeError:
            cache = self._enode_costs = {}
        key = (enode.op, *map(id, children))
        cost = cache.get(key)
        if cost is None:
            output = infer_fact(enode.op, children)
            cost = self.op_cost(enode.op, children, output) if output.is_valid else INVALID_COST
            cache[key] = cost
        return cost

    def __getstate__(self):
        # The enode-cost cache is keyed on ids of this process's facts.
        state = dict(self.__dict__)
        state.pop("_enode_costs", None)
        return state

    def extraction_cost_function(self):
        """The ``node_cost`` callable expected by the extractors."""
        return lambda enode, egraph: self.enode_cost(enode, egraph)

    def graph_cost(self, graph) -> float:
        """Total cost of a :class:`~repro.ir.graph.TensorGraph`."""
        return graph.total_cost(self)


class AnalyticCostModel(CostModel):
    """Roofline-style analytic model over a :class:`DeviceProfile`.

    The cost of a kernel is::

        launch_overhead + max(flops / effective_peak, bytes / bandwidth)

    with two TASO/TENSAT-specific refinements:

    * operators whose operands all derive from weights are free -- they can be
      pre-computed once before inference (paper Figure 10),
    * ``split`` and its projections are free: they are metadata-only views in
      TASO's runtime, which is what makes the concat/split merge rewrites
      profitable.
    """

    #: Operators that never cost anything at inference time.
    FREE_OPS = {
        OpKind.NUM,
        OpKind.STR,
        OpKind.INPUT,
        OpKind.WEIGHT,
        OpKind.NOOP,
        OpKind.SPLIT,
        OpKind.SPLIT0,
        OpKind.SPLIT1,
        OpKind.RESHAPE,
    }

    def __init__(self, device: DeviceProfile = T4) -> None:
        self.device = device

    def op_cost(
        self,
        symbol: str,
        children: Sequence[TensorData],
        output: Optional[TensorData] = None,
    ) -> float:
        spec = OPS.for_symbol(symbol)
        if spec is None:  # literal symbols (num/str payloads) are free
            return 0.0
        op = spec.kind
        if op in self.FREE_OPS:
            return 0.0
        if output is None:
            output = infer_symbol(symbol, children)
        if not output.is_valid:
            return INVALID_COST
        # Weight-only subgraphs are pre-computed before inference.
        if output.kind in (DataKind.TENSOR, DataKind.TUPLE) and output.from_weights:
            return 0.0

        flops = op_flops(symbol, children, output)
        nbytes = op_bytes(symbol, children, output)
        seconds = self.device.kernel_launch_overhead + max(
            self.device.compute_seconds(flops), self.device.memory_seconds(nbytes)
        )
        if op in (OpKind.MATMUL, OpKind.CONV):
            act_index = 0 if op == OpKind.MATMUL else 3
            act = children[act_index]
            if act.kind == DataKind.INT and act.value != 0:
                seconds += self.device.fused_activation_overhead
        return seconds * 1e3  # milliseconds
