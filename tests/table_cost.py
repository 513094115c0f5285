"""A cost model with explicit per-symbol costs, for tests that need exact,
easily-reasoned-about costs."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.costs.model import CostModel
from repro.ir.opspec import OPS
from repro.ir.tensor import TensorData


class TableCostModel(CostModel):
    """Per-symbol costs; unknown compute symbols cost ``default`` (or ask
    ``fallback``), non-compute symbols cost 0.  The table is read-only once
    the model is in use (e-node costs are cached; see :class:`CostModel`)."""

    def __init__(
        self,
        table: Dict[str, float],
        default: float = 0.0,
        fallback: Optional[CostModel] = None,
    ) -> None:
        self.table = dict(table)
        self.default = default
        self.fallback = fallback

    def op_cost(
        self,
        symbol: str,
        children: Sequence[TensorData],
        output: Optional[TensorData] = None,
    ) -> float:
        if symbol in self.table:
            return self.table[symbol]
        if self.fallback is not None:
            return self.fallback.op_cost(symbol, children, output)
        spec = OPS.for_symbol(symbol)
        if spec is None or not spec.is_compute:
            return 0.0
        return self.default
