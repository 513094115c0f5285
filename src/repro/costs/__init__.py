"""Operator cost models.

The paper's cost model is additive and per-operator: "Each operator has a
separate and independent cost, which is the measured runtime of that operator
... on hardware.  The total cost of a graph is the sum of costs of each of its
nodes" (Section 5).  Without the paper's NVIDIA T4 + cuDNN measurement
backend, this package provides:

* :class:`~repro.costs.model.AnalyticCostModel` -- a roofline-style device
  model (FLOPs / memory traffic / kernel launch overhead) parameterised by a
  :class:`~repro.costs.device.DeviceProfile` (default: T4-like numbers).

Other models implement the :class:`~repro.costs.model.CostModel` interface
(one ``op_cost`` method).  The analytic model is deterministic, which is
what the who-wins comparisons in the benchmarks rely on.
"""

from repro.costs.device import DeviceProfile
from repro.costs.flops import op_bytes, op_flops
from repro.costs.model import AnalyticCostModel, CostModel

__all__ = [
    "DeviceProfile",
    "CostModel",
    "AnalyticCostModel",
    "op_flops",
    "op_bytes",
]
