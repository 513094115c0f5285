"""NasRNN (Zoph & Le, 2017): an RNN cell discovered by neural architecture search.

The cell combines many small matrix multiplications of the step input ``x_t``
and the hidden state ``h_{t-1}`` through element-wise gates.  All those
matmuls share ``x_t`` or ``h_{t-1}``, which is exactly the structure the
Figure-11 rewrite (merge matmuls feeding an add) and the multi-pattern
shared-operand merges exploit -- the paper reports its largest speedup (68.9%)
on this model.
"""

from __future__ import annotations

from typing import Dict

from repro.ir.graph import GraphBuilder, TensorGraph

__all__ = ["build_nasrnn"]

_PRESETS: Dict[str, Dict[str, int]] = {
    "tiny": {"hidden": 32, "input_size": 32, "steps": 1, "gates": 4},
    "small": {"hidden": 64, "input_size": 64, "steps": 2, "gates": 8},
    "full": {"hidden": 128, "input_size": 128, "steps": 4, "gates": 8},
}


def _nas_cell(b: GraphBuilder, x: int, h: int, step: int, hidden: int, input_size: int, gates: int) -> int:
    """One NasRNN cell: ``gates`` parallel (x W_i + h U_i) gate activations combined pairwise."""
    gate_outputs = []
    for g in range(gates):
        wx = b.weight(f"cell{step}_wx{g}", (input_size, hidden))
        wh = b.weight(f"cell{step}_wh{g}", (hidden, hidden))
        pre = b.ewadd(b.matmul(x, wx), b.matmul(h, wh))
        # NasRNN alternates activation functions across gates.
        if g % 2 == 0:
            gate_outputs.append(b.relu(pre))
        elif g % 4 == 1:
            gate_outputs.append(b.sigmoid(pre))
        else:
            gate_outputs.append(b.tanh(pre))

    # Combine gates pairwise (elementwise multiply) then reduce by addition,
    # mirroring the binary combination tree of the published cell.
    combined = []
    for i in range(0, len(gate_outputs) - 1, 2):
        combined.append(b.ewmul(gate_outputs[i], gate_outputs[i + 1]))
    if len(gate_outputs) % 2 == 1:
        combined.append(gate_outputs[-1])
    new_h = combined[0]
    for other in combined[1:]:
        new_h = b.ewadd(new_h, other)
    return b.tanh(new_h)


def build_nasrnn(scale: str = "small", **overrides) -> TensorGraph:
    """Build an unrolled NasRNN inference graph.

    Overrides: ``hidden``, ``input_size``, ``steps``, ``gates``.
    """
    params = dict(_PRESETS[scale])
    params.update(overrides)
    hidden, input_size = params["hidden"], params["input_size"]
    steps, gates = params["steps"], params["gates"]

    b = GraphBuilder(f"nasrnn-{scale}")
    h = b.input("h0", (1, hidden))
    for t in range(steps):
        x = b.input(f"x{t}", (1, input_size))
        h = _nas_cell(b, x, h, t, hidden, input_size, gates)
    return b.finish(outputs=[h])
