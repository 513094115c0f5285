"""BERT (Devlin et al., 2019): transformer encoder layers.

Following TASO's benchmark graph, attention is expressed over 2-D
``(sequence, hidden)`` tensors: the query/key/value projections are three
matmuls sharing the layer input (the Figure-8 pattern), attention mixes them
with further matmuls, and the feed-forward block is two more matmuls.  The
softmax is approximated by a ``sigmoid`` since Table 2 has no softmax
operator; this keeps the arithmetic structure (and therefore the rewrite
opportunities) intact.
"""

from __future__ import annotations

from typing import Dict

from repro.ir.graph import GraphBuilder, TensorGraph

__all__ = ["build_bert"]

_PRESETS: Dict[str, Dict[str, int]] = {
    "tiny": {"seq": 16, "hidden": 32, "ffn": 64, "layers": 1},
    "small": {"seq": 32, "hidden": 64, "ffn": 128, "layers": 2},
    "full": {"seq": 64, "hidden": 128, "ffn": 256, "layers": 4},
}


def _encoder_layer(b: GraphBuilder, x: int, layer: int, hidden: int, ffn: int) -> int:
    # Self-attention: Q, K, V projections share the same input.
    wq = b.weight(f"l{layer}_wq", (hidden, hidden))
    wk = b.weight(f"l{layer}_wk", (hidden, hidden))
    wv = b.weight(f"l{layer}_wv", (hidden, hidden))
    q = b.matmul(x, wq)
    k = b.matmul(x, wk)
    v = b.matmul(x, wv)

    scores = b.matmul(q, b.transpose(k, (1, 0)))
    attn = b.sigmoid(scores)  # softmax stand-in (see module docstring)
    context = b.matmul(attn, v)

    wo = b.weight(f"l{layer}_wo", (hidden, hidden))
    attn_out = b.ewadd(b.matmul(context, wo), x)  # residual connection

    # Feed-forward block.
    w1 = b.weight(f"l{layer}_ffn1", (hidden, ffn))
    w2 = b.weight(f"l{layer}_ffn2", (ffn, hidden))
    ffn_out = b.matmul(b.relu(b.matmul(attn_out, w1)), w2)
    return b.ewadd(ffn_out, attn_out)  # residual connection


def build_bert(scale: str = "small", **overrides) -> TensorGraph:
    """Build a BERT-style encoder inference graph.

    Overrides: ``seq``, ``hidden``, ``ffn``, ``layers``.
    """
    params = dict(_PRESETS[scale])
    params.update(overrides)
    seq, hidden, ffn, layers = params["seq"], params["hidden"], params["ffn"], params["layers"]

    b = GraphBuilder(f"bert-{scale}")
    x = b.input("tokens", (seq, hidden))
    for layer in range(layers):
        x = _encoder_layer(b, x, layer, hidden, ffn)
    return b.finish(outputs=[x])
