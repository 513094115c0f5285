"""Per-symbol if/elif dispatch chains, the spec of the operator registry.

Shape inference, FLOP and byte accounting once dispatched on the operator
symbol through these chains; they now dispatch through
``repro.ir.opspec.OPS``.  The chains share the per-operator inference
bodies with the registry, so ``tests/test_opspec.py`` checks exactly the
part that changed -- the dispatch -- verdict by verdict.
"""

from __future__ import annotations

from typing import Sequence

from repro.ir.ops import Activation, OpKind, symbol_to_op
from repro.ir.opspec import (
    FLOAT_BYTES,
    _infer_activation,
    _infer_concat,
    _infer_conv,
    _infer_enlarge,
    _infer_ewise,
    _infer_identifier,
    _infer_matmul,
    _infer_merge,
    _infer_noop,
    _infer_pool,
    _infer_reshape,
    _infer_split,
    _infer_split_index,
    _infer_transpose,
)
from repro.ir.tensor import DataKind, ShapeError, TensorData


def infer_symbol_spec(symbol: str, children: Sequence[TensorData]) -> TensorData:
    """The original if/elif dispatch for ``repro.ir.opspec.infer_symbol``."""
    result = _infer_symbol_inner(symbol, children)
    op, _ = symbol_to_op(symbol)
    if result.kind == DataKind.TENSOR and not op.is_literal and not op.is_identifier:
        tensor_children = [c for c in children if c.kind in (DataKind.TENSOR, DataKind.TUPLE)]
        if tensor_children and all(c.from_weights for c in tensor_children):
            result = result.with_from_weights(True)
    if result.kind == DataKind.TUPLE:
        tensor_children = [c for c in children if c.kind in (DataKind.TENSOR, DataKind.TUPLE)]
        if tensor_children and all(c.from_weights for c in tensor_children):
            result = TensorData.tuple_of(tuple(p.with_from_weights(True) for p in result.parts))
    return result


def _infer_symbol_inner(symbol: str, children: Sequence[TensorData]) -> TensorData:
    op, literal = symbol_to_op(symbol)

    if op == OpKind.NUM:
        return TensorData.integer(literal)
    if op == OpKind.STR:
        return TensorData.string(literal)

    for child in children:
        if not child.is_valid:
            raise ShapeError(f"{symbol}: invalid operand")

    if op in (OpKind.INPUT, OpKind.WEIGHT):
        if len(children) != 1:
            raise ShapeError(f"{symbol} expects a single identifier child")
        result = _infer_identifier(children)
        if op == OpKind.WEIGHT:
            result = result.with_from_weights(True)
        return result
    if op in (OpKind.EWADD, OpKind.EWMUL):
        if len(children) != 2:
            raise ShapeError(f"{symbol} expects two operands")
        return _infer_ewise(children)
    if op == OpKind.MATMUL:
        return _infer_matmul(children)
    if op == OpKind.CONV:
        return _infer_conv(children)
    if op in (OpKind.RELU, OpKind.TANH, OpKind.SIGMOID):
        if len(children) != 1:
            raise ShapeError(f"{symbol} expects one operand")
        return _infer_activation(children)
    if op in (OpKind.POOLMAX, OpKind.POOLAVG):
        return _infer_pool(children)
    if op == OpKind.TRANSPOSE:
        if len(children) != 2:
            raise ShapeError("transpose expects (input, permutation)")
        return _infer_transpose(children)
    if op == OpKind.ENLARGE:
        if len(children) != 2:
            raise ShapeError("enlarge expects (input, ref_input)")
        return _infer_enlarge(children)
    if op == OpKind.CONCAT:
        return _infer_concat(children)
    if op == OpKind.SPLIT:
        if len(children) != 2:
            raise ShapeError("split expects (axis, input)")
        return _infer_split(children)
    if op == OpKind.SPLIT0:
        return _infer_split_index(children, 0)
    if op == OpKind.SPLIT1:
        return _infer_split_index(children, 1)
    if op == OpKind.MERGE:
        if len(children) != 2:
            raise ShapeError("merge expects (weight, count)")
        return _infer_merge(children)
    if op == OpKind.RESHAPE:
        if len(children) != 2:
            raise ShapeError("reshape expects (input, shape)")
        return _infer_reshape(children)
    if op == OpKind.NOOP:
        return _infer_noop(children)
    raise ShapeError(f"unknown operator symbol {symbol!r}")


def _tensor_children(children: Sequence[TensorData]) -> list:
    return [c for c in children if c.kind == DataKind.TENSOR]


def op_flops_spec(symbol: str, children: Sequence[TensorData], output: TensorData) -> float:
    """The original if/elif chain for ``repro.ir.opspec.op_flops``."""
    op, _ = symbol_to_op(symbol)

    if op == OpKind.MATMUL:
        a, b = children[1], children[2]
        k = a.shape[-1]
        flops = 2.0 * output.num_elements * k
        if children[0].kind == DataKind.INT and children[0].value != Activation.NONE:
            flops += output.num_elements
        return flops

    if op == OpKind.CONV:
        w = children[5]
        _, c_in_per_group, kh, kw = w.shape
        flops = 2.0 * output.num_elements * c_in_per_group * kh * kw
        if children[3].kind == DataKind.INT and children[3].value != Activation.NONE:
            flops += output.num_elements
        return flops

    if op in (OpKind.EWADD, OpKind.EWMUL):
        return float(output.num_elements)

    if op in (OpKind.RELU, OpKind.TANH, OpKind.SIGMOID):
        # Transcendentals cost a few flops per element; a small constant factor
        # keeps tanh/sigmoid slightly more expensive than relu.
        factor = 1.0 if op == OpKind.RELU else 4.0
        return factor * output.num_elements

    if op in (OpKind.POOLMAX, OpKind.POOLAVG):
        kh = children[1].value if children[1].kind == DataKind.INT else 1
        kw = children[2].value if children[2].kind == DataKind.INT else 1
        return float(output.num_elements) * float(kh) * float(kw)

    # Data-movement operators perform no arithmetic.
    return 0.0


def op_bytes_spec(symbol: str, children: Sequence[TensorData], output: TensorData) -> float:
    """The original if/elif chain for ``repro.ir.opspec.op_bytes``."""
    op, _ = symbol_to_op(symbol)

    if op in (OpKind.NUM, OpKind.STR, OpKind.INPUT, OpKind.WEIGHT, OpKind.NOOP):
        return 0.0

    read = sum(c.num_elements for c in _tensor_children(children))
    if output.kind == DataKind.TUPLE:
        written = sum(p.num_elements for p in output.parts)
    else:
        written = output.num_elements
    return FLOAT_BYTES * float(read + written)
