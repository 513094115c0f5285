"""Numpy implementations of every operator in the paper's Table 2.

Each kernel takes the operand *values* (numpy arrays / ints / strings) plus
the operands' :class:`~repro.ir.tensor.TensorData` metadata (needed by
``split``, whose cut position comes from the most recent concat recorded in
the metadata).  These kernels define the reference semantics against which
rewrite rules are verified numerically (:mod:`repro.rules.verify`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.ir.ops import Activation, OpKind, Padding, symbol_to_op
from repro.ir.shapes import same_padding_amount
from repro.ir.tensor import ShapeError, TensorData

__all__ = ["execute_symbol", "apply_activation", "conv2d", "pool2d"]


def apply_activation(x: np.ndarray, mode: int) -> np.ndarray:
    """Apply a fused activation given its integer mode."""
    if mode == Activation.NONE:
        return x
    if mode == Activation.RELU:
        return np.maximum(x, 0.0)
    if mode == Activation.SIGMOID:
        return 1.0 / (1.0 + np.exp(-x))
    if mode == Activation.TANH:
        return np.tanh(x)
    raise ShapeError(f"unknown activation mode {mode}")


def _pad_input(x: np.ndarray, kh: int, kw: int, sh: int, sw: int, padding: int, pad_value: float) -> np.ndarray:
    if padding == Padding.VALID:
        return x
    ph = same_padding_amount(x.shape[2], kh, sh)
    pw = same_padding_amount(x.shape[3], kw, sw)
    return np.pad(
        x,
        ((0, 0), (0, 0), ph, pw),
        mode="constant",
        constant_values=pad_value,
    )


def conv2d(
    x: np.ndarray,
    w: np.ndarray,
    stride: Tuple[int, int],
    padding: int,
    activation: int,
) -> np.ndarray:
    """Grouped 2-D convolution, NCHW input and OIHW weight."""
    n, c_in, h, win = x.shape
    c_out, c_in_per_group, kh, kw = w.shape
    if c_in % c_in_per_group != 0:
        raise ShapeError(f"conv channels {c_in} not divisible by {c_in_per_group}")
    groups = c_in // c_in_per_group
    if c_out % groups != 0:
        raise ShapeError(f"conv output channels {c_out} not divisible by groups {groups}")
    c_out_per_group = c_out // groups
    sh, sw = stride

    xp = _pad_input(x, kh, kw, sh, sw, padding, 0.0)
    out_h = (xp.shape[2] - kh) // sh + 1
    out_w = (xp.shape[3] - kw) // sw + 1
    out = np.zeros((n, c_out, out_h, out_w), dtype=np.result_type(x, w))

    for g in range(groups):
        xg = xp[:, g * c_in_per_group : (g + 1) * c_in_per_group]
        wg = w[g * c_out_per_group : (g + 1) * c_out_per_group]
        acc = np.zeros((n, c_out_per_group, out_h, out_w), dtype=out.dtype)
        for i in range(kh):
            for j in range(kw):
                # (n, cin, out_h, out_w) patch for kernel offset (i, j)
                patch = xg[:, :, i : i + out_h * sh : sh, j : j + out_w * sw : sw]
                # contract over input channels
                acc += np.einsum("nchw,oc->nohw", patch, wg[:, :, i, j], optimize=True)
        out[:, g * c_out_per_group : (g + 1) * c_out_per_group] = acc
    return apply_activation(out, activation)


def pool2d(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: int,
    activation: int,
    mode: str,
) -> np.ndarray:
    """Max or average pooling, NCHW."""
    kh, kw = kernel
    sh, sw = stride
    pad_value = -np.inf if mode == "max" else 0.0
    xp = _pad_input(x, kh, kw, sh, sw, padding, pad_value)
    out_h = (xp.shape[2] - kh) // sh + 1
    out_w = (xp.shape[3] - kw) // sw + 1
    windows = []
    for i in range(kh):
        for j in range(kw):
            windows.append(xp[:, :, i : i + out_h * sh : sh, j : j + out_w * sw : sw])
    stacked = np.stack(windows, axis=0)
    if mode == "max":
        out = stacked.max(axis=0)
    elif mode == "avg":
        # Average over the kernel window.  With SAME padding the padded zeros
        # participate in the average (count-include-pad), matching the simple
        # TASO semantics.
        out = stacked.mean(axis=0)
    else:
        raise ShapeError(f"unknown pooling mode {mode!r}")
    return apply_activation(out, activation)


def _enlarge(x: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Zero-pad kernel ``x`` spatially (centered) to the spatial size of ``ref``."""
    target_h, target_w = ref.shape[2], ref.shape[3]
    kh, kw = x.shape[2], x.shape[3]
    if kh > target_h or kw > target_w:
        raise ShapeError("enlarge target smaller than kernel")
    pad_top = (target_h - kh) // 2
    pad_bottom = target_h - kh - pad_top
    pad_left = (target_w - kw) // 2
    pad_right = target_w - kw - pad_left
    return np.pad(x, ((0, 0), (0, 0), (pad_top, pad_bottom), (pad_left, pad_right)))


def _merge_weight(w: np.ndarray, count: int) -> np.ndarray:
    """Merge every ``count`` groups of a grouped-conv weight (block-diagonal fill)."""
    c_out, c_in, kh, kw = w.shape
    if count <= 0 or c_out % count != 0:
        raise ShapeError(f"merge count {count} incompatible with {c_out} output channels")
    merged = np.zeros((c_out, c_in * count, kh, kw), dtype=w.dtype)
    c_out_per_block = c_out // count
    for b in range(count):
        rows = slice(b * c_out_per_block, (b + 1) * c_out_per_block)
        cols = slice(b * c_in, (b + 1) * c_in)
        merged[rows, cols] = w[rows]
    return merged


def _split_sizes(data: TensorData, axis: int, total: int) -> Tuple[int, int]:
    sizes = data.split_sizes_for_axis(axis)
    if sizes is None:
        if total % 2 != 0:
            raise ShapeError(f"split of odd dimension {total} with no recorded concat position")
        return total // 2, total // 2
    return sizes[0], total - sizes[0]


def execute_symbol(
    symbol: str,
    operands: Sequence[object],
    operand_data: Optional[Sequence[TensorData]] = None,
) -> object:
    """Execute one operator given operand values (and metadata for ``split``)."""
    op, literal = symbol_to_op(symbol)

    if op == OpKind.NUM:
        return int(literal)
    if op == OpKind.STR:
        return str(literal)
    if op in (OpKind.INPUT, OpKind.WEIGHT):
        raise ShapeError(f"{symbol} must be bound to a concrete array by the executor")

    if op == OpKind.EWADD:
        return operands[0] + operands[1]
    if op == OpKind.EWMUL:
        return operands[0] * operands[1]
    if op == OpKind.MATMUL:
        act, a, b = operands
        return apply_activation(np.matmul(a, b), int(act))
    if op == OpKind.CONV:
        sh, sw, padding, act, x, w = operands
        return conv2d(x, w, (int(sh), int(sw)), int(padding), int(act))
    if op == OpKind.RELU:
        return np.maximum(operands[0], 0.0)
    if op == OpKind.TANH:
        return np.tanh(operands[0])
    if op == OpKind.SIGMOID:
        return 1.0 / (1.0 + np.exp(-operands[0]))
    if op in (OpKind.POOLMAX, OpKind.POOLAVG):
        x, kh, kw, sh, sw, padding, act = operands
        mode = "max" if op == OpKind.POOLMAX else "avg"
        return pool2d(x, (int(kh), int(kw)), (int(sh), int(sw)), int(padding), int(act), mode)
    if op == OpKind.TRANSPOSE:
        x, perm_str = operands
        perm = tuple(int(tok) for tok in str(perm_str).split())
        return np.transpose(x, perm)
    if op == OpKind.ENLARGE:
        return _enlarge(operands[0], operands[1])
    if op == OpKind.CONCAT:
        axis = int(operands[0])
        return np.concatenate(operands[1:], axis=axis)
    if op == OpKind.SPLIT:
        axis = int(operands[0])
        x = operands[1]
        if operand_data is None or len(operand_data) < 2:
            raise ShapeError("split needs operand metadata to locate the cut position")
        first, _ = _split_sizes(operand_data[1], axis, x.shape[axis])
        return (
            np.take(x, range(0, first), axis=axis),
            np.take(x, range(first, x.shape[axis]), axis=axis),
        )
    if op == OpKind.SPLIT0:
        return operands[0][0]
    if op == OpKind.SPLIT1:
        return operands[0][1]
    if op == OpKind.MERGE:
        return _merge_weight(operands[0], int(operands[1]))
    if op == OpKind.RESHAPE:
        x, shape_str = operands
        new_shape = tuple(int(tok) for tok in str(shape_str).split())
        return np.reshape(x, new_shape)
    if op == OpKind.NOOP:
        return tuple(operands)
    raise ShapeError(f"unknown operator symbol {symbol!r}")
