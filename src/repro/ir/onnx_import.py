"""ONNX import front door: real exported models become tensor graphs.

Maps the ONNX operator subset that lands on the paper's Table 2 onto the
IR, with shape inference re-run through the :data:`repro.ir.opspec.OPS`
registry (every imported node passes the exact same
:func:`~repro.ir.opspec.infer_symbol` checks hand-built models do):

=================  ====================================================
ONNX op            Table-2 mapping / constraints
=================  ====================================================
Conv               ``conv`` -- 2-D, dilations 1, zero bias; ``auto_pad``
                   SAME_UPPER/SAME_LOWER or pads matching SAME, else
                   all-zero pads = VALID
MatMul             ``matmul`` (activation NONE)
Gemm               ``matmul`` (+ ``transpose`` for transB, ``ewadd`` for
                   a full-shape C); alpha = 1, transA = 0
Add / Mul          ``ewadd`` / ``ewmul`` -- identical shapes only (the IR
                   has no implicit broadcast)
Relu/Sigmoid/Tanh  the activation ops
MaxPool            ``poolmax`` -- 2-D, ceil_mode 0, dilations 1
AveragePool        ``poolavg`` -- same constraints
Concat             ``concat{N}`` -- N bounded by the registry's symbol
                   family (``OPS.concat_max_inputs``); wider concats are
                   rejected with a typed error, not a crash
Split              ``split``/``split0``/``split1`` chains -- sizes must
                   match what repeated binary splitting produces
Transpose          ``transpose``
Reshape            ``reshape`` -- target shape from an initializer or
                   Constant, ``0``/``-1`` entries resolved
initializers       ``weight`` leaves (name preserved, sanitised)
graph inputs       ``input`` leaves; symbolic dims resolve through
                   ``dim_overrides``
Constant/Identity  front-end bookkeeping (constants are folded, Identity
                   is an alias); they produce no IR node
=================  ====================================================

Anything else raises :class:`OnnxImportError` -- a typed, catchable
diagnostic that names the offending ONNX node, in the spirit of Python's
``ImportError``: the caller learns exactly which node and why, instead of a
``KeyError`` from deep inside the builder.

Decoding uses the self-contained wire codec in :mod:`repro.ir.onnx_proto`,
so the importer works without the ``onnx`` package installed; ``onnx``
remains an *optional extra* (the CI leg that has it installed cross-checks
the test models with ``onnx.checker``).  An ``onnx.ModelProto`` object is
accepted directly when the package is present (anything with
``SerializeToString``).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.ir.graph import GraphBuilder, TensorGraph
from repro.ir.ops import Padding
from repro.ir.opspec import OPS, same_padding_amount
from repro.ir.onnx_proto import (
    GraphLite,
    NodeLite,
    OnnxDecodeError,
    TensorLite,
    parse_model,
    tensor_floats,
    tensor_ints,
)
from repro.ir.tensor import ShapeError

__all__ = ["OnnxImportError", "import_onnx", "onnx_coverage", "FRONTEND_OPS"]

#: ONNX ops consumed by the front end itself (no Table-2 counterpart): they
#: never produce an IR node.  ``tools/check_api.py`` checks that the handler
#: table equals the union of every spec's ``onnx_ops`` plus this set.
FRONTEND_OPS = ("Constant", "Identity")


class OnnxImportError(ValueError):
    """An ONNX model (or one of its nodes) cannot be mapped onto Table 2.

    ``node_name`` / ``op_type`` identify the offending node when the error
    is node-scoped (both are None for model-level problems such as a
    truncated file or an unresolvable symbolic dimension).
    """

    def __init__(self, message: str, node: Optional[NodeLite] = None) -> None:
        if node is not None:
            message = f"node {node.display_name!r} ({node.op_type}): {message}"
        super().__init__(message)
        self.node_name = node.display_name if node is not None else None
        self.op_type = node.op_type if node is not None else None


def onnx_coverage() -> Dict[str, str]:
    """Supported ONNX ``op_type`` -> Table-2 operator name, from the registry."""
    coverage: Dict[str, str] = {}
    for spec in OPS:
        for op_type in spec.onnx_ops:
            coverage[op_type] = spec.name
    return coverage


# ---------------------------------------------------------------------- #
# Attribute helpers
# ---------------------------------------------------------------------- #


def _attr_i(node: NodeLite, name: str, default: int) -> int:
    attr = node.attrs.get(name)
    return attr.i if attr is not None else default


def _attr_ints(node: NodeLite, name: str, default: Sequence[int] = ()) -> Tuple[int, ...]:
    attr = node.attrs.get(name)
    return tuple(attr.ints) if attr is not None and attr.ints else tuple(default)


def _attr_f(node: NodeLite, name: str, default: float) -> float:
    attr = node.attrs.get(name)
    return attr.f if attr is not None else default


def _attr_s(node: NodeLite, name: str, default: str) -> str:
    attr = node.attrs.get(name)
    return attr.s.decode("utf-8", errors="replace") if attr is not None and attr.s else default


def _sanitize(name: str) -> str:
    """Make an ONNX tensor name safe for the ``name@dims`` identifier format."""
    cleaned = "".join("_" if ch in "@ \t\n" else ch for ch in name)
    return cleaned or "tensor"


# ---------------------------------------------------------------------- #
# The import context
# ---------------------------------------------------------------------- #


class _Importer:
    def __init__(self, graph: GraphLite, name: str, dim_overrides: Dict[str, int]) -> None:
        self.onnx_graph = graph
        self.builder = GraphBuilder(name)
        self.dim_overrides = dict(dim_overrides)
        #: tensor name -> IR node id (alive values)
        self.env: Dict[str, int] = {}
        #: tensor name -> initializer / folded Constant (materialised lazily)
        self.consts: Dict[str, TensorLite] = {}

    # -- value plumbing ------------------------------------------------ #

    def tensor(self, name: str, node: NodeLite) -> int:
        """IR node id for ONNX value ``name``, materialising weights on demand."""
        if name in self.env:
            return self.env[name]
        init = self.consts.get(name)
        if init is not None:
            if not init.dims:
                raise OnnxImportError(
                    f"input {name!r} is a scalar initializer; rank-0 tensors have no "
                    f"Table-2 representation", node)
            node_id = self.builder.weight(_sanitize(name), tuple(init.dims))
            self.env[name] = node_id
            return node_id
        raise OnnxImportError(f"input {name!r} is not produced by any preceding node", node)

    def const_ints(self, name: str, node: NodeLite, what: str) -> Tuple[int, ...]:
        init = self.consts.get(name)
        if init is None:
            raise OnnxImportError(
                f"{what} must be a constant (initializer or Constant node), but "
                f"{name!r} is computed at runtime", node)
        return tensor_ints(init)

    def is_zero_const(self, name: str) -> bool:
        """Whether ``name`` is a constant tensor that is entirely zero."""
        init = self.consts.get(name)
        if init is None:
            return False
        values = tensor_floats(init) if init.data_type != 7 else tensor_ints(init)
        return all(v == 0 for v in values)

    def shape_of(self, node_id: int) -> Tuple[int, ...]:
        return tuple(self.builder.data(node_id).shape)

    # -- padding ------------------------------------------------------- #

    def resolve_padding(
        self, node: NodeLite, in_hw: Tuple[int, int], kernel: Tuple[int, int],
        strides: Tuple[int, int],
    ) -> Padding:
        """Map ONNX auto_pad/pads onto the Table-2 SAME/VALID encoding."""
        auto_pad = _attr_s(node, "auto_pad", "NOTSET")
        if auto_pad in ("SAME_UPPER", "SAME_LOWER"):
            return Padding.SAME
        if auto_pad not in ("NOTSET", "VALID"):
            raise OnnxImportError(f"auto_pad mode {auto_pad!r} unsupported", node)
        pads = _attr_ints(node, "pads", (0, 0, 0, 0))
        if auto_pad == "VALID" or all(p == 0 for p in pads):
            return Padding.VALID
        if len(pads) != 4:
            raise OnnxImportError(f"expected 4 spatial pads, got {list(pads)}", node)
        same = []
        for axis in range(2):
            before, after = same_padding_amount(in_hw[axis], kernel[axis], strides[axis])
            same.append((before, after))
        # pads order: [h_begin, w_begin, h_end, w_end]
        explicit = ((pads[0], pads[2]), (pads[1], pads[3]))
        mirrored = ((pads[2], pads[0]), (pads[3], pads[1]))  # SAME_LOWER
        if explicit == tuple(same) or mirrored == tuple(same):
            return Padding.SAME
        raise OnnxImportError(
            f"explicit pads {list(pads)} match neither VALID (all zero) nor SAME "
            f"({same} for input {in_hw}, kernel {kernel}, strides {strides}); "
            f"asymmetric padding has no Table-2 representation", node)

    # -- per-op handlers ----------------------------------------------- #

    def handle_conv(self, node: NodeLite) -> None:
        if len(node.inputs) not in (2, 3):
            raise OnnxImportError(f"expected 2 or 3 inputs, got {len(node.inputs)}", node)
        dilations = _attr_ints(node, "dilations", (1, 1))
        if any(d != 1 for d in dilations):
            raise OnnxImportError(f"dilations {list(dilations)} unsupported (must be 1)", node)
        if len(node.inputs) == 3 and node.inputs[2]:
            if not self.is_zero_const(node.inputs[2]):
                raise OnnxImportError(
                    f"non-zero bias {node.inputs[2]!r} unsupported (Table-2 conv has no "
                    f"bias; ewadd cannot broadcast a per-channel vector)", node)
        x = self.tensor(node.inputs[0], node)
        w = self.tensor(node.inputs[1], node)
        x_shape, w_shape = self.shape_of(x), self.shape_of(w)
        if len(x_shape) != 4 or len(w_shape) != 4:
            raise OnnxImportError(
                f"only 2-D convolution supported, got input {x_shape} weight {w_shape}", node)
        strides = _attr_ints(node, "strides", (1, 1))
        if len(strides) != 2:
            raise OnnxImportError(f"expected 2 strides, got {list(strides)}", node)
        kernel = _attr_ints(node, "kernel_shape", w_shape[2:])
        padding = self.resolve_padding(node, x_shape[2:], tuple(kernel), tuple(strides))
        out = self.builder.conv(x, w, stride=tuple(strides), padding=padding)
        self.env[node.outputs[0]] = out

    def handle_matmul(self, node: NodeLite) -> None:
        a = self.tensor(node.inputs[0], node)
        b = self.tensor(node.inputs[1], node)
        self.env[node.outputs[0]] = self.builder.matmul(a, b)

    def handle_gemm(self, node: NodeLite) -> None:
        if _attr_f(node, "alpha", 1.0) != 1.0:
            raise OnnxImportError("alpha != 1 unsupported", node)
        if _attr_i(node, "transA", 0) != 0:
            raise OnnxImportError("transA != 0 unsupported", node)
        a = self.tensor(node.inputs[0], node)
        b = self.tensor(node.inputs[1], node)
        if _attr_i(node, "transB", 0) != 0:
            b = self.builder.transpose(b, (1, 0))
        out = self.builder.matmul(a, b)
        if len(node.inputs) == 3 and node.inputs[2]:
            c_name = node.inputs[2]
            beta = _attr_f(node, "beta", 1.0)
            if self.is_zero_const(c_name) or beta == 0.0:
                pass  # zero bias: the matmul already is the result
            else:
                if beta != 1.0:
                    raise OnnxImportError("beta not in (0, 1) unsupported", node)
                c = self.tensor(c_name, node)
                if self.shape_of(c) != self.shape_of(out):
                    raise OnnxImportError(
                        f"C shape {self.shape_of(c)} != output shape {self.shape_of(out)}; "
                        f"broadcast bias has no Table-2 representation (ewadd needs "
                        f"identical shapes)", node)
                out = self.builder.ewadd(out, c)
        self.env[node.outputs[0]] = out

    def _handle_ewise(self, node: NodeLite, build: Callable[[int, int], int]) -> None:
        a = self.tensor(node.inputs[0], node)
        b = self.tensor(node.inputs[1], node)
        if self.shape_of(a) != self.shape_of(b):
            raise OnnxImportError(
                f"operand shapes {self.shape_of(a)} and {self.shape_of(b)} differ; "
                f"broadcasting has no Table-2 representation", node)
        self.env[node.outputs[0]] = build(a, b)

    def handle_add(self, node: NodeLite) -> None:
        self._handle_ewise(node, self.builder.ewadd)

    def handle_mul(self, node: NodeLite) -> None:
        self._handle_ewise(node, self.builder.ewmul)

    def _handle_activation(self, node: NodeLite, build: Callable[[int], int]) -> None:
        self.env[node.outputs[0]] = build(self.tensor(node.inputs[0], node))

    def handle_relu(self, node: NodeLite) -> None:
        self._handle_activation(node, self.builder.relu)

    def handle_sigmoid(self, node: NodeLite) -> None:
        self._handle_activation(node, self.builder.sigmoid)

    def handle_tanh(self, node: NodeLite) -> None:
        self._handle_activation(node, self.builder.tanh)

    def _handle_pool(self, node: NodeLite, build) -> None:
        if _attr_i(node, "ceil_mode", 0) != 0:
            raise OnnxImportError("ceil_mode != 0 unsupported", node)
        dilations = _attr_ints(node, "dilations", (1, 1))
        if any(d != 1 for d in dilations):
            raise OnnxImportError(f"dilations {list(dilations)} unsupported (must be 1)", node)
        kernel = _attr_ints(node, "kernel_shape")
        if len(kernel) != 2:
            raise OnnxImportError(
                f"only 2-D pooling supported, got kernel_shape {list(kernel)}", node)
        strides = _attr_ints(node, "strides", (1, 1))
        x = self.tensor(node.inputs[0], node)
        padding = self.resolve_padding(node, self.shape_of(x)[2:], tuple(kernel), tuple(strides))
        self.env[node.outputs[0]] = build(
            x, kernel=tuple(kernel), stride=tuple(strides), padding=padding)

    def handle_maxpool(self, node: NodeLite) -> None:
        if len(node.outputs) > 1 and node.outputs[1]:
            raise OnnxImportError("MaxPool Indices output unsupported", node)
        self._handle_pool(node, self.builder.poolmax)

    def handle_averagepool(self, node: NodeLite) -> None:
        self._handle_pool(node, self.builder.poolavg)

    def handle_concat(self, node: NodeLite) -> None:
        axis_attr = node.attrs.get("axis")
        if axis_attr is None:
            raise OnnxImportError("missing required attribute 'axis'", node)
        tensors = [self.tensor(name, node) for name in node.inputs]
        if len(tensors) == 1:  # single-input concat is an alias
            self.env[node.outputs[0]] = tensors[0]
            return
        max_inputs = OPS.concat_max_inputs
        if len(tensors) > max_inputs:
            raise OnnxImportError(
                f"concat of {len(tensors)} tensors exceeds the registered symbol family "
                f"(max {max_inputs}); widen it with repro.ir.opspec.register_concat"
                f"({len(tensors)})", node)
        axis = axis_attr.i
        if axis < 0:  # normalise negative axes against the first operand
            axis += len(self.shape_of(tensors[0]))
        self.env[node.outputs[0]] = self.builder.concat(axis, *tensors)

    def handle_split(self, node: NodeLite) -> None:
        x = self.tensor(node.inputs[0], node)
        shape = self.shape_of(x)
        axis = _attr_i(node, "axis", 0)
        if axis < 0:
            axis += len(shape)
        count = len(node.outputs)
        if count < 2:
            raise OnnxImportError("Split with a single output is an alias; unsupported", node)
        if len(node.inputs) > 1 and node.inputs[1]:  # opset >= 13: sizes input
            sizes = self.const_ints(node.inputs[1], node, "Split 'split' sizes")
        else:
            sizes = _attr_ints(node, "split", ())
        if not sizes:
            total = shape[axis]
            if total % count:
                raise OnnxImportError(
                    f"dimension {total} does not divide evenly into {count} outputs", node)
            sizes = tuple(total // count for _ in range(count))
        if len(sizes) != count:
            raise OnnxImportError(
                f"{len(sizes)} split sizes for {count} outputs", node)
        pieces = self.builder.split_many(axis, x, count)
        got = tuple(self.shape_of(p)[axis] for p in pieces)
        if got != tuple(sizes):
            raise OnnxImportError(
                f"requested split sizes {list(sizes)} along axis {axis}, but Table-2 "
                f"split is binary (first piece vs rest at the recorded concat "
                f"position); repeated splitting of {shape} yields {list(got)}", node)
        for out_name, piece in zip(node.outputs, pieces):
            self.env[out_name] = piece

    def handle_transpose(self, node: NodeLite) -> None:
        x = self.tensor(node.inputs[0], node)
        rank = len(self.shape_of(x))
        perm = _attr_ints(node, "perm", tuple(reversed(range(rank))))
        self.env[node.outputs[0]] = self.builder.transpose(x, perm)

    def handle_reshape(self, node: NodeLite) -> None:
        if _attr_i(node, "allowzero", 0) != 0:
            raise OnnxImportError("allowzero != 0 unsupported", node)
        x = self.tensor(node.inputs[0], node)
        shape = self.shape_of(x)
        target = list(self.const_ints(node.inputs[1], node, "Reshape target shape"))
        for i, dim in enumerate(target):  # 0 copies the input dimension
            if dim == 0:
                if i >= len(shape):
                    raise OnnxImportError(
                        f"target dim {i} is 0 but the input has rank {len(shape)}", node)
                target[i] = shape[i]
        if target.count(-1) > 1:
            raise OnnxImportError(f"more than one -1 in target shape {target}", node)
        if -1 in target:
            known = 1
            for dim in target:
                if dim != -1:
                    known *= dim
            total = 1
            for dim in shape:
                total *= dim
            if known == 0 or total % known:
                raise OnnxImportError(
                    f"cannot infer the -1 dimension of {target} from input {shape}", node)
            target[target.index(-1)] = total // known
        self.env[node.outputs[0]] = self.builder.reshape(x, tuple(target))

    def handle_constant(self, node: NodeLite) -> None:
        attr = node.attrs.get("value")
        if attr is None or attr.t is None:
            raise OnnxImportError(
                "only the 'value' (tensor) attribute of Constant is supported", node)
        self.consts[node.outputs[0]] = attr.t

    def handle_identity(self, node: NodeLite) -> None:
        name = node.inputs[0]
        if name in self.consts:
            self.consts[node.outputs[0]] = self.consts[name]
        else:
            self.env[node.outputs[0]] = self.tensor(name, node)

    # -- the walk ------------------------------------------------------ #

    HANDLERS: Dict[str, str] = {
        "Conv": "handle_conv",
        "MatMul": "handle_matmul",
        "Gemm": "handle_gemm",
        "Add": "handle_add",
        "Mul": "handle_mul",
        "Relu": "handle_relu",
        "Sigmoid": "handle_sigmoid",
        "Tanh": "handle_tanh",
        "MaxPool": "handle_maxpool",
        "AveragePool": "handle_averagepool",
        "Concat": "handle_concat",
        "Split": "handle_split",
        "Transpose": "handle_transpose",
        "Reshape": "handle_reshape",
        "Constant": "handle_constant",
        "Identity": "handle_identity",
    }

    def run(self) -> TensorGraph:
        graph = self.onnx_graph
        for init in graph.initializers:
            self.consts[init.name] = init
        for value_info in graph.inputs:
            if value_info.name in self.consts:
                continue  # initializers may be listed under graph.input too
            dims = self.resolve_dims(value_info)
            self.env[value_info.name] = self.builder.input(_sanitize(value_info.name), dims)
        for node in graph.nodes:
            method = self.HANDLERS.get(node.op_type)
            if method is None:
                supported = ", ".join(sorted(self.HANDLERS))
                raise OnnxImportError(
                    f"unsupported ONNX operator (supported: {supported})", node)
            try:
                getattr(self, method)(node)
            except ShapeError as exc:
                raise OnnxImportError(f"shape inference rejected the node: {exc}", node) from exc
        outputs: List[int] = []
        for value_info in graph.outputs:
            node_id = self.env.get(value_info.name)
            if node_id is None:
                raise OnnxImportError(
                    f"graph output {value_info.name!r} is not produced by any node")
            outputs.append(node_id)
        if not outputs:
            raise OnnxImportError("model has no graph outputs")
        return self.builder.finish(outputs=outputs)

    def resolve_dims(self, value_info) -> Tuple[int, ...]:
        dims: List[int] = []
        for position, dim in enumerate(value_info.dims):
            if isinstance(dim, int) and dim > 0:
                dims.append(dim)
            elif isinstance(dim, str) and dim in self.dim_overrides:
                dims.append(int(self.dim_overrides[dim]))
            elif isinstance(dim, str):
                raise OnnxImportError(
                    f"graph input {value_info.name!r} has symbolic dimension {dim!r} at "
                    f"position {position}; pass dim_overrides={{{dim!r}: <int>}} (CLI: "
                    f"--fix-dim {dim}=<int>)")
            else:
                raise OnnxImportError(
                    f"graph input {value_info.name!r} has unknown dimension at position "
                    f"{position}; the importer needs concrete shapes")
        if not dims:
            raise OnnxImportError(
                f"graph input {value_info.name!r} has no shape information")
        return tuple(dims)


def import_onnx(
    source: Union[str, "os.PathLike", bytes, object],
    name: Optional[str] = None,
    dim_overrides: Optional[Dict[str, int]] = None,
) -> TensorGraph:
    """Import an ONNX model as a :class:`~repro.ir.graph.TensorGraph`.

    ``source`` may be a file path, raw ``ModelProto`` bytes, or a loaded
    ``onnx.ModelProto`` (anything with ``SerializeToString``).  Symbolic
    input dimensions (e.g. a ``"batch"`` dim_param) are resolved through
    ``dim_overrides``.  Raises :class:`OnnxImportError` with a message
    naming the offending node when the model steps outside the supported
    subset -- see the module docstring for the coverage table.
    """
    default_name = "onnx"
    if isinstance(source, (bytes, bytearray, memoryview)):
        data = bytes(source)
    elif hasattr(source, "SerializeToString"):  # a real onnx.ModelProto
        data = source.SerializeToString()
    else:
        path = os.fspath(source)
        default_name = os.path.splitext(os.path.basename(path))[0]
        with open(path, "rb") as handle:
            data = handle.read()
    try:
        model = parse_model(data)
    except OnnxDecodeError as exc:
        raise OnnxImportError(f"cannot decode ONNX model: {exc}") from exc
    graph_name = name or model.graph.name or default_name
    importer = _Importer(model.graph, graph_name, dim_overrides or {})
    return importer.run()
