"""The operator-spec registry: one table owning every operator's semantics.

Before this module existed, the paper's Table 2 was smeared across three
independent per-symbol dispatch chains -- shape inference in
``ir/shapes.py``, FLOP/byte accounting in ``costs/flops.py``, and the
e-graph symbol mapping in ``ir/ops.py`` -- so adding an operator meant
editing N files in lockstep.  An :class:`OpSpec` collapses all of that
knowledge into one record and the :data:`OPS` registry is the single source
of truth consulted by:

* :func:`infer_symbol` -- shape inference / shape checking (the hot path of
  e-graph construction, the tensor e-class analysis, and rewrite
  preconditions),
* :func:`op_flops` / :func:`op_bytes` -- the cost model's per-operator
  arithmetic and memory-traffic accounting,
* :func:`repro.ir.ops.op_symbol` / :func:`repro.ir.ops.symbol_to_op` -- the
  IR <-> e-graph symbol mapping, including the ``concat{N}``
  arity-specialisation family,
* :mod:`repro.ir.serialize` -- document validation (valid operator names
  derive from the registry),
* :func:`repro.service.fingerprint.config_digest` -- the service cache key
  covers the registered operator set, so third-party operator registration
  can never alias cached results computed under a different op table,
* :mod:`repro.ir.onnx_import` -- the ONNX front door maps ``op_type`` names
  onto specs via each spec's ``onnx_ops`` field, and
* ``tools/check_api.py`` -- the lockstep check that every registered
  operator carries shape *and* cost functions.

The old per-symbol if/elif chains are kept as a test oracle
(``tests/oracles/opspec_chains.py``), pinned verdict-by-verdict against the
registry dispatch by ``tests/test_opspec.py``.

Registering a new operator (see ``docs/operators.md`` for the worked
example)::

    from repro.ir.opspec import OPS, OpSpec, tensor_traffic, zero_flops

    OPS.register(OpSpec(
        kind=OpKind.GELU, name="gelu", signature="(input)", arity=(1, 1),
        symbols=("gelu",), infer=my_infer, flops=my_flops,
        op_bytes=tensor_traffic, onnx_ops=("Gelu",),
    ))

After the one ``register`` call, shape inference, both cost functions,
serialization validation, and the config digest all know the operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

from repro.ir.ops import Activation, OpKind, Padding
from repro.ir.tensor import DataKind, ShapeError, TensorData, parse_identifier

__all__ = [
    "OpSpec",
    "OpRegistry",
    "OPS",
    "UnknownOperatorError",
    "infer_symbol",
    "op_flops",
    "op_bytes",
    "zero_flops",
    "zero_bytes",
    "tensor_traffic",
    "register_concat",
    "FLOAT_BYTES",
    "conv_output_hw",
    "pool_output_hw",
    "matmul_output_shape",
    "same_padding_amount",
]

FLOAT_BYTES = 4  # FP32


class UnknownOperatorError(ValueError):
    """A symbol names no registered operator and is not a literal.

    Raised by the *strict* symbol-resolution path (used when parsing
    extracted terms and serialized documents) so a typo'd rule target fails
    loudly instead of silently becoming a string-literal node.
    """


# ---------------------------------------------------------------------- #
# Geometry helpers (shared by shape inference and the ONNX importer)
# ---------------------------------------------------------------------- #


def conv_output_hw(
    h: int, w: int, kh: int, kw: int, stride_h: int, stride_w: int, padding: int
) -> Tuple[int, int]:
    """Output spatial dims of a convolution under TASO's SAME/VALID semantics."""
    if stride_h <= 0 or stride_w <= 0:
        raise ShapeError(f"convolution stride must be positive, got ({stride_h}, {stride_w})")
    if padding == Padding.SAME:
        out_h = math.ceil(h / stride_h)
        out_w = math.ceil(w / stride_w)
    elif padding == Padding.VALID:
        out_h = math.ceil((h - kh + 1) / stride_h)
        out_w = math.ceil((w - kw + 1) / stride_w)
    else:
        raise ShapeError(f"unknown padding mode {padding}")
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(
            f"convolution output is empty: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride ({stride_h},{stride_w}), padding {Padding(padding).name}"
        )
    return out_h, out_w


def same_padding_amount(size: int, kernel: int, stride: int) -> Tuple[int, int]:
    """Total (before, after) zero padding applied by SAME padding along one axis."""
    out = math.ceil(size / stride)
    total = max((out - 1) * stride + kernel - size, 0)
    before = total // 2
    after = total - before
    return before, after


def pool_output_hw(
    h: int, w: int, kh: int, kw: int, stride_h: int, stride_w: int, padding: int
) -> Tuple[int, int]:
    """Pooling uses the same SAME/VALID geometry as convolution."""
    return conv_output_hw(h, w, kh, kw, stride_h, stride_w, padding)


def matmul_output_shape(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    """Shape of ``a @ b`` supporting 2-D and batched 3-D operands."""
    if len(a) < 2 or len(b) < 2:
        raise ShapeError(f"matmul operands must have rank >= 2, got {a} and {b}")
    if a[-1] != b[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a} @ {b}")
    if len(a) == 2 and len(b) == 2:
        return (a[0], b[1])
    if len(a) == 3 and len(b) == 2:
        return (a[0], a[1], b[1])
    if len(a) == 2 and len(b) == 3:
        return (b[0], a[0], b[2])
    if len(a) == 3 and len(b) == 3:
        if a[0] != b[0]:
            raise ShapeError(f"matmul batch dimensions disagree: {a} @ {b}")
        return (a[0], a[1], b[2])
    raise ShapeError(f"matmul operands of rank {len(a)} and {len(b)} unsupported")


def _check_activation(code: int) -> int:
    if code not in (Activation.NONE, Activation.RELU, Activation.SIGMOID, Activation.TANH):
        raise ShapeError(f"unknown activation mode {code}")
    return code


# ---------------------------------------------------------------------- #
# Per-operator shape inference (Table 2 semantics)
# ---------------------------------------------------------------------- #


def _infer_ewise(children: Sequence[TensorData]) -> TensorData:
    a = children[0].expect_tensor("element-wise lhs")
    b = children[1].expect_tensor("element-wise rhs")
    if a.shape != b.shape:
        raise ShapeError(f"element-wise operands must have identical shapes, got {a.shape} and {b.shape}")
    # Split locations survive element-wise ops (both operands share them or they
    # are dropped -- keep the lhs's, matching TASO's propagation).
    return TensorData.tensor(a.shape, a.split_sizes)


def _infer_matmul(children: Sequence[TensorData]) -> TensorData:
    if len(children) != 3:
        raise ShapeError("matmul expects (activation, input1, input2)")
    _check_activation(children[0].expect_int("matmul activation"))
    a = children[1].expect_tensor("matmul lhs")
    b = children[2].expect_tensor("matmul rhs")
    out_shape = matmul_output_shape(a.shape, b.shape)
    out = TensorData.tensor(out_shape)
    # Propagate concat provenance: columns of the output mirror columns of b,
    # rows mirror rows of a (needed so a following ``split`` knows where to cut).
    col_axis_out = len(out_shape) - 1
    row_axis_out = len(out_shape) - 2
    b_cols = b.split_sizes_for_axis(len(b.shape) - 1)
    if b_cols is not None:
        out = out.with_split(col_axis_out, b_cols)
    a_rows = a.split_sizes_for_axis(len(a.shape) - 2)
    if a_rows is not None:
        out = out.with_split(row_axis_out, a_rows)
    return out


def _infer_conv(children: Sequence[TensorData]) -> TensorData:
    if len(children) != 6:
        raise ShapeError("conv expects (stride_h, stride_w, padding, activation, input, weight)")
    stride_h = children[0].expect_int("conv stride_h")
    stride_w = children[1].expect_int("conv stride_w")
    padding = children[2].expect_int("conv padding")
    _check_activation(children[3].expect_int("conv activation"))
    x = children[4].expect_tensor("conv input")
    w = children[5].expect_tensor("conv weight")
    if x.rank != 4 or w.rank != 4:
        raise ShapeError(f"conv expects NCHW input and OIHW weight, got {x.shape} and {w.shape}")
    n, c_in, h, win = x.shape
    c_out, c_in_per_group, kh, kw = w.shape
    if c_in_per_group <= 0 or c_in % c_in_per_group != 0:
        raise ShapeError(
            f"conv input channels {c_in} not divisible by weight input channels {c_in_per_group}"
        )
    groups = c_in // c_in_per_group
    if c_out % groups != 0:
        raise ShapeError(f"conv output channels {c_out} not divisible by groups {groups}")
    if kh > h or kw > win:
        if padding == Padding.VALID:
            raise ShapeError(f"conv kernel {kh}x{kw} larger than input {h}x{win} with VALID padding")
    out_h, out_w = conv_output_hw(h, win, kh, kw, stride_h, stride_w, padding)
    out = TensorData.tensor((n, c_out, out_h, out_w))
    # The output-channel axis mirrors the weight's output-channel axis.
    w_out_split = w.split_sizes_for_axis(0)
    if w_out_split is not None:
        out = out.with_split(1, w_out_split)
    return out


def _infer_activation(children: Sequence[TensorData]) -> TensorData:
    x = children[0].expect_tensor("activation input")
    return TensorData.tensor(x.shape, x.split_sizes)


def _infer_pool(children: Sequence[TensorData]) -> TensorData:
    if len(children) != 7:
        raise ShapeError("pooling expects (input, kernel_h, kernel_w, stride_h, stride_w, padding, activation)")
    x = children[0].expect_tensor("pool input")
    kh = children[1].expect_int("pool kernel_h")
    kw = children[2].expect_int("pool kernel_w")
    sh = children[3].expect_int("pool stride_h")
    sw = children[4].expect_int("pool stride_w")
    padding = children[5].expect_int("pool padding")
    _check_activation(children[6].expect_int("pool activation"))
    if x.rank != 4:
        raise ShapeError(f"pooling expects an NCHW input, got {x.shape}")
    n, c, h, w = x.shape
    out_h, out_w = pool_output_hw(h, w, kh, kw, sh, sw, padding)
    out = TensorData.tensor((n, c, out_h, out_w))
    ch_split = x.split_sizes_for_axis(1)
    if ch_split is not None:
        out = out.with_split(1, ch_split)
    return out


def _infer_transpose(children: Sequence[TensorData]) -> TensorData:
    x = children[0].expect_tensor("transpose input")
    perm_str = children[1].expect_string("transpose permutation")
    try:
        perm = tuple(int(tok) for tok in perm_str.split())
    except ValueError as exc:
        raise ShapeError(f"malformed permutation string {perm_str!r}") from exc
    if sorted(perm) != list(range(x.rank)):
        raise ShapeError(f"permutation {perm} is not a permutation of axes of rank-{x.rank} tensor")
    new_shape = tuple(x.shape[p] for p in perm)
    out = TensorData.tensor(new_shape)
    for axis, sizes in x.split_sizes:
        out = out.with_split(perm.index(axis), sizes)
    return out


def _infer_enlarge(children: Sequence[TensorData]) -> TensorData:
    x = children[0].expect_tensor("enlarge kernel")
    ref = children[1].expect_tensor("enlarge reference kernel")
    if x.rank != 4 or ref.rank != 4:
        raise ShapeError("enlarge expects 4-D convolution kernels")
    if x.shape[2] > ref.shape[2] or x.shape[3] > ref.shape[3]:
        raise ShapeError(
            f"enlarge target spatial size {ref.shape[2:]} smaller than kernel {x.shape[2:]}"
        )
    return TensorData.tensor((x.shape[0], x.shape[1], ref.shape[2], ref.shape[3]))


def _infer_concat(children: Sequence[TensorData]) -> TensorData:
    axis = children[0].expect_int("concat axis")
    tensors = [c.expect_tensor("concat input") for c in children[1:]]
    if len(tensors) < 2:
        raise ShapeError("concat needs at least two tensors")
    rank = tensors[0].rank
    if not 0 <= axis < rank:
        raise ShapeError(f"concat axis {axis} out of range for rank-{rank} tensors")
    for t in tensors[1:]:
        if t.rank != rank:
            raise ShapeError("concat inputs must all have the same rank")
        for d in range(rank):
            if d != axis and t.shape[d] != tensors[0].shape[d]:
                raise ShapeError(
                    f"concat inputs disagree on non-concat axis {d}: {t.shape} vs {tensors[0].shape}"
                )
    sizes = tuple(t.shape[axis] for t in tensors)
    out_shape = list(tensors[0].shape)
    out_shape[axis] = sum(sizes)
    return TensorData.tensor(tuple(out_shape)).with_split(axis, sizes)


def _infer_split(children: Sequence[TensorData]) -> TensorData:
    axis = children[0].expect_int("split axis")
    x = children[1].expect_tensor("split input")
    if not 0 <= axis < x.rank:
        raise ShapeError(f"split axis {axis} out of range for shape {x.shape}")
    sizes = x.split_sizes_for_axis(axis)
    total = x.shape[axis]
    if sizes is None:
        # No recorded concat: split in half (requires an even dimension).
        if total % 2 != 0:
            raise ShapeError(
                f"split along axis {axis} of size {total} has no recorded concat position "
                f"and the dimension is odd"
            )
        first, second = total // 2, total // 2
    else:
        if sum(sizes) != total:
            raise ShapeError(f"recorded split sizes {sizes} do not sum to dimension {total}")
        # The split is binary (Table 2): first piece vs. the rest.
        first = sizes[0]
        second = total - first
    if first <= 0 or second <= 0:
        raise ShapeError(f"split along axis {axis} would produce an empty piece ({first}, {second})")

    def piece(size: int) -> TensorData:
        shape = list(x.shape)
        shape[axis] = size
        return TensorData.tensor(tuple(shape))

    first_part = piece(first)
    second_part = piece(second)
    if sizes is not None and len(sizes) > 2:
        # The remainder is still a concatenation of the remaining pieces.
        second_part = second_part.with_split(axis, tuple(sizes[1:]))
    return TensorData.tuple_of((first_part, second_part))


def _infer_split_index(children: Sequence[TensorData], index: int) -> TensorData:
    t = children[0]
    if t.kind != DataKind.TUPLE:
        raise ShapeError(f"split{index} expects the output of split, got {t.kind.value}")
    if len(t.parts) <= index:
        raise ShapeError(f"split tuple has no element {index}")
    return t.parts[index]


def _infer_split0(children: Sequence[TensorData]) -> TensorData:
    return _infer_split_index(children, 0)


def _infer_split1(children: Sequence[TensorData]) -> TensorData:
    return _infer_split_index(children, 1)


def _infer_merge(children: Sequence[TensorData]) -> TensorData:
    w = children[0].expect_tensor("merge weight")
    count = children[1].expect_int("merge count")
    if w.rank != 4:
        raise ShapeError("merge expects a 4-D convolution weight")
    if count <= 0:
        raise ShapeError("merge count must be positive")
    c_out, c_in, kh, kw = w.shape
    return TensorData.tensor((c_out, c_in * count, kh, kw))


def _infer_reshape(children: Sequence[TensorData]) -> TensorData:
    x = children[0].expect_tensor("reshape input")
    shape_str = children[1].expect_string("reshape target shape")
    try:
        new_shape = tuple(int(tok) for tok in shape_str.split())
    except ValueError as exc:
        raise ShapeError(f"malformed reshape target {shape_str!r}") from exc
    if any(d <= 0 for d in new_shape):
        raise ShapeError(f"reshape target {new_shape} has non-positive dimensions")
    n_in, n_out = x.num_elements, 1
    for d in new_shape:
        n_out *= d
    if n_in != n_out:
        raise ShapeError(f"reshape cannot change the number of elements: {x.shape} -> {new_shape}")
    return TensorData.tensor(new_shape)


def _infer_identifier(children: Sequence[TensorData]) -> TensorData:
    ident = children[0].expect_string("tensor identifier")
    _, shape = parse_identifier(ident)
    return TensorData.tensor(shape)


def _infer_input(children: Sequence[TensorData]) -> TensorData:
    if len(children) != 1:
        raise ShapeError("input expects a single identifier child")
    return _infer_identifier(children)


def _infer_weight(children: Sequence[TensorData]) -> TensorData:
    if len(children) != 1:
        raise ShapeError("weight expects a single identifier child")
    return _infer_identifier(children).with_from_weights(True)


def _infer_noop(children: Sequence[TensorData]) -> TensorData:
    # noop only glues graph outputs together; it carries no tensor semantics.
    for child in children:
        if not child.is_valid:
            raise ShapeError("noop child is invalid")
    return TensorData.tensor(())


def _infer_num_literal(children: Sequence[TensorData]) -> TensorData:
    raise ShapeError("num literals are inferred from their symbol, not their children")


def _infer_str_literal(children: Sequence[TensorData]) -> TensorData:
    raise ShapeError("str literals are inferred from their symbol, not their children")


# ---------------------------------------------------------------------- #
# Per-operator FLOP / byte accounting
# ---------------------------------------------------------------------- #


def zero_flops(children: Sequence[TensorData], output: TensorData) -> float:
    """Data-movement operators perform no arithmetic."""
    return 0.0


def zero_bytes(children: Sequence[TensorData], output: TensorData) -> float:
    """Literals, identifiers, and glue nodes move no bytes at runtime."""
    return 0.0


def tensor_traffic(children: Sequence[TensorData], output: TensorData) -> float:
    """Default memory traffic: read every tensor operand, write the output."""
    read = sum(c.num_elements for c in children if c.kind == DataKind.TENSOR)
    if output.kind == DataKind.TUPLE:
        written = sum(p.num_elements for p in output.parts)
    else:
        written = output.num_elements
    return FLOAT_BYTES * float(read + written)


def _flops_matmul(children: Sequence[TensorData], output: TensorData) -> float:
    a = children[1]
    k = a.shape[-1]
    flops = 2.0 * output.num_elements * k
    if children[0].kind == DataKind.INT and children[0].value != Activation.NONE:
        flops += output.num_elements
    return flops


def _flops_conv(children: Sequence[TensorData], output: TensorData) -> float:
    w = children[5]
    _, c_in_per_group, kh, kw = w.shape
    flops = 2.0 * output.num_elements * c_in_per_group * kh * kw
    if children[3].kind == DataKind.INT and children[3].value != Activation.NONE:
        flops += output.num_elements
    return flops


def _flops_ewise(children: Sequence[TensorData], output: TensorData) -> float:
    return float(output.num_elements)


def _flops_relu(children: Sequence[TensorData], output: TensorData) -> float:
    return 1.0 * output.num_elements


def _flops_transcendental(children: Sequence[TensorData], output: TensorData) -> float:
    # Transcendentals cost a few flops per element; a small constant factor
    # keeps tanh/sigmoid slightly more expensive than relu.
    return 4.0 * output.num_elements


def _flops_pool(children: Sequence[TensorData], output: TensorData) -> float:
    kh = children[1].value if children[1].kind == DataKind.INT else 1
    kw = children[2].value if children[2].kind == DataKind.INT else 1
    return float(output.num_elements) * float(kh) * float(kw)


# ---------------------------------------------------------------------- #
# OpSpec and the registry
# ---------------------------------------------------------------------- #

#: ``(min, max)`` child counts; ``max`` may be None for unbounded, the whole
#: arity may be None for "unchecked" (the per-op infer fn validates itself).
Arity = Optional[Tuple[int, Optional[int]]]


@dataclass(frozen=True)
class OpSpec:
    """Everything the system knows about one Table-2 operator family.

    Attributes
    ----------
    kind:
        The :class:`~repro.ir.ops.OpKind` this spec describes.
    name:
        Serialization name (the ``op`` field of JSON graph documents);
        equals ``kind.value`` for the built-in table.
    signature:
        Human-readable operand signature from Table 2, used in diagnostics
        and in the generated operator documentation.
    arity:
        ``(min, max)`` child counts enforced by the dispatcher before the
        inference function runs (``None`` max = unbounded; ``None`` arity =
        the inference function checks itself).
    symbols:
        Every e-graph operator symbol owned by this family.  Most operators
        own exactly one; ``concat`` owns the ``concat2`` .. ``concat{N}``
        arity-specialisation family; literal specs (``num``/``str``) own
        none -- their symbols *are* their values.
    infer:
        Shape-inference rule ``(children) -> TensorData`` (raises
        :class:`~repro.ir.tensor.ShapeError` on incompatible operands).
    flops:
        Arithmetic work ``(children, output) -> float``; use
        :func:`zero_flops` for data-movement operators.
    op_bytes:
        Memory traffic ``(children, output) -> float``; use
        :func:`tensor_traffic` for real kernels, :func:`zero_bytes` for
        literals / identifiers / glue.
    symbol_of:
        Optional ``(num_inputs, value) -> symbol`` override for families
        whose symbol depends on arity or payload (``concat``, literals);
        ``None`` means the fixed ``name``.
    onnx_ops:
        ONNX ``op_type`` names the importer maps onto this operator (the
        coverage table in ``docs/operators.md`` derives from this field).
    """

    kind: OpKind
    name: str
    signature: str
    arity: Arity
    symbols: Tuple[str, ...]
    infer: Callable[[Sequence[TensorData]], TensorData]
    flops: Callable[[Sequence[TensorData], TensorData], float]
    op_bytes: Callable[[Sequence[TensorData], TensorData], float]
    symbol_of: Optional[Callable[[Optional[int], object], str]] = None
    onnx_ops: Tuple[str, ...] = ()

    @property
    def is_compute(self) -> bool:
        return self.kind.is_compute


class OpRegistry:
    """Ordered ``OpKind -> OpSpec`` table with a symbol index.

    Registration order is Table-2 order; :meth:`names` (serialization names)
    and iteration preserve it.  Symbols must be globally unique across
    specs.  ``concat_max_inputs`` is derived from the concat family's symbol
    count -- the old module-level ``CONCAT_MAX_INPUTS`` constant now reads
    through here (see :func:`register_concat` for widening it).
    """

    def __init__(self) -> None:
        self._by_kind: Dict[OpKind, OpSpec] = {}
        self._by_name: Dict[str, OpSpec] = {}
        self._by_symbol: Dict[str, OpSpec] = {}

    # -- registration -------------------------------------------------- #

    def register(self, spec: OpSpec, replace: bool = False) -> OpSpec:
        """Register ``spec``; with ``replace=True`` an existing spec for the
        same kind is swapped out (used to widen the concat family)."""
        if not replace and spec.kind in self._by_kind:
            raise ValueError(f"operator {spec.kind.value!r} is already registered")
        if replace and spec.kind in self._by_kind:
            old = self._by_kind[spec.kind]
            del self._by_name[old.name]
            for symbol in old.symbols:
                del self._by_symbol[symbol]
        if spec.name in self._by_name:
            raise ValueError(f"operator name {spec.name!r} is already registered")
        for symbol in spec.symbols:
            owner = self._by_symbol.get(symbol)
            if owner is not None:
                raise ValueError(f"symbol {symbol!r} is already owned by {owner.name!r}")
        self._by_kind[spec.kind] = spec
        self._by_name[spec.name] = spec
        for symbol in spec.symbols:
            self._by_symbol[symbol] = spec
        return spec

    def unregister(self, kind: OpKind) -> None:
        """Remove a spec (mainly for tests and plugin teardown)."""
        spec = self._by_kind.pop(kind, None)
        if spec is None:
            raise ValueError(f"operator {kind!r} is not registered")
        del self._by_name[spec.name]
        for symbol in spec.symbols:
            del self._by_symbol[symbol]

    # -- lookup -------------------------------------------------------- #

    def spec(self, kind: OpKind) -> OpSpec:
        try:
            return self._by_kind[kind]
        except KeyError:
            raise ValueError(f"operator {kind!r} has no registered spec") from None

    def from_name(self, name: str) -> Optional[OpSpec]:
        """The spec whose serialization name is ``name`` (None if unknown)."""
        return self._by_name.get(name)

    def for_symbol(self, symbol: str) -> Optional[OpSpec]:
        """The spec owning e-graph symbol ``symbol`` (None for literals)."""
        return self._by_symbol.get(symbol)

    def names(self) -> Tuple[str, ...]:
        """Serialization names in registration (Table-2) order."""
        return tuple(self._by_name)

    def symbols(self) -> Tuple[str, ...]:
        """Every registered e-graph symbol, in registration order."""
        return tuple(self._by_symbol)

    def __iter__(self) -> Iterator[OpSpec]:
        return iter(self._by_kind.values())

    def __len__(self) -> int:
        return len(self._by_kind)

    def __contains__(self, kind: object) -> bool:
        return kind in self._by_kind

    @property
    def concat_max_inputs(self) -> int:
        """Widest concat arity representable with the registered symbol family."""
        return len(self.spec(OpKind.CONCAT).symbols) + 1

    # -- symbol mapping ------------------------------------------------ #

    def op_symbol(self, kind: OpKind, num_inputs: Optional[int] = None, value: object = None) -> str:
        """E-graph operator symbol for an IR node (see :func:`repro.ir.ops.op_symbol`)."""
        spec = self.spec(kind)
        if spec.symbol_of is not None:
            return spec.symbol_of(num_inputs, value)
        return spec.name

    def resolve_symbol(self, symbol: str, strict: bool = False) -> Tuple[OpKind, object]:
        """Map an e-graph symbol to ``(OpKind, literal value)``.

        Unknown symbols are classified as literals: integers become ``NUM``
        nodes; in the default lenient mode *everything else* becomes a
        ``STR`` node (the historical behaviour).  With ``strict=True`` only
        symbols that look like genuine string-literal payloads -- tensor
        identifiers (``name@dims``) and whitespace-separated integer lists
        (axis permutations, reshape targets) -- are accepted as ``STR``;
        anything else raises :class:`UnknownOperatorError`, so a typo'd rule
        target or corrupted term fails loudly instead of silently becoming a
        string node.
        """
        spec = self._by_symbol.get(symbol)
        if spec is not None:
            return spec.kind, None
        try:
            return OpKind.NUM, int(symbol)
        except ValueError:
            pass
        if not strict or _string_literal_like(symbol):
            return OpKind.STR, symbol
        raise UnknownOperatorError(
            f"unknown operator symbol {symbol!r} (not a registered operator, an integer, "
            f"a 'name@dims' identifier, or an integer-list literal); registered: "
            f"{', '.join(self.names())}"
        )

    # -- semantic dispatch (the hot paths) ----------------------------- #

    def infer(self, symbol: str, children: Sequence[TensorData]) -> TensorData:
        """Registry-dispatched shape inference (see :func:`infer_symbol`)."""
        spec = self._by_symbol.get(symbol)
        if spec is None:
            # Literal symbols carry their payload in the symbol itself.
            try:
                return TensorData.integer(int(symbol))
            except ValueError:
                return TensorData.string(symbol)
        for child in children:
            if not child.is_valid:
                raise ShapeError(f"{symbol}: invalid operand")
        arity = spec.arity
        if arity is not None:
            lo, hi = arity
            n = len(children)
            if n < lo or (hi is not None and n > hi):
                raise ShapeError(f"{symbol} expects {spec.signature}, got {n} operands")
        result = spec.infer(children)
        # Weight-only subgraphs can be pre-computed before inference (paper
        # Figure 10); propagate the flag exactly as the if/elif chain oracle does.
        kind = spec.kind
        if result.kind == DataKind.TENSOR and not kind.is_literal and not kind.is_identifier:
            tensor_children = [c for c in children if c.kind in (DataKind.TENSOR, DataKind.TUPLE)]
            if tensor_children and all(c.from_weights for c in tensor_children):
                result = result.with_from_weights(True)
        if result.kind == DataKind.TUPLE:
            tensor_children = [c for c in children if c.kind in (DataKind.TENSOR, DataKind.TUPLE)]
            if tensor_children and all(c.from_weights for c in tensor_children):
                result = TensorData.tuple_of(tuple(p.with_from_weights(True) for p in result.parts))
        return result

    def op_flops(self, symbol: str, children: Sequence[TensorData], output: TensorData) -> float:
        """Registry-dispatched FLOP accounting (see :func:`op_flops`)."""
        spec = self._by_symbol.get(symbol)
        if spec is None:  # literal symbols perform no arithmetic
            return 0.0
        return spec.flops(children, output)

    def op_bytes(self, symbol: str, children: Sequence[TensorData], output: TensorData) -> float:
        """Registry-dispatched byte accounting (see :func:`op_bytes`)."""
        spec = self._by_symbol.get(symbol)
        if spec is None:  # literal symbols move no bytes
            return 0.0
        return spec.op_bytes(children, output)


def _string_literal_like(symbol: str) -> bool:
    """Whether ``symbol`` looks like a genuine string-literal payload."""
    if "@" in symbol:  # tensor identifier 'name@d1 d2 ...'
        return True
    tokens = symbol.split()
    if not tokens:
        return False
    for token in tokens:  # axis permutations / reshape targets: '0 2 1 3'
        try:
            int(token)
        except ValueError:
            return False
    return True


# ---------------------------------------------------------------------- #
# The built-in Table-2 operator table
# ---------------------------------------------------------------------- #

OPS = OpRegistry()


def _num_symbol(num_inputs: Optional[int], value: object) -> str:
    return str(int(value))


def _str_symbol(num_inputs: Optional[int], value: object) -> str:
    return str(value)


def _concat_symbols(max_inputs: int) -> Tuple[str, ...]:
    return tuple(f"concat{n}" for n in range(2, max_inputs + 1))


def _make_concat_symbol_of(max_inputs: int):
    def concat_symbol(num_inputs: Optional[int], value: object) -> str:
        if num_inputs is None:
            raise ValueError("concat needs num_inputs to determine its e-graph symbol")
        n_tensors = num_inputs - 1  # first input is the axis
        if not 2 <= n_tensors <= max_inputs:
            raise ValueError(f"concat of {n_tensors} tensors unsupported (max {max_inputs})")
        return f"concat{n_tensors}"

    return concat_symbol


def register_concat(max_inputs: int) -> OpSpec:
    """(Re-)register the concat family with arity symbols ``concat2..concat{N}``.

    The ``CONCAT_MAX_INPUTS = 8`` default is a representation choice, not a
    semantic limit: each arity needs its own e-graph symbol (Table 2 note d).
    Widening the family is one call -- shape inference, cost accounting,
    serialization validation, the ONNX importer's rejection threshold, and
    the config digest all derive from the registered symbol set::

        from repro.ir.opspec import register_concat
        register_concat(16)   # now concat2 .. concat16 exist everywhere
    """
    if max_inputs < 2:
        raise ValueError(f"concat needs at least 2 inputs, got max_inputs={max_inputs}")
    return OPS.register(
        OpSpec(
            kind=OpKind.CONCAT,
            name="concat",
            signature="(axis, input1, ..., inputN)",
            arity=(3, max_inputs + 1),
            symbols=_concat_symbols(max_inputs),
            infer=_infer_concat,
            flops=zero_flops,
            op_bytes=tensor_traffic,
            symbol_of=_make_concat_symbol_of(max_inputs),
            onnx_ops=("Concat",),
        ),
        replace=OpKind.CONCAT in OPS,
    )


def _register_builtins() -> None:
    reg = OPS.register
    reg(OpSpec(OpKind.NUM, "num", "(integer literal)", (0, 0), (),
               _infer_num_literal, zero_flops, zero_bytes, symbol_of=_num_symbol))
    reg(OpSpec(OpKind.STR, "str", "(string literal)", (0, 0), (),
               _infer_str_literal, zero_flops, zero_bytes, symbol_of=_str_symbol))
    reg(OpSpec(OpKind.INPUT, "input", "(identifier)", (1, 1), ("input",),
               _infer_input, zero_flops, zero_bytes))
    reg(OpSpec(OpKind.WEIGHT, "weight", "(identifier)", (1, 1), ("weight",),
               _infer_weight, zero_flops, zero_bytes))
    reg(OpSpec(OpKind.EWADD, "ewadd", "(input1, input2)", (2, 2), ("ewadd",),
               _infer_ewise, _flops_ewise, tensor_traffic, onnx_ops=("Add",)))
    reg(OpSpec(OpKind.EWMUL, "ewmul", "(input1, input2)", (2, 2), ("ewmul",),
               _infer_ewise, _flops_ewise, tensor_traffic, onnx_ops=("Mul",)))
    reg(OpSpec(OpKind.MATMUL, "matmul", "(activation, input1, input2)", (3, 3), ("matmul",),
               _infer_matmul, _flops_matmul, tensor_traffic, onnx_ops=("MatMul", "Gemm")))
    reg(OpSpec(OpKind.CONV, "conv",
               "(stride_h, stride_w, padding, activation, input, weight)", (6, 6), ("conv",),
               _infer_conv, _flops_conv, tensor_traffic, onnx_ops=("Conv",)))
    reg(OpSpec(OpKind.RELU, "relu", "(input)", (1, 1), ("relu",),
               _infer_activation, _flops_relu, tensor_traffic, onnx_ops=("Relu",)))
    reg(OpSpec(OpKind.TANH, "tanh", "(input)", (1, 1), ("tanh",),
               _infer_activation, _flops_transcendental, tensor_traffic, onnx_ops=("Tanh",)))
    reg(OpSpec(OpKind.SIGMOID, "sigmoid", "(input)", (1, 1), ("sigmoid",),
               _infer_activation, _flops_transcendental, tensor_traffic, onnx_ops=("Sigmoid",)))
    reg(OpSpec(OpKind.POOLMAX, "poolmax",
               "(input, kernel_h, kernel_w, stride_h, stride_w, padding, activation)",
               (7, 7), ("poolmax",), _infer_pool, _flops_pool, tensor_traffic,
               onnx_ops=("MaxPool",)))
    reg(OpSpec(OpKind.POOLAVG, "poolavg",
               "(input, kernel_h, kernel_w, stride_h, stride_w, padding, activation)",
               (7, 7), ("poolavg",), _infer_pool, _flops_pool, tensor_traffic,
               onnx_ops=("AveragePool",)))
    reg(OpSpec(OpKind.TRANSPOSE, "transpose", "(input, permutation)", (2, 2), ("transpose",),
               _infer_transpose, zero_flops, tensor_traffic, onnx_ops=("Transpose",)))
    reg(OpSpec(OpKind.ENLARGE, "enlarge", "(input, ref_input)", (2, 2), ("enlarge",),
               _infer_enlarge, zero_flops, tensor_traffic))
    register_concat(8)
    reg(OpSpec(OpKind.SPLIT, "split", "(axis, input)", (2, 2), ("split",),
               _infer_split, zero_flops, tensor_traffic, onnx_ops=("Split",)))
    reg(OpSpec(OpKind.SPLIT0, "split0", "(input)", (1, 1), ("split0",),
               _infer_split0, zero_flops, tensor_traffic))
    reg(OpSpec(OpKind.SPLIT1, "split1", "(input)", (1, 1), ("split1",),
               _infer_split1, zero_flops, tensor_traffic))
    reg(OpSpec(OpKind.MERGE, "merge", "(weight, count)", (2, 2), ("merge",),
               _infer_merge, zero_flops, tensor_traffic))
    reg(OpSpec(OpKind.RESHAPE, "reshape", "(input, shape)", (2, 2), ("reshape",),
               _infer_reshape, zero_flops, tensor_traffic, onnx_ops=("Reshape",)))
    reg(OpSpec(OpKind.NOOP, "noop", "(input1, input2)", None, ("noop",),
               _infer_noop, zero_flops, zero_bytes))


_register_builtins()


# ---------------------------------------------------------------------- #
# Module-level front doors (the names the rest of the system imports)
# ---------------------------------------------------------------------- #


def infer_symbol(symbol: str, children: Sequence[TensorData]) -> TensorData:
    """Infer the :class:`TensorData` produced by e-graph operator ``symbol``.

    Raises :class:`~repro.ir.tensor.ShapeError` when the operands are
    incompatible -- this is exactly the "shape checking" the paper performs
    before applying a rewrite at a syntactic match.  Dispatches through the
    :data:`OPS` registry.
    """
    return OPS.infer(symbol, children)


def op_flops(symbol: str, children: Sequence[TensorData], output: TensorData) -> float:
    """Floating point operations performed by the operator (registry dispatch)."""
    return OPS.op_flops(symbol, children, output)


def op_bytes(symbol: str, children: Sequence[TensorData], output: TensorData) -> float:
    """Bytes read plus bytes written by the operator (registry dispatch)."""
    return OPS.op_bytes(symbol, children, output)
