"""Minimal pure-Python decoder for the ONNX protobuf wire format.

The importer (:mod:`repro.ir.onnx_import`) must work in environments where
the ``onnx`` package is not installed -- it is an *optional* extra, not a
dependency.  ONNX models are ordinary protobuf messages, and the subset of
the schema the importer needs (graphs, nodes, attributes, initializers,
value infos) decodes with a few hundred lines of wire-format code, so this
module implements exactly that: a reader for the fields we consume.  Its
inverse, the writer that synthesizes the tiny checked-in test models
(``tools/make_test_onnx.py``), lives with the tests
(``tests/onnx_encode.py``).  When the real ``onnx`` package *is*
available, the importer still uses this decoder -- one code path -- but the
CI job with ``onnx`` installed cross-checks the generated files with
``onnx.checker`` and ``onnx.shape_inference``.

Field numbers follow ``onnx/onnx.proto`` (IR version 7+):

=================  =====================================================
message            fields used
=================  =====================================================
ModelProto         ir_version=1, graph=7, opset_import=8
GraphProto         node=1, name=2, initializer=5, input=11, output=12
NodeProto          input=1, output=2, name=3, op_type=4, attribute=5
AttributeProto     name=1, f=2, i=3, s=4, t=5, floats=7, ints=8,
                   strings=9, type=20
TensorProto        dims=1, data_type=2, float_data=4, int32_data=5,
                   int64_data=7, name=8, raw_data=9
ValueInfoProto     name=1, type=2
TypeProto          tensor_type=1 -> elem_type=1, shape=2 -> dim=1 ->
                   dim_value=1 / dim_param=2
OperatorSetIdProto domain=1, version=2
=================  =====================================================

Only deterministic, documented wire behaviour is implemented: varint,
fixed32/fixed64, and length-delimited fields; packed *and* unpacked
repeated scalars are accepted.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "OnnxDecodeError",
    "AttributeKind",
    "TensorLite",
    "AttrLite",
    "ValueInfoLite",
    "NodeLite",
    "GraphLite",
    "ModelLite",
    "parse_model",
    "tensor_ints",
    "tensor_floats",
    "DT_FLOAT",
    "DT_INT64",
]

# TensorProto.DataType values we handle.
DT_FLOAT = 1
DT_INT64 = 7


class OnnxDecodeError(ValueError):
    """The byte stream is not a well-formed ONNX model (at the wire level)."""


class AttributeKind:
    """AttributeProto.AttributeType values."""

    FLOAT = 1
    INT = 2
    STRING = 3
    TENSOR = 4
    FLOATS = 6
    INTS = 7
    STRINGS = 8


# ---------------------------------------------------------------------- #
# Lite message mirrors
# ---------------------------------------------------------------------- #


@dataclass
class TensorLite:
    """TensorProto: an initializer (or attribute tensor)."""

    name: str = ""
    dims: Tuple[int, ...] = ()
    data_type: int = DT_FLOAT
    raw_data: bytes = b""
    float_data: Tuple[float, ...] = ()
    int64_data: Tuple[int, ...] = ()
    int32_data: Tuple[int, ...] = ()


@dataclass
class AttrLite:
    """AttributeProto: one node attribute."""

    name: str = ""
    type: int = 0
    f: float = 0.0
    i: int = 0
    s: bytes = b""
    t: Optional[TensorLite] = None
    floats: Tuple[float, ...] = ()
    ints: Tuple[int, ...] = ()
    strings: Tuple[bytes, ...] = ()


@dataclass
class ValueInfoLite:
    """ValueInfoProto: a typed graph input/output.

    ``dims`` entries are ints (``dim_value``), strings (``dim_param`` --
    symbolic dimensions like ``"batch"``), or None (unspecified).
    """

    name: str = ""
    elem_type: int = DT_FLOAT
    dims: Tuple[Union[int, str, None], ...] = ()


@dataclass
class NodeLite:
    """NodeProto: one operator application."""

    op_type: str = ""
    name: str = ""
    inputs: Tuple[str, ...] = ()
    outputs: Tuple[str, ...] = ()
    attrs: Dict[str, AttrLite] = field(default_factory=dict)

    @property
    def display_name(self) -> str:
        return self.name or f"<{self.op_type} -> {', '.join(self.outputs) or '?'}>"


@dataclass
class GraphLite:
    """GraphProto."""

    name: str = ""
    nodes: List[NodeLite] = field(default_factory=list)
    initializers: List[TensorLite] = field(default_factory=list)
    inputs: List[ValueInfoLite] = field(default_factory=list)
    outputs: List[ValueInfoLite] = field(default_factory=list)


@dataclass
class ModelLite:
    """ModelProto (the fields the importer consumes)."""

    ir_version: int = 7
    opset: Dict[str, int] = field(default_factory=dict)
    graph: GraphLite = field(default_factory=GraphLite)


# ---------------------------------------------------------------------- #
# Wire-format primitives
# ---------------------------------------------------------------------- #

_WIRE_VARINT = 0
_WIRE_FIXED64 = 1
_WIRE_LEN = 2
_WIRE_FIXED32 = 5


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise OnnxDecodeError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise OnnxDecodeError("varint too long")


def _signed64(value: int) -> int:
    value &= (1 << 64) - 1
    return value - (1 << 64) if value >= (1 << 63) else value


def _iter_fields(data: bytes) -> Iterator[Tuple[int, int, Union[int, bytes]]]:
    """Yield ``(field_number, wire_type, payload)`` triples of one message."""
    pos = 0
    while pos < len(data):
        key, pos = _read_varint(data, pos)
        number, wire = key >> 3, key & 0x7
        if wire == _WIRE_VARINT:
            value, pos = _read_varint(data, pos)
            yield number, wire, value
        elif wire == _WIRE_FIXED64:
            if pos + 8 > len(data):
                raise OnnxDecodeError("truncated fixed64")
            yield number, wire, data[pos : pos + 8]
            pos += 8
        elif wire == _WIRE_FIXED32:
            if pos + 4 > len(data):
                raise OnnxDecodeError("truncated fixed32")
            yield number, wire, data[pos : pos + 4]
            pos += 4
        elif wire == _WIRE_LEN:
            length, pos = _read_varint(data, pos)
            if pos + length > len(data):
                raise OnnxDecodeError("truncated length-delimited field")
            yield number, wire, data[pos : pos + length]
            pos += length
        else:
            raise OnnxDecodeError(f"unsupported wire type {wire} for field {number}")


def _packed_varints(payload: Union[int, bytes], signed: bool = True) -> List[int]:
    """Decode one occurrence of a repeated varint field (packed or not)."""
    if isinstance(payload, int):
        return [_signed64(payload) if signed else payload]
    values: List[int] = []
    pos = 0
    while pos < len(payload):
        value, pos = _read_varint(payload, pos)
        values.append(_signed64(value) if signed else value)
    return values


def _packed_floats(payload: Union[int, bytes]) -> List[float]:
    """Decode one occurrence of a repeated float field (packed or fixed32)."""
    if isinstance(payload, bytes) and len(payload) == 4:
        return [struct.unpack("<f", payload)[0]]
    if isinstance(payload, bytes):
        if len(payload) % 4:
            raise OnnxDecodeError("packed float payload not a multiple of 4 bytes")
        return [v[0] for v in struct.iter_unpack("<f", payload)]
    raise OnnxDecodeError("unexpected wire type for float field")


def _utf8(payload: Union[int, bytes], what: str) -> str:
    if not isinstance(payload, bytes):
        raise OnnxDecodeError(f"{what}: expected a length-delimited string")
    return payload.decode("utf-8", errors="replace")


def _bytes(payload: Union[int, bytes], what: str) -> bytes:
    if not isinstance(payload, bytes):
        raise OnnxDecodeError(f"{what}: expected length-delimited bytes")
    return payload


# ---------------------------------------------------------------------- #
# Message parsers
# ---------------------------------------------------------------------- #


def _parse_tensor(data: bytes) -> TensorLite:
    t = TensorLite()
    dims: List[int] = []
    floats: List[float] = []
    i64: List[int] = []
    i32: List[int] = []
    for number, wire, payload in _iter_fields(data):
        if number == 1:
            dims.extend(_packed_varints(payload))
        elif number == 2 and wire == _WIRE_VARINT:
            t.data_type = int(payload)
        elif number == 4:
            floats.extend(_packed_floats(payload))
        elif number == 5:
            i32.extend(_packed_varints(payload))
        elif number == 7:
            i64.extend(_packed_varints(payload))
        elif number == 8:
            t.name = _utf8(payload, "TensorProto.name")
        elif number == 9:
            t.raw_data = _bytes(payload, "TensorProto.raw_data")
    t.dims = tuple(dims)
    t.float_data = tuple(floats)
    t.int64_data = tuple(i64)
    t.int32_data = tuple(i32)
    return t


def _parse_attribute(data: bytes) -> AttrLite:
    a = AttrLite()
    floats: List[float] = []
    ints: List[int] = []
    strings: List[bytes] = []
    for number, wire, payload in _iter_fields(data):
        if number == 1:
            a.name = _utf8(payload, "AttributeProto.name")
        elif number == 2:
            a.f = _packed_floats(payload)[0]
        elif number == 3 and wire == _WIRE_VARINT:
            a.i = _signed64(int(payload))
        elif number == 4:
            a.s = _bytes(payload, "AttributeProto.s")
        elif number == 5:
            a.t = _parse_tensor(_bytes(payload, "AttributeProto.t"))
        elif number == 7:
            floats.extend(_packed_floats(payload))
        elif number == 8:
            ints.extend(_packed_varints(payload))
        elif number == 9:
            strings.append(_bytes(payload, "AttributeProto.strings"))
        elif number == 20 and wire == _WIRE_VARINT:
            a.type = int(payload)
    a.floats = tuple(floats)
    a.ints = tuple(ints)
    a.strings = tuple(strings)
    return a


def _parse_node(data: bytes) -> NodeLite:
    n = NodeLite()
    inputs: List[str] = []
    outputs: List[str] = []
    for number, wire, payload in _iter_fields(data):
        if number == 1:
            inputs.append(_utf8(payload, "NodeProto.input"))
        elif number == 2:
            outputs.append(_utf8(payload, "NodeProto.output"))
        elif number == 3:
            n.name = _utf8(payload, "NodeProto.name")
        elif number == 4:
            n.op_type = _utf8(payload, "NodeProto.op_type")
        elif number == 5:
            attr = _parse_attribute(_bytes(payload, "NodeProto.attribute"))
            n.attrs[attr.name] = attr
    n.inputs = tuple(inputs)
    n.outputs = tuple(outputs)
    return n


def _parse_dims(shape_data: bytes) -> Tuple[Union[int, str, None], ...]:
    dims: List[Union[int, str, None]] = []
    for number, wire, payload in _iter_fields(shape_data):
        if number != 1:  # TensorShapeProto.dim
            continue
        dim: Union[int, str, None] = None
        for dnum, dwire, dpayload in _iter_fields(_bytes(payload, "TensorShapeProto.dim")):
            if dnum == 1 and dwire == _WIRE_VARINT:  # dim_value
                dim = _signed64(int(dpayload))
            elif dnum == 2:  # dim_param
                dim = _utf8(dpayload, "Dimension.dim_param")
        dims.append(dim)
    return tuple(dims)


def _parse_value_info(data: bytes) -> ValueInfoLite:
    v = ValueInfoLite()
    for number, wire, payload in _iter_fields(data):
        if number == 1:
            v.name = _utf8(payload, "ValueInfoProto.name")
        elif number == 2:
            # TypeProto -> tensor_type (field 1) -> {elem_type=1, shape=2}
            for tnum, twire, tpayload in _iter_fields(_bytes(payload, "ValueInfoProto.type")):
                if tnum != 1:
                    continue
                for inum, iwire, ipayload in _iter_fields(_bytes(tpayload, "TypeProto.tensor_type")):
                    if inum == 1 and iwire == _WIRE_VARINT:
                        v.elem_type = int(ipayload)
                    elif inum == 2:
                        v.dims = _parse_dims(_bytes(ipayload, "TypeProto.Tensor.shape"))
    return v


def _parse_graph(data: bytes) -> GraphLite:
    g = GraphLite()
    for number, wire, payload in _iter_fields(data):
        if number == 1:
            g.nodes.append(_parse_node(_bytes(payload, "GraphProto.node")))
        elif number == 2:
            g.name = _utf8(payload, "GraphProto.name")
        elif number == 5:
            g.initializers.append(_parse_tensor(_bytes(payload, "GraphProto.initializer")))
        elif number == 11:
            g.inputs.append(_parse_value_info(_bytes(payload, "GraphProto.input")))
        elif number == 12:
            g.outputs.append(_parse_value_info(_bytes(payload, "GraphProto.output")))
    return g


def parse_model(data: bytes) -> ModelLite:
    """Decode a serialized ONNX ``ModelProto`` into a :class:`ModelLite`."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise OnnxDecodeError(f"expected bytes, got {type(data).__name__}")
    data = bytes(data)
    model = ModelLite()
    saw_graph = False
    for number, wire, payload in _iter_fields(data):
        if number == 1 and wire == _WIRE_VARINT:
            model.ir_version = int(payload)
        elif number == 7:
            model.graph = _parse_graph(_bytes(payload, "ModelProto.graph"))
            saw_graph = True
        elif number == 8:
            domain, version = "", 0
            for onum, owire, opayload in _iter_fields(_bytes(payload, "ModelProto.opset_import")):
                if onum == 1:
                    domain = _utf8(opayload, "OperatorSetIdProto.domain")
                elif onum == 2 and owire == _WIRE_VARINT:
                    version = _signed64(int(opayload))
            model.opset[domain] = version
    if not saw_graph:
        raise OnnxDecodeError("model has no graph (is this really an ONNX file?)")
    return model


# ---------------------------------------------------------------------- #
# Tensor payload helpers
# ---------------------------------------------------------------------- #


def tensor_ints(t: TensorLite) -> Tuple[int, ...]:
    """Integer payload of an INT64/INT32 initializer (raw or field-encoded)."""
    if t.raw_data:
        if t.data_type == DT_INT64:
            return tuple(v[0] for v in struct.iter_unpack("<q", t.raw_data))
        return tuple(v[0] for v in struct.iter_unpack("<i", t.raw_data))
    if t.int64_data:
        return t.int64_data
    return t.int32_data


def tensor_floats(t: TensorLite) -> Tuple[float, ...]:
    """Float payload of a FLOAT initializer (raw or field-encoded)."""
    if t.raw_data:
        return tuple(v[0] for v in struct.iter_unpack("<f", t.raw_data))
    return t.float_data
