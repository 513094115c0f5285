"""ONNX ``ModelProto`` wire encoder for the tests and the model generator.

The importer only decodes (:mod:`repro.ir.onnx_proto`); this is its inverse
over the same lite dataclasses, good enough to synthesize the tiny checked-in
test models (``tools/make_test_onnx.py``) and the in-memory models of
``tests/test_onnx_import.py``.  Repeated scalars are emitted packed (the
proto3 default, which the official ``onnx`` parser accepts).
"""

from __future__ import annotations

import struct
from typing import Sequence

from repro.ir.onnx_proto import (
    AttributeKind,
    AttrLite,
    GraphLite,
    ModelLite,
    NodeLite,
    TensorLite,
    ValueInfoLite,
)

__all__ = ["encode_model"]

# Protobuf wire types.
_WIRE_VARINT = 0
_WIRE_LEN = 2
_WIRE_FIXED32 = 5


def _varint(value: int) -> bytes:
    if value < 0:
        value &= (1 << 64) - 1
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _tag(number: int, wire: int) -> bytes:
    return _varint((number << 3) | wire)


def _len_field(number: int, payload: bytes) -> bytes:
    return _tag(number, _WIRE_LEN) + _varint(len(payload)) + payload


def _str_field(number: int, value: str) -> bytes:
    return _len_field(number, value.encode("utf-8"))


def _varint_field(number: int, value: int) -> bytes:
    return _tag(number, _WIRE_VARINT) + _varint(value)


def _packed_varint_field(number: int, values: Sequence[int]) -> bytes:
    if not values:
        return b""
    payload = b"".join(_varint(v) for v in values)
    return _len_field(number, payload)


def _encode_tensor(t: TensorLite) -> bytes:
    out = bytearray()
    out += _packed_varint_field(1, list(t.dims))
    out += _varint_field(2, t.data_type)
    if t.float_data:
        out += _len_field(4, b"".join(struct.pack("<f", v) for v in t.float_data))
    if t.int64_data:
        out += _packed_varint_field(7, list(t.int64_data))
    if t.name:
        out += _str_field(8, t.name)
    if t.raw_data:
        out += _len_field(9, t.raw_data)
    return bytes(out)


def _encode_attribute(a: AttrLite) -> bytes:
    out = bytearray()
    out += _str_field(1, a.name)
    if a.type == AttributeKind.FLOAT:
        out += _tag(2, _WIRE_FIXED32) + struct.pack("<f", a.f)
    elif a.type == AttributeKind.INT:
        out += _varint_field(3, a.i)
    elif a.type == AttributeKind.STRING:
        out += _len_field(4, a.s)
    elif a.type == AttributeKind.TENSOR and a.t is not None:
        out += _len_field(5, _encode_tensor(a.t))
    elif a.type == AttributeKind.FLOATS:
        out += _len_field(7, b"".join(struct.pack("<f", v) for v in a.floats))
    elif a.type == AttributeKind.INTS:
        out += _packed_varint_field(8, list(a.ints))
    elif a.type == AttributeKind.STRINGS:
        for s in a.strings:
            out += _len_field(9, s)
    out += _varint_field(20, a.type)
    return bytes(out)


def _encode_node(n: NodeLite) -> bytes:
    out = bytearray()
    for name in n.inputs:
        out += _str_field(1, name)
    for name in n.outputs:
        out += _str_field(2, name)
    if n.name:
        out += _str_field(3, n.name)
    out += _str_field(4, n.op_type)
    for attr in n.attrs.values():
        out += _len_field(5, _encode_attribute(attr))
    return bytes(out)


def _encode_value_info(v: ValueInfoLite) -> bytes:
    dims = bytearray()
    for dim in v.dims:
        if isinstance(dim, int):
            dim_msg = _varint_field(1, dim)
        elif isinstance(dim, str):
            dim_msg = _str_field(2, dim)
        else:
            dim_msg = b""
        dims += _len_field(1, dim_msg)
    shape = _len_field(2, bytes(dims))
    tensor_type = _varint_field(1, v.elem_type) + shape
    type_proto = _len_field(1, tensor_type)
    return _str_field(1, v.name) + _len_field(2, type_proto)


def _encode_graph(g: GraphLite) -> bytes:
    out = bytearray()
    for node in g.nodes:
        out += _len_field(1, _encode_node(node))
    if g.name:
        out += _str_field(2, g.name)
    for init in g.initializers:
        out += _len_field(5, _encode_tensor(init))
    for vi in g.inputs:
        out += _len_field(11, _encode_value_info(vi))
    for vi in g.outputs:
        out += _len_field(12, _encode_value_info(vi))
    return bytes(out)


def encode_model(model: ModelLite) -> bytes:
    """Serialize a :class:`ModelLite` into ONNX ``ModelProto`` wire bytes.

    The output is a valid protobuf message that the official ``onnx``
    package parses; the CI job with ``onnx`` installed pins this with
    ``onnx.checker`` on the checked-in test models.
    """
    out = bytearray()
    out += _varint_field(1, model.ir_version)
    out += _len_field(7, _encode_graph(model.graph))
    opset = model.opset or {"": 13}
    for domain, version in opset.items():
        entry = (_str_field(1, domain) if domain else b"") + _varint_field(2, version)
        out += _len_field(8, entry)
    return bytes(out)
