#!/usr/bin/env python
"""Regenerate the tiny checked-in ONNX test models under ``tests/data/onnx/``.

Two models, both a few KB, synthesized with the self-contained wire encoder
in ``tests/onnx_encode.py`` (no ``onnx`` dependency):

* ``mlp_tiny.onnx`` -- an 8x16 residual MLP: Gemm (transB=1, explicit
  all-zero C), Relu, Transpose of a weight, MatMul, residual Add, Tanh.
* ``convnet_tiny.onnx`` -- a small CNN: Conv with auto_pad SAME_UPPER,
  Relu, VALID MaxPool, Conv with explicit SAME-equivalent pads, Concat,
  global AveragePool, Reshape whose target comes from a Constant node
  (with 0 / -1 entries), and a final MatMul classifier head.

Weights are deterministic (a fixed linear congruential generator), so the
files are reproducible byte-for-byte.  The CI leg with ``onnx`` installed
cross-checks both files with ``onnx.checker`` and ``onnx.shape_inference``.

Run from the repository root::

    PYTHONPATH=src python tools/make_test_onnx.py
"""

from __future__ import annotations

import struct
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests"))

from repro.ir.onnx_proto import (  # noqa: E402
    AttributeKind,
    AttrLite,
    DT_FLOAT,
    DT_INT64,
    GraphLite,
    ModelLite,
    NodeLite,
    TensorLite,
    ValueInfoLite,
)
from onnx_encode import encode_model  # noqa: E402

OUT_DIR = REPO_ROOT / "tests" / "data" / "onnx"


def _lcg_floats(count: int, seed: int) -> tuple:
    """Deterministic small weights in [-0.5, 0.5)."""
    state = seed
    values = []
    for _ in range(count):
        state = (state * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
        values.append((state >> 40) / float(1 << 24) - 0.5)
    return tuple(values)


def _weight(name: str, dims: tuple, seed: int, raw: bool) -> TensorLite:
    count = 1
    for d in dims:
        count *= d
    values = _lcg_floats(count, seed)
    if raw:
        return TensorLite(name=name, dims=dims, data_type=DT_FLOAT,
                          raw_data=b"".join(struct.pack("<f", v) for v in values))
    return TensorLite(name=name, dims=dims, data_type=DT_FLOAT, float_data=values)


def _zeros(name: str, dims: tuple) -> TensorLite:
    count = 1
    for d in dims:
        count *= d
    return TensorLite(name=name, dims=dims, data_type=DT_FLOAT,
                      float_data=tuple(0.0 for _ in range(count)))


def _attr_i(name: str, value: int) -> AttrLite:
    return AttrLite(name=name, type=AttributeKind.INT, i=value)


def _attr_ints(name: str, values: tuple) -> AttrLite:
    return AttrLite(name=name, type=AttributeKind.INTS, ints=tuple(values))


def _attr_s(name: str, value: str) -> AttrLite:
    return AttrLite(name=name, type=AttributeKind.STRING, s=value.encode("utf-8"))


def _vi(name: str, dims: tuple) -> ValueInfoLite:
    return ValueInfoLite(name=name, elem_type=DT_FLOAT, dims=dims)


def build_mlp_tiny() -> ModelLite:
    """8x16 residual MLP: Gemm(transB, zero C) -> Relu -> MatMul(Transpose(W)) -> Add -> Tanh."""
    graph = GraphLite(
        name="mlp_tiny",
        inputs=[_vi("x", (8, 16))],
        outputs=[_vi("y", (8, 16))],
        initializers=[
            _weight("w1", (32, 16), seed=1, raw=True),     # Gemm B, transB=1
            _zeros("c1", (8, 32)),                          # all-zero C (skipped)
            _weight("w2t", (16, 32), seed=2, raw=False),    # transposed by a Transpose node
        ],
        nodes=[
            NodeLite(op_type="Gemm", name="gemm1", inputs=("x", "w1", "c1"),
                     outputs=("h1",),
                     attrs={"transB": _attr_i("transB", 1)}),
            NodeLite(op_type="Relu", name="relu1", inputs=("h1",), outputs=("h1r",)),
            NodeLite(op_type="Transpose", name="tw2", inputs=("w2t",), outputs=("w2",),
                     attrs={"perm": _attr_ints("perm", (1, 0))}),
            NodeLite(op_type="MatMul", name="mm2", inputs=("h1r", "w2"), outputs=("h2",)),
            NodeLite(op_type="Add", name="residual", inputs=("h2", "x"), outputs=("h3",)),
            NodeLite(op_type="Tanh", name="tanh1", inputs=("h3",), outputs=("y",)),
        ],
    )
    return ModelLite(ir_version=7, opset={"": 13}, graph=graph)


def build_convnet_tiny() -> ModelLite:
    """Small CNN: SAME conv, VALID pool, explicit-pads conv, Concat, global pool, Reshape, head."""
    graph = GraphLite(
        name="convnet_tiny",
        inputs=[_vi("x", (1, 8, 14, 14))],
        outputs=[_vi("y", (1, 10))],
        initializers=[
            _weight("k1", (16, 8, 3, 3), seed=3, raw=True),
            _weight("k2", (16, 16, 3, 3), seed=4, raw=False),
            _weight("head", (32, 10), seed=5, raw=True),
        ],
        nodes=[
            NodeLite(op_type="Conv", name="conv1", inputs=("x", "k1"), outputs=("c1",),
                     attrs={"auto_pad": _attr_s("auto_pad", "SAME_UPPER"),
                            "strides": _attr_ints("strides", (1, 1)),
                            "kernel_shape": _attr_ints("kernel_shape", (3, 3))}),
            NodeLite(op_type="Relu", name="relu1", inputs=("c1",), outputs=("c1r",)),
            NodeLite(op_type="MaxPool", name="pool1", inputs=("c1r",), outputs=("p1",),
                     attrs={"kernel_shape": _attr_ints("kernel_shape", (2, 2)),
                            "strides": _attr_ints("strides", (2, 2))}),
            NodeLite(op_type="Conv", name="conv2", inputs=("p1", "k2"), outputs=("c2",),
                     attrs={"pads": _attr_ints("pads", (1, 1, 1, 1)),
                            "strides": _attr_ints("strides", (1, 1)),
                            "kernel_shape": _attr_ints("kernel_shape", (3, 3))}),
            NodeLite(op_type="Concat", name="cat", inputs=("c2", "p1"), outputs=("cc",),
                     attrs={"axis": _attr_i("axis", 1)}),
            NodeLite(op_type="AveragePool", name="gap", inputs=("cc",), outputs=("g",),
                     attrs={"kernel_shape": _attr_ints("kernel_shape", (7, 7)),
                            "strides": _attr_ints("strides", (1, 1))}),
            # Reshape target from a Constant node, exercising 0 (copy) and -1 (infer).
            NodeLite(op_type="Constant", name="flat_shape", inputs=(), outputs=("shape",),
                     attrs={"value": AttrLite(
                         name="value", type=AttributeKind.TENSOR,
                         t=TensorLite(name="shape_t", dims=(2,), data_type=DT_INT64,
                                      int64_data=(0, -1)))}),
            NodeLite(op_type="Reshape", name="flatten", inputs=("g", "shape"),
                     outputs=("f",)),
            NodeLite(op_type="MatMul", name="clf", inputs=("f", "head"), outputs=("y",)),
        ],
    )
    return ModelLite(ir_version=7, opset={"": 13}, graph=graph)


BUILDERS = {
    "mlp_tiny": build_mlp_tiny,
    "convnet_tiny": build_convnet_tiny,
}


def main() -> int:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name, build in BUILDERS.items():
        data = encode_model(build())
        path = OUT_DIR / f"{name}.onnx"
        path.write_bytes(data)
        print(f"wrote {path} ({len(data)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
