"""Tests for the ONNX front door: the self-contained protobuf decoder
(:mod:`repro.ir.onnx_proto`, with its test-side encoder ``onnx_encode``) and
the importer (:mod:`repro.ir.onnx_import`).

The decode path is pure Python, so everything here runs without the ``onnx``
package; the interop tests at the bottom cross-check against the real
library when it happens to be installed (the dedicated CI leg) and skip
cleanly otherwise.
"""

import dataclasses
import struct
from pathlib import Path

import pytest
from onnx_encode import encode_model

from repro.core import TensatConfig, optimize
from repro.ir.graph import TensorGraph
from repro.ir.onnx_import import (
    FRONTEND_OPS,
    OnnxImportError,
    import_onnx,
    onnx_coverage,
)
from repro.ir.onnx_proto import (
    AttributeKind,
    AttrLite,
    DT_FLOAT,
    DT_INT64,
    GraphLite,
    ModelLite,
    NodeLite,
    OnnxDecodeError,
    TensorLite,
    ValueInfoLite,
    parse_model,
    tensor_floats,
    tensor_ints,
)
from repro.ir.opspec import OPS, register_concat
from repro.ir.validate import validate_graph
from repro.models import load_onnx_model, parse_dim_overrides
from repro.service.fingerprint import graph_fingerprint

ONNX_DIR = Path(__file__).parent / "data" / "onnx"


def _vi(name, dims):
    return ValueInfoLite(name=name, elem_type=DT_FLOAT, dims=tuple(dims))


def _weight(name, dims):
    count = 1
    for d in dims:
        count *= d
    return TensorLite(name=name, dims=tuple(dims), data_type=DT_FLOAT,
                      float_data=tuple(0.125 * i for i in range(count)))


def _model(nodes, inputs, outputs, initializers=(), name="t"):
    return ModelLite(
        ir_version=7,
        opset={"": 13},
        graph=GraphLite(name=name, inputs=list(inputs), outputs=list(outputs),
                        initializers=list(initializers), nodes=list(nodes)),
    )


class TestProtoCodec:
    def test_encode_parse_roundtrip(self):
        model = _model(
            nodes=[NodeLite(op_type="Relu", name="r", inputs=("x",), outputs=("y",),
                            attrs={"alpha": AttrLite(name="alpha", type=AttributeKind.FLOAT, f=0.5)})],
            inputs=[_vi("x", (2, 3))],
            outputs=[_vi("y", (2, 3))],
            initializers=[_weight("w", (2, 2))],
        )
        decoded = parse_model(encode_model(model))
        assert decoded.ir_version == 7
        assert decoded.opset.get("") == 13
        graph = decoded.graph
        assert graph.name == "t"
        assert [n.op_type for n in graph.nodes] == ["Relu"]
        assert graph.nodes[0].attrs["alpha"].f == pytest.approx(0.5)
        assert [vi.dims for vi in graph.inputs] == [(2, 3)]
        (init,) = graph.initializers
        assert init.dims == (2, 2)
        assert tensor_floats(init)[:3] == pytest.approx((0.0, 0.125, 0.25))

    def test_raw_data_and_int64_tensors(self):
        raw = TensorLite(name="w", dims=(3,), data_type=DT_FLOAT,
                         raw_data=struct.pack("<3f", 1.0, 2.0, 3.0))
        ints = TensorLite(name="s", dims=(2,), data_type=DT_INT64, int64_data=(0, -1))
        model = _model(nodes=[], inputs=[_vi("x", (1,))], outputs=[_vi("x", (1,))],
                       initializers=[raw, ints])
        decoded = parse_model(encode_model(model))
        w, s = decoded.graph.initializers
        assert tensor_floats(w) == pytest.approx((1.0, 2.0, 3.0))
        assert tensor_ints(s) == (0, -1)

    def test_garbage_bytes_raise_decode_error(self):
        with pytest.raises(OnnxDecodeError):
            parse_model(b"\xff\xff\xff\xff\xff")

    def test_checked_in_files_decode(self):
        for name in ("mlp_tiny", "convnet_tiny"):
            model = parse_model((ONNX_DIR / f"{name}.onnx").read_bytes())
            assert model.graph.name == name
            assert model.graph.nodes


class TestImporterMapping:
    def test_coverage_table_comes_from_registry(self):
        coverage = onnx_coverage()
        for onnx_op, ir_name in coverage.items():
            spec = OPS.from_name(ir_name)
            assert spec is not None and onnx_op in spec.onnx_ops

    def test_in_memory_model_imports(self):
        model = _model(
            nodes=[
                NodeLite(op_type="MatMul", name="mm", inputs=("x", "w"), outputs=("h",)),
                NodeLite(op_type="Relu", name="r", inputs=("h",), outputs=("y",)),
            ],
            inputs=[_vi("x", (4, 2))],
            outputs=[_vi("y", (4, 2))],
            initializers=[_weight("w", (2, 2))],
        )
        graph = import_onnx(encode_model(model), name="inmem")
        assert isinstance(graph, TensorGraph)
        validate_graph(graph)
        hist = graph.op_histogram()
        assert hist.get("matmul") == 1 and hist.get("relu") == 1
        assert graph.nodes[graph.outputs[0]].shape == (4, 2)

    def test_unknown_op_is_typed_error_naming_node(self):
        model = _model(
            nodes=[NodeLite(op_type="Softmax", name="sm", inputs=("x",), outputs=("y",))],
            inputs=[_vi("x", (2, 3))], outputs=[_vi("y", (2, 3))],
        )
        with pytest.raises(OnnxImportError) as err:
            import_onnx(encode_model(model))
        assert "sm" in str(err.value) and "Softmax" in str(err.value)

    def test_shape_error_is_wrapped_with_node_name(self):
        model = _model(
            nodes=[NodeLite(op_type="MatMul", name="bad_mm", inputs=("x", "w"), outputs=("y",))],
            inputs=[_vi("x", (4, 3))], outputs=[_vi("y", (4, 2))],
            initializers=[_weight("w", (2, 2))],  # inner dims 3 vs 2
        )
        with pytest.raises(OnnxImportError) as err:
            import_onnx(encode_model(model))
        assert "bad_mm" in str(err.value)

    def test_dim_param_requires_override(self):
        model = _model(
            nodes=[NodeLite(op_type="Relu", name="r", inputs=("x",), outputs=("y",))],
            inputs=[ValueInfoLite(name="x", elem_type=DT_FLOAT, dims=("batch", 3))],
            outputs=[_vi("y", (1, 3))],
        )
        data = encode_model(model)
        with pytest.raises(OnnxImportError) as err:
            import_onnx(data)
        assert "batch" in str(err.value)
        graph = import_onnx(data, dim_overrides={"batch": 2})
        assert graph.nodes[graph.outputs[0]].shape == (2, 3)

    def test_wide_concat_is_rejected_with_typed_error(self):
        width = OPS.concat_max_inputs + 1
        names = [f"x{i}" for i in range(width)]
        model = _model(
            nodes=[NodeLite(op_type="Concat", name="wide", inputs=tuple(names),
                            outputs=("y",),
                            attrs={"axis": AttrLite(name="axis", type=AttributeKind.INT, i=0)})],
            inputs=[_vi(n, (1, 2)) for n in names],
            outputs=[_vi("y", (width, 2))],
        )
        data = encode_model(model)
        with pytest.raises(OnnxImportError) as err:
            import_onnx(data)
        message = str(err.value)
        assert "wide" in message and "register_concat" in message

        # Widening the registered family lifts the cliff for the same bytes.
        register_concat(width + 1)
        try:
            graph = import_onnx(data)
            assert graph.nodes[graph.outputs[0]].shape == (width, 2)
        finally:
            register_concat(8)

    def test_node_without_outputs_is_typed_error(self):
        # Regression: mlp_tiny with node 0's outputs emptied used to escape
        # as a bare IndexError from the handler's node.outputs[0].
        model = parse_model((ONNX_DIR / "mlp_tiny.onnx").read_bytes())
        node = model.graph.nodes[0]
        model.graph.nodes[0] = dataclasses.replace(node, outputs=())
        with pytest.raises(OnnxImportError, match="no outputs") as err:
            import_onnx(encode_model(model))
        assert err.value.op_type == node.op_type

    @pytest.mark.parametrize("name", ["mlp_tiny", "convnet_tiny"])
    def test_every_handler_rejects_a_node_without_outputs(self, name):
        data = (ONNX_DIR / f"{name}.onnx").read_bytes()
        for index in range(len(parse_model(data).graph.nodes)):
            model = parse_model(data)
            node = model.graph.nodes[index]
            model.graph.nodes[index] = dataclasses.replace(node, outputs=())
            with pytest.raises(OnnxImportError, match="no outputs"):
                import_onnx(encode_model(model))

    def test_frontend_ops_produce_no_ir_nodes(self):
        assert set(FRONTEND_OPS) == {"Constant", "Identity"}
        graph = import_onnx(ONNX_DIR / "convnet_tiny.onnx")
        assert "Constant" not in graph.op_histogram()


class TestGoldenImports:
    """Golden import -> optimize -> extract runs for the checked-in models."""

    CONFIG = TensatConfig(node_limit=2_000, iter_limit=5, k_multi=1, extraction="greedy")

    def test_mlp_tiny(self):
        graph = load_onnx_model(ONNX_DIR / "mlp_tiny.onnx")
        validate_graph(graph)
        assert graph.op_histogram() == {
            "matmul": 2, "relu": 1, "tanh": 1, "transpose": 2, "ewadd": 1,
        }
        result = optimize(graph, config=self.CONFIG)
        assert result.stats.optimized_cost < result.stats.original_cost
        assert result.stats.stop_reason == "saturated"

    def test_convnet_tiny(self):
        graph = load_onnx_model(ONNX_DIR / "convnet_tiny.onnx")
        validate_graph(graph)
        hist = graph.op_histogram()
        assert hist.get("conv") == 2 and hist.get("concat") == 1
        assert graph.nodes[graph.outputs[0]].shape == (1, 10)
        result = optimize(graph, config=self.CONFIG)
        assert result.stats.optimized_cost <= result.stats.original_cost

    def test_import_is_deterministic(self):
        a = load_onnx_model(ONNX_DIR / "mlp_tiny.onnx")
        b = load_onnx_model(ONNX_DIR / "mlp_tiny.onnx")
        assert graph_fingerprint(a) == graph_fingerprint(b)


class TestDimOverrideParsing:
    def test_parse_pairs(self):
        assert parse_dim_overrides(["batch=4", "seq=128"]) == {"batch": 4, "seq": 128}

    def test_malformed_pairs_raise(self):
        with pytest.raises(OnnxImportError):
            parse_dim_overrides(["batch"])
        with pytest.raises(OnnxImportError):
            parse_dim_overrides(["batch=big"])

    def test_missing_file_raises(self):
        with pytest.raises(OnnxImportError):
            load_onnx_model(ONNX_DIR / "does_not_exist.onnx")


try:
    import onnx  # noqa: F401
    HAVE_ONNX = True
except ImportError:
    HAVE_ONNX = False


@pytest.mark.skipif(not HAVE_ONNX, reason="interop tests need the real onnx package")
class TestOnnxPackageInterop:  # pragma: no cover - exercised on the onnx CI leg
    def test_checked_in_models_pass_checker(self):
        for name in ("mlp_tiny", "convnet_tiny"):
            model = onnx.load(str(ONNX_DIR / f"{name}.onnx"))
            onnx.checker.check_model(model)

    def test_real_modelproto_imports(self):
        model = onnx.load(str(ONNX_DIR / "mlp_tiny.onnx"))
        graph = import_onnx(model)  # object with SerializeToString
        assert graph.op_histogram().get("matmul") == 2
