"""Tests for the operator-spec registry (repro.ir.opspec).

The registry replaced three per-symbol if/elif chains (shape inference, FLOP
accounting, byte accounting).  The old chains are kept as a test oracle
(``tests/oracles/opspec_chains.py``); the parity tests here pin the registry
dispatch to them verdict by verdict over a corpus drawn from every built-in
model plus handcrafted error cases.
"""

import pytest
from oracles.opspec_chains import infer_symbol_spec, op_bytes_spec, op_flops_spec

from repro.costs.flops import op_bytes, op_flops
from repro.ir.graph import GraphBuilder
from repro.ir.ops import OpKind
from repro.ir.opspec import OPS, OpSpec, UnknownOperatorError, register_concat
from repro.ir.shapes import infer_symbol
from repro.ir.tensor import ShapeError, TensorData
from repro.models import MODEL_NAMES, build_model

# --------------------------------------------------------------------- #
# Corpus: every (symbol, children) pair occurring in the built-in models,
# plus handcrafted shape-error cases.  The model sweep guarantees every
# Table-2 operator family the models use is covered with *valid* operands;
# the error cases pin the failure verdicts.
# --------------------------------------------------------------------- #


def model_corpus():
    """(symbol, children data, output data) for every node of every model."""
    corpus = []
    seen = set()
    for name in MODEL_NAMES:
        graph = build_model(name, "tiny")
        for node in graph.nodes:
            children = tuple(graph.nodes[c].data for c in node.inputs)
            key = (node.symbol, tuple(repr(c) for c in children))
            if key in seen:
                continue
            seen.add(key)
            corpus.append((node.symbol, children, node.data))
    return corpus


ERROR_CASES = [
    # (symbol, children) where the old chain raises ShapeError
    ("ewadd", (TensorData.tensor((4, 8)), TensorData.tensor((4, 9)))),
    ("ewmul", (TensorData.tensor((4, 8)), TensorData.tensor((5, 8)))),
    ("matmul", (TensorData.integer(0), TensorData.tensor((4, 8)), TensorData.tensor((9, 16)))),
    ("concat2", (TensorData.integer(0), TensorData.tensor((4, 8)), TensorData.tensor((4, 9)))),
    ("relu", (TensorData.integer(3),)),
    ("transpose", (TensorData.tensor((4, 8)), TensorData.string("0 0"))),
]


class TestRegistryMatchesExecutableSpec:
    """Verdict-by-verdict parity: registry dispatch == the historical chains."""

    @pytest.mark.parametrize("symbol,children,_out", model_corpus(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_infer_parity_on_model_corpus(self, symbol, children, _out):
        assert infer_symbol(symbol, list(children)) == infer_symbol_spec(symbol, list(children))

    @pytest.mark.parametrize("symbol,children,output", model_corpus(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_cost_parity_on_model_corpus(self, symbol, children, output):
        assert op_flops(symbol, list(children), output) == op_flops_spec(symbol, list(children), output)
        assert op_bytes(symbol, list(children), output) == op_bytes_spec(symbol, list(children), output)

    @pytest.mark.parametrize("symbol,children", ERROR_CASES)
    def test_error_verdict_parity(self, symbol, children):
        with pytest.raises(ShapeError):
            infer_symbol_spec(symbol, list(children))
        with pytest.raises(ShapeError):
            infer_symbol(symbol, list(children))

    def test_literal_symbols_infer_identically(self):
        for symbol in ("0", "42", "-3", "x@8 64", "perm 1 0"):
            assert infer_symbol(symbol, []) == infer_symbol_spec(symbol, [])

    def test_inference_result_matches_recorded_node_data(self):
        # Registry inference reproduces the data each model node carries
        # (up to split/from_weights annotations the builder adds post-hoc).
        for symbol, children, output in model_corpus():
            if not OPS.for_symbol(symbol):
                continue
            inferred = infer_symbol(symbol, list(children))
            assert inferred.kind == output.kind
            assert inferred.shape == output.shape


class TestRegistryMechanics:
    def test_every_opkind_has_a_spec(self):
        for kind in OpKind:
            assert OPS.spec(kind) is not None

    def test_duplicate_registration_raises(self):
        spec = OPS.spec(OpKind.RELU)
        with pytest.raises(ValueError):
            OPS.register(spec)

    def test_replace_roundtrip(self):
        spec = OPS.spec(OpKind.RELU)
        assert OPS.register(spec, replace=True) is spec
        assert OPS.for_symbol("relu") is spec

    def test_unregister_and_reregister(self):
        spec = OPS.spec(OpKind.ENLARGE)
        OPS.unregister(OpKind.ENLARGE)
        try:
            assert OPS.for_symbol("enlarge") is None
            assert "enlarge" not in OPS.names()
            with pytest.raises(ValueError):
                OPS.unregister(OpKind.ENLARGE)
        finally:
            OPS.register(spec)
        assert OPS.for_symbol("enlarge") is spec

    def test_symbols_roundtrip_through_for_symbol(self):
        for symbol in OPS.symbols():
            spec = OPS.for_symbol(symbol)
            assert spec is not None and symbol in spec.symbols

    def test_spec_is_frozen(self):
        spec = OPS.spec(OpKind.MATMUL)
        with pytest.raises(Exception):
            spec.name = "other"
        assert isinstance(spec, OpSpec)


class TestConcatFamily:
    def test_default_width(self):
        assert OPS.concat_max_inputs == 8
        assert OPS.spec(OpKind.CONCAT).symbols == tuple(f"concat{i}" for i in range(2, 9))

    def test_widening_and_restore(self):
        register_concat(12)
        try:
            assert OPS.concat_max_inputs == 12
            assert "concat11" in OPS.symbols()
            # The widened family shape-infers through the registry.
            parts = [TensorData.tensor((2, 3)) for _ in range(11)]
            out = infer_symbol("concat11", [TensorData.integer(0)] + parts)
            assert out.shape == (22, 3)
        finally:
            register_concat(8)
        assert OPS.concat_max_inputs == 8
        assert OPS.for_symbol("concat11") is None

    def test_op_symbol_validates_width(self):
        with pytest.raises(ValueError):
            OPS.op_symbol(OpKind.CONCAT, num_inputs=1 + OPS.concat_max_inputs + 1)

    def test_widening_changes_config_digest(self):
        from repro.core.config import TensatConfig
        from repro.service.fingerprint import config_digest

        before = config_digest(TensatConfig())
        register_concat(10)
        try:
            widened = config_digest(TensatConfig())
        finally:
            register_concat(8)
        assert config_digest(TensatConfig()) == before
        assert widened != before


class TestStrictSymbolResolution:
    def test_unknown_symbol_raises_in_strict_mode(self):
        with pytest.raises(UnknownOperatorError):
            OPS.resolve_symbol("frobnicate", strict=True)

    def test_unknown_symbol_is_str_in_lenient_mode(self):
        assert OPS.resolve_symbol("frobnicate") == (OpKind.STR, "frobnicate")

    def test_identifier_payloads_stay_str_in_strict_mode(self):
        # `name@dims` identifier payloads and all-integer token strings are
        # genuine string literals, not misspelled operators.
        assert OPS.resolve_symbol("x@8 64", strict=True) == (OpKind.STR, "x@8 64")
        assert OPS.resolve_symbol("1 0", strict=True) == (OpKind.STR, "1 0")

    def test_integers_resolve_to_num(self):
        assert OPS.resolve_symbol("42", strict=True) == (OpKind.NUM, 42)
        assert OPS.resolve_symbol("-7", strict=True) == (OpKind.NUM, -7)

    def test_registered_symbols_resolve(self):
        assert OPS.resolve_symbol("matmul", strict=True) == (OpKind.MATMUL, None)
        assert OPS.resolve_symbol("concat3", strict=True) == (OpKind.CONCAT, None)


class TestHotPathHasNoChain:
    """The acceptance criterion: no per-symbol if/elif dispatch in the
    shapes / flops hot paths -- the chains live only in the test oracle."""

    def test_shapes_module_dispatches_through_registry(self):
        from repro.ir import shapes

        # infer_symbol must be the registry front door, not a local chain.
        assert shapes.infer_symbol.__module__ == "repro.ir.opspec"

    def test_flops_module_dispatches_through_registry(self):
        from repro.costs import flops

        assert flops.op_flops.__module__ == "repro.ir.opspec"
        assert flops.op_bytes.__module__ == "repro.ir.opspec"
