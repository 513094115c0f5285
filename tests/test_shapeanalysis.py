"""Tests for the e-class shape analysis (interned per-e-class tensor facts).

Covers the interning contract (structurally equal facts are one object), the
``merge`` conflict behaviour, the repair propagation through the e-graph, a
hypothesis property pinning the analysis data to the on-demand inference
oracle after arbitrary add/union/rebuild sequences, and the process-wide
inference cache (:func:`infer_fact`) against direct ``infer_symbol``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.egraph.egraph import EGraph
from repro.egraph.language import RecExpr
from repro.egraph.shapeanalysis import (
    TensorShapeAnalysis,
    infer_fact,
    intern_data,
    intern_table_size,
)
from repro.ir.opspec import OPS
from repro.ir.shapes import infer_symbol
from repro.ir.tensor import ShapeError, TensorData

# --------------------------------------------------------------------- #
# Strategies: ewadd/ewmul trees over shaped input leaves.  Mismatched
# shapes are deliberately reachable (ewadd of (8, 8) and (4, 4)), so the
# strategies exercise the invalid-data paths too.
# --------------------------------------------------------------------- #

SHAPES = ((8, 8), (4, 4), (2, 6))


def _leaf(name, shape):
    dims = " ".join(str(d) for d in shape)
    return f'(input "{name}@{dims}")'


_leaves = st.builds(_leaf, st.sampled_from("abcd"), st.sampled_from(SHAPES))


def tensor_terms():
    return st.recursive(
        _leaves,
        lambda children: st.builds(
            lambda op, left, right: f"({op} {left} {right})",
            st.sampled_from(("ewadd", "ewmul")),
            children,
            children,
        ),
        max_leaves=8,
    )


def _oracle(expr: RecExpr) -> TensorData:
    """On-demand bottom-up inference over a term -- the executable spec."""
    vals = []
    for node in expr.nodes:
        children = [vals[c] for c in node.children]
        try:
            vals.append(infer_symbol(node.op, children))
        except ShapeError as exc:
            vals.append(TensorData.invalid(str(exc)))
    return vals[expr.root]


def _assert_fixpoint(eg: EGraph) -> None:
    """Every e-class's data is interned and absorbs a re-make of its nodes."""
    analysis = eg.analysis
    for eclass_id, node in eg.enodes():
        data = eg.analysis_data(eg.find(eclass_id))
        assert data is not None
        assert intern_data(data) is data
        remade = analysis.make(eg, eg.canonicalize(node))
        merged, changed = analysis.merge(data, remade)
        assert not changed, (
            f"class {eg.find(eclass_id)} data {data} is stale: "
            f"re-making {node} gives {remade} (merged: {merged})"
        )


# --------------------------------------------------------------------- #
# Interning
# --------------------------------------------------------------------- #


class TestInterning:
    def test_structurally_equal_facts_are_one_object(self):
        a = TensorData.tensor((8, 8))
        b = TensorData.tensor((8, 8))
        assert a is not b
        assert intern_data(a) is intern_data(b)

    def test_interning_is_idempotent(self):
        a = intern_data(TensorData.tensor((3, 5)))
        assert intern_data(a) is a

    def test_tuple_parts_are_interned_too(self):
        t1 = TensorData.tuple_of((TensorData.tensor((2, 3)), TensorData.tensor((4, 1))))
        t2 = TensorData.tuple_of((TensorData.tensor((2, 3)), TensorData.tensor((4, 1))))
        c1, c2 = intern_data(t1), intern_data(t2)
        assert c1 is c2
        for part in c1.parts:
            assert intern_data(part) is part

    def test_table_only_grows(self):
        before = intern_table_size()
        intern_data(TensorData.tensor((before + 101, 7)))
        after = intern_table_size()
        assert after == before + 1
        intern_data(TensorData.tensor((before + 101, 7)))
        assert intern_table_size() == after


# --------------------------------------------------------------------- #
# merge()
# --------------------------------------------------------------------- #


class TestMerge:
    def test_strict_raises_on_shape_conflict(self):
        analysis = TensorShapeAnalysis(strict=True)
        with pytest.raises(ShapeError, match="different shapes"):
            analysis.merge(TensorData.tensor((8, 8)), TensorData.tensor((4, 4)))

    def test_nonstrict_keeps_survivor_and_counts_conflicts(self):
        analysis = TensorShapeAnalysis()
        a, b = TensorData.tensor((8, 8)), TensorData.tensor((4, 4))
        merged, changed = analysis.merge(a, b)
        assert merged is intern_data(a)
        assert not changed
        assert analysis.n_conflicts == 1
        assert analysis.last_conflict == (intern_data(a), intern_data(b))
        # The conflict counter keeps accumulating.
        analysis.merge(a, b)
        assert analysis.n_conflicts == 2

    def test_valid_data_preferred_over_invalid(self):
        analysis = TensorShapeAnalysis()
        invalid = TensorData.invalid("bad operand")
        valid = TensorData.tensor((8, 8))
        merged, changed = analysis.merge(invalid, valid)
        assert merged is intern_data(valid) and changed
        merged, changed = analysis.merge(valid, invalid)
        assert merged is intern_data(valid) and not changed
        assert analysis.n_conflicts == 0

    def test_split_records_unioned(self):
        a = TensorData.tensor((8, 8)).with_split(0, (4, 4))
        b = TensorData.tensor((8, 8)).with_split(1, (2, 6))
        merged, changed = TensorShapeAnalysis().merge(a, b)
        assert changed
        assert merged.split_sizes_for_axis(0) == (4, 4)
        assert merged.split_sizes_for_axis(1) == (2, 6)
        assert intern_data(merged) is merged

    def test_merge_results_are_interned(self):
        analysis = TensorShapeAnalysis()
        merged, _ = analysis.merge(TensorData.tensor((9, 9)), TensorData.tensor((9, 9)))
        assert intern_data(merged) is merged
        merged, _ = analysis.merge(None, TensorData.tensor((9, 9)))
        assert intern_data(merged) is merged


# --------------------------------------------------------------------- #
# Repair propagation through the e-graph
# --------------------------------------------------------------------- #


class TestAnalysisRepair:
    def test_union_valid_into_invalid_repairs_parents(self):
        # (ewadd a(4,4) b(8,8)) is shape-invalid, and so is its relu parent.
        # Unioning the ewadd class with a valid (8, 8) class must propagate
        # the now-valid fact to the parent -- in *either* union direction
        # (the loser-side direction regressed once: when the winner already
        # held the merged data, the loser's parents were never re-made).
        eg = EGraph(analysis=TensorShapeAnalysis())
        bad = eg.add_term('(ewadd (input "a@4 4") (input "b@8 8"))')
        parent = eg.add_term('(relu (ewadd (input "a@4 4") (input "b@8 8")))')
        assert not eg.analysis_data(bad).is_valid
        assert not eg.analysis_data(parent).is_valid

        good = eg.add_term('(input "c@8 8")')
        eg.union(bad, good)
        eg.rebuild()

        assert eg.analysis_data(eg.find(bad)).shape == (8, 8)
        assert eg.analysis_data(eg.find(parent)).is_valid
        assert eg.analysis_data(eg.find(parent)).shape == (8, 8)
        _assert_fixpoint(eg)

    def test_chain_of_parents_repaired_transitively(self):
        eg = EGraph(analysis=TensorShapeAnalysis())
        inner = eg.add_term('(ewadd (input "a@4 4") (input "b@8 8"))')
        outer = eg.add_term(
            '(ewmul (relu (ewadd (input "a@4 4") (input "b@8 8"))) (input "d@8 8"))'
        )
        assert not eg.analysis_data(outer).is_valid
        eg.union(inner, eg.add_term('(input "c@8 8")'))
        eg.rebuild()
        assert eg.analysis_data(eg.find(outer)).is_valid
        _assert_fixpoint(eg)


# --------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------- #


class TestProperties:
    @given(tensor_terms())
    @settings(max_examples=60, deadline=None)
    def test_analysis_data_matches_inference_oracle(self, term):
        eg = EGraph(analysis=TensorShapeAnalysis())
        expr = RecExpr.parse(term)
        root = eg.add_expr(expr)
        data = eg.analysis_data(root)
        expected = _oracle(expr)
        assert data.is_valid == expected.is_valid
        if expected.is_valid:
            assert data == intern_data(expected)
        _assert_fixpoint(eg)

    @given(
        st.lists(tensor_terms(), min_size=2, max_size=4),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_fixpoint_and_interning_after_random_unions(self, terms, rnd):
        eg = EGraph(analysis=TensorShapeAnalysis())
        roots = [eg.add_expr(RecExpr.parse(t)) for t in terms]
        for _ in range(len(roots) * 2):
            eg.union(rnd.choice(roots), rnd.choice(roots))
            if rnd.random() < 0.5:
                eg.rebuild()
        eg.rebuild()
        _assert_fixpoint(eg)


# --------------------------------------------------------------------- #
# The inference cache: random (op, fact tuple) pairs.  Shapes come from a
# small pool so that many draws type-check (ewadd of equal shapes, matmul
# of (2, 3) by (3, 2), ...) and many do not.
# --------------------------------------------------------------------- #

_FACT_SHAPES = ((2, 3), (3, 2), (2, 2), (3,), (1, 2, 3, 3), (2, 2, 3, 3), (2, 3, 4, 4))


def _tensor_facts():
    return st.builds(
        TensorData.tensor,
        st.sampled_from(_FACT_SHAPES),
        from_weights=st.booleans(),
    )


_facts = st.one_of(
    _tensor_facts(),
    st.builds(TensorData.integer, st.integers(min_value=0, max_value=3)),
    st.builds(TensorData.string, st.sampled_from(["x", "SAME", "VALID"])),
    st.just(TensorData.invalid("operand")),
    st.builds(lambda parts: TensorData.tuple_of(tuple(parts)), st.lists(_tensor_facts(), min_size=2, max_size=2)),
)
_symbols = st.sampled_from(sorted(OPS.symbols()) + ["3", "name"])


def _direct(op, children):
    """The uncached reference: infer, intern, shape errors as invalid facts."""
    try:
        return intern_data(infer_symbol(op, children))
    except ShapeError as exc:
        return intern_data(TensorData.invalid(str(exc)))


class TestInferenceCache:
    @given(_symbols, st.lists(_facts, max_size=5), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_direct_inference(self, op, children, interned):
        if interned:
            children = [intern_data(c) for c in children]
        try:
            expected = _direct(op, children)
        except Exception as exc:  # not a shape error: must propagate unchanged
            with pytest.raises(type(exc)):
                infer_fact(op, children)
            return
        first = infer_fact(op, children)
        assert first is expected
        assert infer_fact(op, children) is first
        # Equal but distinct operand objects give the same interned fact.
        copies = [TensorData(**{f: getattr(c, f) for f in c.__dataclass_fields__}) for c in children]
        assert infer_fact(op, copies) is first

    def test_shape_error_is_an_interned_invalid_fact(self):
        a = intern_data(TensorData.tensor((8, 8)))
        b = intern_data(TensorData.tensor((4, 4)))
        data = infer_fact("ewadd", [a, b])
        assert not data.is_valid
        assert data is intern_data(data)
        with pytest.raises(ShapeError) as info:
            infer_symbol("ewadd", [a, b])
        assert data.value == str(info.value)

    def test_make_uses_the_shared_cache(self):
        eg = EGraph(analysis=TensorShapeAnalysis())
        root = eg.add_expr(RecExpr.parse(f"(ewadd {_leaf('a', (8, 8))} {_leaf('b', (8, 8))})"))
        leaf = eg.analysis_data(eg.add_expr(RecExpr.parse(_leaf("a", (8, 8)))))
        assert eg.analysis_data(root) is infer_fact("ewadd", [leaf, leaf])
