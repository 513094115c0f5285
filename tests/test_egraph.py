"""Tests for the e-graph data structure (hash-consing, union, rebuild, analyses)."""

import pytest

from repro.egraph.analysis import ConstantFoldAnalysis, DepthAnalysis
from repro.egraph.egraph import EGraph
from repro.egraph.language import ENode, RecExpr


class TestAdd:
    def test_add_leaf(self):
        eg = EGraph()
        a = eg.add(ENode("a"))
        assert eg.num_eclasses == 1
        assert eg.num_enodes == 1
        assert eg.find(a) == a

    def test_add_is_hash_consed(self):
        eg = EGraph()
        first = eg.add(ENode("a"))
        second = eg.add(ENode("a"))
        assert first == second
        assert eg.num_enodes == 1

    def test_add_compound(self):
        eg = EGraph()
        a = eg.add(ENode("a"))
        b = eg.add(ENode("b"))
        f = eg.add(ENode("f", (a, b)))
        assert eg.num_eclasses == 3
        assert eg.find(f) != eg.find(a)

    def test_add_expr(self):
        eg = EGraph()
        root = eg.add_term("(f (g a) (g a))")
        assert eg.num_eclasses == 3  # a, (g a), (f _ _)
        assert eg.represents(root, RecExpr.parse("(f (g a) (g a))"))

    def test_lookup(self):
        eg = EGraph()
        a = eg.add(ENode("a"))
        assert eg.lookup(ENode("a")) == a
        assert eg.lookup(ENode("missing")) is None


class TestUnion:
    def test_union_merges_classes(self):
        eg = EGraph()
        a = eg.add(ENode("a"))
        b = eg.add(ENode("b"))
        eg.union(a, b)
        assert eg.equivalent(a, b)
        assert eg.num_eclasses == 1
        assert eg.num_enodes == 2

    def test_union_same_class_is_noop(self):
        eg = EGraph()
        a = eg.add(ENode("a"))
        before = eg.num_unions
        eg.union(a, a)
        assert eg.num_unions == before

    def test_congruence_closure_via_rebuild(self):
        # If a == b then f(a) == f(b) after rebuilding.
        eg = EGraph()
        a = eg.add(ENode("a"))
        b = eg.add(ENode("b"))
        fa = eg.add(ENode("f", (a,)))
        fb = eg.add(ENode("f", (b,)))
        assert not eg.equivalent(fa, fb)
        eg.union(a, b)
        eg.rebuild()
        assert eg.equivalent(fa, fb)

    def test_congruence_propagates_upwards(self):
        eg = EGraph()
        a = eg.add(ENode("a"))
        b = eg.add(ENode("b"))
        fa = eg.add(ENode("f", (a,)))
        fb = eg.add(ENode("f", (b,)))
        gfa = eg.add(ENode("g", (fa,)))
        gfb = eg.add(ENode("g", (fb,)))
        eg.union(a, b)
        eg.rebuild()
        assert eg.equivalent(gfa, gfb)

    def test_rebuild_returns_extra_union_count(self):
        eg = EGraph()
        a = eg.add(ENode("a"))
        b = eg.add(ENode("b"))
        eg.add(ENode("f", (a,)))
        eg.add(ENode("f", (b,)))
        eg.union(a, b)
        assert eg.rebuild() == 1

    def test_is_clean(self):
        eg = EGraph()
        a = eg.add(ENode("a"))
        b = eg.add(ENode("b"))
        assert eg.is_clean()
        eg.union(a, b)
        assert not eg.is_clean()
        eg.rebuild()
        assert eg.is_clean()


class TestBirthStamps:
    def test_repair_inherits_stamp_without_burning_counter(self):
        # Regression: _repair_classes used next() as an eagerly evaluated
        # dict.get default, so every repaired parent consumed a birth stamp
        # even when the canonical node inherited one -- making later stamps
        # (and the cycle filter's "newest node" choice) depend on rebuild
        # order.
        eg = EGraph()
        a = eg.add(ENode("a"))
        b = eg.add(ENode("b"))
        fa = eg.add(ENode("f", (a,)))
        eg.add(ENode("f", (b,)))
        eg.union(a, b)
        eg.rebuild()
        # The canonical repaired parent f(find(a)) inherits the stamp of one
        # of the original f-nodes instead of minting a new one.
        canonical = eg.canonicalize(ENode("f", (a,)))
        assert eg._node_birth[canonical] in (2, 3)  # stamps of f(a) / f(b)
        # The counter was not burned during the repair: the next added node
        # gets the next contiguous stamp.
        g = eg.add(ENode("g"))
        assert eg._node_birth[eg.canonicalize(ENode("g"))] == 4

    def test_node_birth_survives_chained_repairs(self):
        eg = EGraph()
        a = eg.add(ENode("a"))
        b = eg.add(ENode("b"))
        fa = eg.add(ENode("f", (a,)))
        fb = eg.add(ENode("f", (b,)))
        gfa = eg.add(ENode("g", (fa,)))
        eg.add(ENode("g", (fb,)))
        eg.union(a, b)
        eg.rebuild()
        assert eg.node_birth(ENode("g", (eg.find(fa),))) >= 0
        # All stamps are within the range the adds produced (6 nodes).
        assert all(stamp < 6 for stamp in eg._node_birth.values())


class TestEnodeCounter:
    def test_counter_tracks_repair_dedup(self):
        eg = EGraph()
        a = eg.add(ENode("a"))
        b = eg.add(ENode("b"))
        eg.add(ENode("f", (a,)))
        eg.add(ENode("f", (b,)))
        assert eg.num_enodes == 4
        eg.union(a, b)
        eg.rebuild()
        # f(a) and f(b) became one canonical node; a and b merged classes.
        assert eg.num_enodes == sum(len(c.nodes) for c in eg.classes()) == 3


class TestRepresents:
    def test_initial_term_is_represented(self):
        eg = EGraph()
        root = eg.add_term("(/ (* a 2) 2)")
        assert eg.represents(root, RecExpr.parse("(/ (* a 2) 2)"))

    def test_rewritten_term_becomes_represented(self):
        eg = EGraph()
        root = eg.add_term("(* a 2)")
        shifted = eg.add_term("(<< a 1)")
        assert not eg.represents(root, RecExpr.parse("(<< a 1)"))
        eg.union(root, shifted)
        eg.rebuild()
        assert eg.represents(root, RecExpr.parse("(<< a 1)"))
        assert eg.represents(root, RecExpr.parse("(* a 2)"))


class TestAnalyses:
    def test_depth_analysis(self):
        eg = EGraph(analysis=DepthAnalysis())
        root = eg.add_term("(f (g a))")
        assert eg.analysis_data(root) == 3

    def test_depth_analysis_merge_takes_min(self):
        eg = EGraph(analysis=DepthAnalysis())
        deep = eg.add_term("(f (g a))")
        shallow = eg.add_term("b")
        eg.union(deep, shallow)
        eg.rebuild()
        assert eg.analysis_data(deep) == 1

    def test_constant_folding(self):
        eg = EGraph(analysis=ConstantFoldAnalysis())
        root = eg.add_term("(+ (* 2 3) 4)")
        assert eg.analysis_data(root) == 10
        # modify() adds the folded constant into the class.
        assert eg.represents(root, RecExpr.parse("10"))

    def test_constant_folding_partial(self):
        eg = EGraph(analysis=ConstantFoldAnalysis())
        root = eg.add_term("(+ x 1)")
        assert eg.analysis_data(root) is None

    def test_rebuild_repairs_classes_created_by_reentrant_modify(self):
        # ConstantFoldAnalysis.modify re-enters the e-graph (add + union of
        # the folded constant) *while the rebuild's analysis wave is in
        # flight*.  The contract (repro.egraph.analysis module docstring):
        # everything created or merged by such reentrant hooks is itself
        # repaired before rebuild() returns.  Regression shape: unioning x
        # with 3 folds (+ x 2) to 5 during the wave, whose modify unions in
        # a fresh "5" class; the outer (* (+ x 2) 4) must still be folded
        # to 20 -- and its own modify's "20" class repaired -- in the same
        # rebuild call.
        eg = EGraph(analysis=ConstantFoldAnalysis())
        plus = eg.add_term("(+ x 2)")
        outer = eg.add_term("(* (+ x 2) 4)")
        assert eg.analysis_data(plus) is None
        assert eg.analysis_data(outer) is None

        eg.union(eg.add_term("x"), eg.add_term("3"))
        eg.rebuild()

        assert eg.analysis_data(eg.find(plus)) == 5
        assert eg.analysis_data(eg.find(outer)) == 20
        # modify's folded constants landed in the right classes.
        assert eg.represents(eg.find(plus), RecExpr.parse("5"))
        assert eg.represents(eg.find(outer), RecExpr.parse("20"))
        # Fixpoint: no class's data improves if we re-make its nodes now --
        # i.e. the rebuild did not drop any repair queued mid-wave.
        for eclass_id, node in eg.enodes():
            data = eg.analysis_data(eg.find(eclass_id))
            remade = eg.analysis.make(eg, eg.canonicalize(node))
            _, changed = eg.analysis.merge(data, remade)
            assert not changed, f"stale analysis data in class {eg.find(eclass_id)}"


class TestExportAndSummary:
    def test_to_dot_contains_classes(self):
        eg = EGraph()
        eg.add_term("(f a b)")
        dot = eg.to_dot()
        assert dot.startswith("digraph")
        assert "cluster_" in dot

    def test_summary_keys(self):
        eg = EGraph()
        eg.add_term("(f a b)")
        summary = eg.summary()
        assert summary == {"eclasses": 3, "enodes": 3, "unions": 0}

    def test_extract_any_returns_represented_term(self):
        eg = EGraph()
        root = eg.add_term("(f (g a))")
        expr = eg.extract_any(root)
        assert str(expr) == "(f (g a))"
