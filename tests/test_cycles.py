"""Tests for cycle detection and the two cycle-filtering strategies."""

from oracles.cycles import descendants_map, would_create_cycle
from repro.egraph.cycles import (
    EfficientCycleFilter,
    FilterList,
    NoCycleFilter,
    VanillaCycleFilter,
    class_graph_pass,
    find_cycles,
    reaches,
    resolve_cycles,
)
from repro.egraph.egraph import EGraph
from repro.egraph.language import ENode
from repro.egraph.multipattern import MultiPatternRewrite
from repro.egraph.runner import Runner, RunnerLimits, make_cycle_filter


def figure3_egraph():
    """Reproduce the paper's Figure 3: applying the matmul merge rule to
    ``matmul(X, matmul(X, Y))`` creates a cycle at the e-class level."""
    eg = EGraph()
    inner = eg.add_term("(matmul 0 x y)")
    root = eg.add_term("(matmul 0 x (matmul 0 x y))")
    rule = MultiPatternRewrite.parse(
        "matmul-merge",
        sources=["(matmul ?a ?x ?w1)", "(matmul ?a ?x ?w2)"],
        targets=[
            "(split0 (split 1 (matmul ?a ?x (concat2 1 ?w1 ?w2))))",
            "(split1 (split 1 (matmul ?a ?x (concat2 1 ?w1 ?w2))))",
        ],
    )
    return eg, inner, root, rule


class TestReachability:
    def test_descendants_map_simple(self):
        eg = EGraph()
        root = eg.add_term("(f (g a) b)")
        desc = descendants_map(eg)
        a = eg.add_term("a")
        g = eg.add_term("(g a)")
        assert a in desc[eg.find(root)]
        assert g in desc[eg.find(root)]
        assert desc[eg.find(a)] == set()
        position, bits, acyclic = class_graph_pass(eg)
        assert acyclic
        for cls, reached in desc.items():
            assert bits[position[cls]] == sum(1 << position[d] for d in reached)

    def test_reaches(self):
        eg = EGraph()
        root = eg.add_term("(f (g a) b)")
        a = eg.add_term("a")
        b = eg.add_term("b")
        assert reaches(eg, root, a)
        assert not reaches(eg, a, root)
        assert not reaches(eg, a, b)

    def test_would_create_cycle(self):
        eg = EGraph()
        root = eg.add_term("(f (g a) b)")
        a = eg.add_term("a")
        desc = descendants_map(eg)
        # Adding to class `a` a node whose leaf is `root` would create a cycle.
        assert would_create_cycle(eg, [a], [root], desc)
        # Adding to `root` a node over `a` is fine.
        assert not would_create_cycle(eg, [root], [a], desc)
        cycle_filter = EfficientCycleFilter()
        cycle_filter.begin_iteration(eg)
        assert not cycle_filter.allows(eg, [a], [root])
        assert cycle_filter.allows(eg, [root], [a])

    def test_filtered_nodes_are_ignored(self):
        eg = EGraph()
        root = eg.add_term("(f a)")
        a = eg.add_term("a")
        flist = FilterList()
        # Filter the only f-node: root no longer reaches a.
        f_node = ENode("f", (eg.find(a),))
        flist.add(eg, f_node)
        assert not reaches(eg, root, a, flist)


class TestCycleDetection:
    def test_acyclic_graph_has_no_cycles(self):
        eg = EGraph()
        eg.add_term("(f (g a) (h a))")
        assert find_cycles(eg) == []

    def test_figure3_cycle_is_detected(self):
        eg, inner, root, rule = figure3_egraph()
        combos = rule.search(eg)
        for combo in combos:
            rule.apply_match(eg, combo)
        eg.rebuild()
        cycles = find_cycles(eg)
        assert cycles, "applying the merge rule to matmul(x, matmul(x, y)) must create a cycle"

    def test_resolve_cycles_filters_newest_node(self):
        eg, inner, root, rule = figure3_egraph()
        for combo in rule.search(eg):
            rule.apply_match(eg, combo)
        eg.rebuild()
        flist = FilterList()
        resolved = resolve_cycles(eg, flist, find_cycles(eg))
        assert resolved >= 1
        assert len(flist) >= 1
        # After enough resolutions the graph (minus filtered nodes) is acyclic.
        for _ in range(10):
            cycles = find_cycles(eg, flist)
            if not cycles:
                break
            resolve_cycles(eg, flist, cycles)
        assert find_cycles(eg, flist) == []


class TestFilters:
    def run_with_filter(self, kind):
        eg, inner, root, rule = figure3_egraph()
        cycle_filter = make_cycle_filter(kind)
        runner = Runner(
            eg,
            rewrites=[],
            multi_rewrites=[rule],
            limits=RunnerLimits(iter_limit=2, k_multi=2),
            cycle_filter=cycle_filter,
        )
        runner.run()
        return eg, cycle_filter

    def test_efficient_filter_leaves_acyclic_egraph(self):
        eg, cycle_filter = self.run_with_filter("efficient")
        assert find_cycles(eg, cycle_filter.filter_list) == []

    def test_vanilla_filter_leaves_acyclic_egraph(self):
        eg, cycle_filter = self.run_with_filter("vanilla")
        assert find_cycles(eg, cycle_filter.filter_list) == []

    def test_no_filter_can_leave_cycles(self):
        eg, cycle_filter = self.run_with_filter("none")
        assert isinstance(cycle_filter, NoCycleFilter)
        assert find_cycles(eg, cycle_filter.filter_list) != []

    def test_make_cycle_filter_rejects_unknown(self):
        import pytest

        with pytest.raises(ValueError):
            make_cycle_filter("bogus")

    def test_factory_types(self):
        assert isinstance(make_cycle_filter("vanilla"), VanillaCycleFilter)
        assert isinstance(make_cycle_filter("efficient"), EfficientCycleFilter)


class TestEdgeCases:
    """Cycle shapes the happy paths above don't exercise: self-loops,
    2-cycles created by unions, and extraction straight off a filtered
    cyclic fixture."""

    def test_self_loop_is_detected_and_resolved(self):
        # union(a, f(a)) puts the f-node in its own child class: a self-loop.
        eg = EGraph()
        a = eg.add_term("a")
        f = eg.add_term("(f a)")
        eg.union(a, f)
        eg.rebuild()
        cycles = find_cycles(eg)
        assert cycles, "a self-loop is a cycle"
        flist = FilterList()
        for _ in range(10):
            remaining = find_cycles(eg, flist)
            if not remaining:
                break
            resolve_cycles(eg, flist, remaining)
        assert find_cycles(eg, flist) == []
        assert len(flist) >= 1

    def test_self_loop_extraction_picks_the_acyclic_candidate(self):
        from repro.egraph.extraction.greedy import GreedyExtractor
        from repro.egraph.extraction.ilp import ILPExtractor

        eg = EGraph()
        a = eg.add_term("a")
        f = eg.add_term("(f a)")
        eg.union(a, f)
        eg.rebuild()
        root = eg.add(ENode("g", (eg.find(a),)))
        nc = lambda enode, egraph: 1.0  # noqa: E731
        greedy = GreedyExtractor(nc).extract(eg, root)
        ilp = ILPExtractor(nc, with_cycle_constraints=True).extract(eg, root)
        assert str(greedy.expr) == "(g a)"
        assert str(ilp.expr) == "(g a)"

    def test_two_cycle_through_unions(self):
        # union(a, f(b)) and union(b, g(a)): class(a) -> class(b) -> class(a).
        eg = EGraph()
        a = eg.add_term("a")
        b = eg.add_term("b")
        fb = eg.add_term("(f b)")
        ga = eg.add_term("(g a)")
        eg.union(a, fb)
        eg.union(b, ga)
        eg.rebuild()
        cycles = find_cycles(eg)
        assert cycles
        assert reaches(eg, a, b) and reaches(eg, b, a)
        flist = FilterList()
        for _ in range(10):
            remaining = find_cycles(eg, flist)
            if not remaining:
                break
            resolve_cycles(eg, flist, remaining)
        assert find_cycles(eg, flist) == []

    def test_filter_then_extract_on_figure3(self):
        # The full paper pipeline on the known cyclic fixture: resolve the
        # cycles into a filter list, then extract without cycle constraints --
        # the filter list alone must guarantee an acyclic selection.
        from repro.egraph.extraction.ilp import ILPExtractor

        eg, inner, root, rule = figure3_egraph()
        for combo in rule.search(eg):
            rule.apply_match(eg, combo)
        eg.rebuild()
        flist = FilterList()
        for _ in range(10):
            remaining = find_cycles(eg, flist)
            if not remaining:
                break
            resolve_cycles(eg, flist, remaining)
        assert find_cycles(eg, flist) == []
        nc = lambda enode, egraph: 1.0  # noqa: E731
        result = ILPExtractor(
            nc, with_cycle_constraints=False, filter_list=flist
        ).extract(eg, root)
        # build_recexpr raises on a cyclic selection, so a term proves acyclicity.
        assert result.expr.subterm_size() >= 3

    def test_would_create_cycle_self_reference(self):
        eg = EGraph()
        a = eg.add_term("a")
        desc = descendants_map(eg)
        # A node in class(a) whose child is class(a) itself: immediate self-loop.
        assert would_create_cycle(eg, [a], [a], desc)
        cycle_filter = EfficientCycleFilter()
        cycle_filter.begin_iteration(eg)
        assert not cycle_filter.allows(eg, [a], [a])


class TestFilterList:
    def test_contains_after_union(self):
        eg = EGraph()
        a = eg.add(ENode("a"))
        b = eg.add(ENode("b"))
        f = eg.add(ENode("f", (a,)))
        flist = FilterList()
        flist.add(eg, ENode("f", (a,)))
        eg.union(a, b)
        eg.rebuild()
        assert flist.contains(eg, ENode("f", (eg.find(a),)))

    def test_refresh_is_idempotent(self):
        eg = EGraph()
        a = eg.add(ENode("a"))
        flist = FilterList()
        flist.add(eg, ENode("g", (a,)))
        flist.refresh(eg)
        flist.refresh(eg)
        assert len(flist) == 1
