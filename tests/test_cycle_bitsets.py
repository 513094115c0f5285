"""The efficient cycle filter's bitset pass against the descendants-map oracle.

``class_graph_pass`` replaced two whole-graph walks per iteration -- the
descendants map at the start and the collecting DFS at the end -- with one.
Its bitsets must give the old pre-filter's verdict for every (matched
class, leaf) pair, its acyclicity flag must agree with ``find_cycles``, and
the filter must recompute the bitsets whenever the e-graph or the filter
list changed since the pass that made them.

``ClassGraph`` builds the edge lists once per ``end_iteration`` and reruns
one DFS per resolve round.  That DFS must return the collecting DFS's cycle
list (``tests/oracles/cycles.py``), order included, and ``class_graph_pass``'s
bitsets on an acyclic graph, and ``end_iteration`` must resolve exactly
what the old pass -> find -> resolve loop resolved.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.cycles import descendants_map, resolve_loop, would_create_cycle
from oracles.cycles import find_cycles as find_cycles_reference
from repro.egraph import cycles
from repro.egraph.cycles import (
    ClassGraph,
    EfficientCycleFilter,
    FilterList,
    class_graph_pass,
    find_cycles,
)
from repro.egraph.egraph import EGraph
from repro.egraph.language import ENode
from repro.egraph.rewrite import Rewrite
from repro.egraph.runner import Runner, RunnerLimits


@st.composite
def egraphs(draw):
    """A random e-graph with unions (which may close cycles) and a filter list."""
    eg = EGraph()
    ids = [eg.add(ENode(f"leaf{i}")) for i in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 14))):
        op = draw(st.sampled_from(["f", "g", "h"]))
        arity = draw(st.integers(1, 3))
        children = tuple(draw(st.sampled_from(ids)) for _ in range(arity))
        ids.append(eg.add(ENode(op, children)))
    for _ in range(draw(st.integers(0, 4))):
        eg.union(draw(st.sampled_from(ids)), draw(st.sampled_from(ids)))
    eg.rebuild()
    flist = FilterList()
    nodes = [node for _cls, node in eg.enodes()]
    for node in draw(st.lists(st.sampled_from(nodes), max_size=3)):
        flist.add(eg, node)
    return eg, flist


class TestBitsetParity:
    @settings(max_examples=150, deadline=None)
    @given(egraphs())
    def test_verdict_matches_descendants_map(self, case):
        eg, flist = case
        desc = descendants_map(eg, flist)
        cycle_filter = EfficientCycleFilter()
        cycle_filter.filter_list = flist
        cycle_filter.begin_iteration(eg)
        classes = eg.eclass_ids()
        for m in classes:
            for leaf in classes:
                expected = not would_create_cycle(eg, [m], [leaf], desc)
                assert cycle_filter.allows(eg, [m], [leaf]) == expected, (m, leaf)

    @settings(max_examples=150, deadline=None)
    @given(egraphs())
    def test_acyclicity_matches_find_cycles(self, case):
        eg, flist = case
        _position, _bits, acyclic = class_graph_pass(eg, flist)
        assert acyclic == (not find_cycles(eg, flist))

    @settings(max_examples=60, deadline=None)
    @given(egraphs())
    def test_end_iteration_leaves_acyclic_graph(self, case):
        eg, flist = case
        cycle_filter = EfficientCycleFilter()
        cycle_filter.filter_list = flist
        cycle_filter.end_iteration(eg)
        assert find_cycles(eg, flist) == []


def copy_filter_list(egraph, flist):
    copy = FilterList()
    for node in flist:
        copy.add(egraph, node)
    return copy


class TestClassGraphParity:
    @settings(max_examples=200, deadline=None)
    @given(egraphs())
    def test_dfs_returns_reference_cycles_in_order(self, case):
        eg, flist = case
        _bits, found = ClassGraph(eg, flist).dfs()
        assert found == find_cycles_reference(eg, flist)
        assert find_cycles(eg, flist) == found

    @settings(max_examples=200, deadline=None)
    @given(egraphs())
    def test_bits_equal_class_graph_pass_when_acyclic(self, case):
        eg, flist = case
        graph = ClassGraph(eg, flist)
        bits, found = graph.dfs()
        position, expected_bits, acyclic = class_graph_pass(eg, flist)
        assert acyclic == (not found)
        if acyclic:
            assert graph.position == position
            assert bits == expected_bits

    @settings(max_examples=150, deadline=None)
    @given(egraphs())
    def test_end_iteration_resolves_like_the_reference_loop(self, case):
        eg, flist = case
        reference = copy_filter_list(eg, flist)
        expected = resolve_loop(eg, reference)
        cycle_filter = EfficientCycleFilter()
        cycle_filter.filter_list = flist
        assert cycle_filter.end_iteration(eg) == expected
        assert set(flist) == set(reference)
        # The bitsets left for the next iteration are the exact ones.
        position, bits, acyclic = class_graph_pass(eg, flist)
        assert acyclic
        cycle_filter.begin_iteration(eg)
        assert (cycle_filter._position, cycle_filter._bits) == (position, bits)

    def test_resolve_rounds_build_the_edge_lists_once(self, monkeypatch):
        """A graph that needs two resolve rounds builds one ClassGraph."""
        eg = EGraph()
        a, b, c = (eg.add(ENode(leaf)) for leaf in "xyz")
        # Classes A -f-> B -g-> C -h-> A and A -k-> C.  The first round
        # reports the loop through f, g and h and filters f, its newest
        # e-node; the loop through k and h shows only in the second round.
        eg.union(c, eg.add(ENode("h", (a,))))
        eg.union(b, eg.add(ENode("g", (c,))))
        eg.union(a, eg.add(ENode("f", (b,))))
        eg.union(a, eg.add(ENode("k", (c,))))
        eg.rebuild()
        reference = FilterList()
        expected = resolve_loop(eg, reference)

        builds, rounds = [], []
        real_init, real_dfs = ClassGraph.__init__, ClassGraph.dfs

        def counted_init(self, egraph, filter_list=None):
            builds.append(1)
            real_init(self, egraph, filter_list)

        def counted_dfs(self):
            bits, found = real_dfs(self)
            rounds.append(len(found))
            return bits, found

        monkeypatch.setattr(ClassGraph, "__init__", counted_init)
        monkeypatch.setattr(ClassGraph, "dfs", counted_dfs)
        cycle_filter = EfficientCycleFilter()
        assert cycle_filter.end_iteration(eg) == expected == 2
        assert rounds == [1, 1, 0]
        assert len(builds) == 1
        assert set(cycle_filter.filter_list) == set(reference)


class TestBitsetReuse:
    """The bitsets survive from one iteration's end to the next one's start
    only while the e-graph and the filter list stay as the pass saw them."""

    @staticmethod
    def record_passes(monkeypatch):
        """Log, per class-graph walk (a bitset pass or a ``ClassGraph``
        build), the filter method that asked for it."""
        passes, phase = [], []
        real_pass = cycles.class_graph_pass
        real_init = ClassGraph.__init__

        def counted(egraph, filter_list=None):
            passes.append(phase[-1] if phase else None)
            return real_pass(egraph, filter_list)

        def counted_init(self, egraph, filter_list=None):
            passes.append(phase[-1] if phase else None)
            real_init(self, egraph, filter_list)

        monkeypatch.setattr(cycles, "class_graph_pass", counted)
        monkeypatch.setattr(ClassGraph, "__init__", counted_init)
        for name in ("begin_iteration", "end_iteration"):
            real = getattr(EfficientCycleFilter, name)

            def wrapped(self, egraph, _real=real, _name=name):
                phase.append(_name)
                try:
                    return _real(self, egraph)
                finally:
                    phase.pop()

            monkeypatch.setattr(EfficientCycleFilter, name, wrapped)
        return passes

    @staticmethod
    def runner(eg):
        # (f a) -> (g (f a)) closes a self-loop that the first iteration
        # resolves; the second iteration adds nothing new.
        rule = Rewrite.parse("wrap", "(f ?x)", "(g (f ?x))")
        return Runner(
            eg,
            rewrites=[rule],
            limits=RunnerLimits(iter_limit=10, node_limit=10_000),
            cycle_filter=EfficientCycleFilter(),
        )

    def test_unchanged_egraph_reuses_bitsets(self, monkeypatch):
        eg = EGraph()
        eg.add_term("(f a)")
        runner = self.runner(eg)
        passes = self.record_passes(monkeypatch)
        first = runner.step()
        assert first.n_cycles_resolved == 1
        assert passes[0] == "begin_iteration"  # no bitsets yet
        del passes[:]
        runner.step()
        # Nothing changed since the last pass: neither end of the
        # iteration walks the class graph again.
        assert passes == []

    def test_mutation_between_steps_recomputes_bitsets(self, monkeypatch):
        eg = EGraph()
        eg.add_term("(f a)")
        runner = self.runner(eg)
        passes = self.record_passes(monkeypatch)
        runner.step()
        del passes[:]

        # Outside the runner: b now reaches class(f a).  A stale bitset
        # would still let a rewrite hang b below class(f a).
        fa = eg.lookup(ENode("f", (eg.lookup(ENode("a")),)))
        b = eg.add(ENode("b"))
        eg.union(b, eg.add(ENode("h", (fa,))))
        eg.rebuild()

        runner.step()
        assert passes.count("begin_iteration") == 1
        desc = descendants_map(eg, runner.cycle_filter.filter_list)
        fa, b = eg.find(fa), eg.find(b)
        assert fa in desc[b]
        assert not runner.cycle_filter.allows(eg, [fa], [b])
        assert find_cycles(eg, runner.cycle_filter.filter_list) == []

    def test_filter_list_growth_recomputes_bitsets(self, monkeypatch):
        eg = EGraph()
        root = eg.add_term("(f a)")
        a = eg.lookup(ENode("a"))
        cycle_filter = EfficientCycleFilter()
        passes = self.record_passes(monkeypatch)
        cycle_filter.begin_iteration(eg)
        assert not cycle_filter.allows(eg, [a], [root])
        cycle_filter.begin_iteration(eg)
        assert len(passes) == 1
        # Filtering the only f-node cuts root -> a.
        cycle_filter.filter_list.add(eg, ENode("f", (a,)))
        cycle_filter.begin_iteration(eg)
        assert len(passes) == 2
        assert cycle_filter.allows(eg, [a], [root])
