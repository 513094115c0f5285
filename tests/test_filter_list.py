"""``FilterList.contains`` against the stale-scan oracle.

The filter list re-canonicalises its entries only when ``egraph.num_unions``
moved since its last refresh; otherwise a membership check is one
canonicalisation and one set lookup, and ``as_set`` copies the set as is.
Its verdicts and its set must equal the old per-miss scan's across any
interleaving of filtering, unions and rebuilds.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.filter_list import ScanFilterList

from repro.egraph.cycles import FilterList
from repro.egraph.egraph import EGraph
from repro.egraph.language import ENode


def leaf_egraph():
    eg = EGraph()
    ids = [eg.add(ENode(f"leaf{i}")) for i in range(3)]
    nodes = [ENode("f", (ids[0],)), ENode("f", (ids[1],)), ENode("g", (ids[0], ids[2]))]
    for node in nodes:
        eg.add(node)
    return eg, ids, nodes


class TestVerdictParity:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_verdicts_match_the_stale_scan(self, data):
        eg = EGraph()
        ids = [eg.add(ENode(f"leaf{i}")) for i in range(data.draw(st.integers(1, 4)))]
        nodes = []
        for _ in range(data.draw(st.integers(1, 10))):
            op = data.draw(st.sampled_from(["f", "g"]))
            children = tuple(data.draw(st.sampled_from(ids)) for _ in range(data.draw(st.integers(1, 2))))
            node = ENode(op, children)
            ids.append(eg.add(node))
            nodes.append(node)
        flist, oracle = FilterList(), ScanFilterList()
        steps = st.sampled_from(["filter", "union", "rebuild", "check"])
        for step in data.draw(st.lists(steps, min_size=1, max_size=12)):
            if step == "filter":
                node = data.draw(st.sampled_from(nodes))
                flist.add(eg, node)
                oracle.add(eg, node)
            elif step == "union":
                eg.union(data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids)))
            elif step == "rebuild":
                eg.rebuild()
            # Every step ends with a check of every node ever added, in its
            # original (possibly stale) form.
            for node in nodes:
                assert flist.contains(eg, node) == oracle.contains(eg, node), node
            assert flist.as_set(eg) == {eg.canonicalize(n) for n in oracle._nodes}


class TestRefreshOnlyAfterUnions:
    @staticmethod
    def count_canonicalize(monkeypatch, eg):
        calls = []
        real = eg.canonicalize
        monkeypatch.setattr(eg, "canonicalize", lambda node: calls.append(node) or real(node))
        return calls

    def test_miss_without_union_canonicalizes_once(self, monkeypatch):
        eg, _ids, nodes = leaf_egraph()
        flist = FilterList()
        flist.add(eg, nodes[0])
        flist.add(eg, nodes[2])
        flist.refresh(eg)
        calls = self.count_canonicalize(monkeypatch, eg)
        assert not flist.contains(eg, nodes[1])
        assert len(calls) == 1
        assert flist.contains(eg, nodes[0])
        assert len(calls) == 2

    def test_union_triggers_one_refresh(self, monkeypatch):
        eg, ids, nodes = leaf_egraph()
        flist = FilterList()
        flist.add(eg, nodes[0])
        flist.add(eg, nodes[2])
        assert not flist.contains(eg, nodes[1])
        eg.union(ids[0], ids[1])
        calls = self.count_canonicalize(monkeypatch, eg)
        # (f leaf1) now canonicalises like the filtered (f leaf0).
        assert flist.contains(eg, nodes[1])
        assert len(calls) == len(flist) + 1
        assert flist.contains(eg, nodes[1])
        assert len(calls) == len(flist) + 2
