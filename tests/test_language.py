"""Tests for ENode and RecExpr."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.egraph.language import ENode, RecExpr

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestENode:
    def test_leaf(self):
        node = ENode("x")
        assert node.is_leaf()
        assert node.arity == 0

    def test_children(self):
        node = ENode("ewadd", (0, 1))
        assert not node.is_leaf()
        assert node.arity == 2

    def test_hashable_and_equal(self):
        assert ENode("f", (1, 2)) == ENode("f", (1, 2))
        assert hash(ENode("f", (1, 2))) == hash(ENode("f", (1, 2)))
        assert ENode("f", (1, 2)) != ENode("f", (2, 1))

    def test_map_children(self):
        node = ENode("f", (1, 2))
        mapped = node.map_children(lambda c: c + 10)
        assert mapped == ENode("f", (11, 12))

    def test_map_children_leaf_is_identity(self):
        leaf = ENode("x")
        assert leaf.map_children(lambda c: c + 1) is leaf

    def test_matches_signature(self):
        node = ENode("f", (1, 2))
        assert node.matches_signature("f", 2)
        assert not node.matches_signature("f", 1)
        assert not node.matches_signature("g", 2)


class TestENodeHash:
    def test_hash_is_the_field_tuple_hash(self):
        # The cached value must equal what a frozen dataclass computed, so
        # set and dict iteration orders are unchanged by the caching.
        node = ENode("matmul", (3, 1, 4))
        assert hash(node) == hash(("matmul", (3, 1, 4)))

    def test_immutable(self):
        node = ENode("f", (1,))
        with pytest.raises(AttributeError):
            node.op = "g"

    def test_unpickled_in_another_hash_seed_is_a_dict_key(self):
        # str hashes are salted per process: a pickled cached hash would be
        # wrong in a process with another PYTHONHASHSEED.
        node = ENode("ewadd", (0, 1))
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        script = (
            "import pickle, sys\n"
            "from repro.egraph.language import ENode\n"
            "node = pickle.loads(sys.stdin.buffer.read())\n"
            "table = {ENode('ewadd', (0, 1)): 'found'}\n"
            "print(table.get(node), hash(node) == hash((node.op, node.children)))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
        out = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps(node),
            capture_output=True,
            env=env,
            check=True,
        )
        assert out.stdout.decode().split() == ["found", "True"]


class TestRecExpr:
    def test_parse_and_str_roundtrip(self):
        text = "(relu (matmul 0 x w))"
        expr = RecExpr.parse(text)
        assert str(expr) == text

    def test_root_is_last(self):
        expr = RecExpr.parse("(f (g a) b)")
        assert expr.nodes[expr.root].op == "f"

    def test_children_precede_parents(self):
        expr = RecExpr.parse("(f (g a) (h b))")
        for i, node in enumerate(expr.nodes):
            assert all(c < i for c in node.children)

    def test_hash_consing_of_shared_subterms(self):
        # (f (g a) (g a)): the (g a) subterm should appear exactly once.
        expr = RecExpr.parse("(f (g a) (g a))")
        g_nodes = [n for n in expr.nodes if n.op == "g"]
        assert len(g_nodes) == 1

    def test_add_rejects_forward_reference(self):
        expr = RecExpr()
        with pytest.raises(ValueError):
            expr.add(ENode("f", (0,)))

    def test_empty_has_no_root(self):
        with pytest.raises(ValueError):
            RecExpr().root

    def test_subterm_size(self):
        expr = RecExpr.parse("(f (g a) (g a))")
        assert expr.subterm_size() == 3  # f, g, a

    def test_ops(self):
        expr = RecExpr.parse("(f a b)")
        assert set(expr.ops()) == {"f", "a", "b"}

    def test_map_values_fold(self):
        expr = RecExpr.parse("(+ (+ 1 2) 3)")

        def fold(node, child_values):
            if not node.children:
                return int(node.op)
            return sum(child_values)

        assert expr.map_values(fold) == 6

    def test_to_sexpr_subterm(self):
        expr = RecExpr.parse("(f (g a) b)")
        g_index = next(i for i, n in enumerate(expr.nodes) if n.op == "g")
        assert expr.to_sexpr(g_index) == ["g", "a"]

    def test_quoted_atoms_roundtrip(self):
        text = '(input "x@8 64")'
        assert str(RecExpr.parse(text)) == text
