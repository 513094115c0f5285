"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.costs import AnalyticCostModel
from repro.ir.graph import GraphBuilder


@pytest.fixture
def analytic_cost_model():
    return AnalyticCostModel()


@pytest.fixture
def shared_matmul_graph():
    """Two matmuls sharing their left operand, combined by a noop (two outputs)."""
    b = GraphBuilder("shared-matmul")
    x = b.input("x", (8, 64))
    w1 = b.weight("w1", (64, 32))
    w2 = b.weight("w2", (64, 48))
    m1 = b.matmul(x, w1)
    m2 = b.matmul(x, w2)
    return b.finish(outputs=[m1, m2])


@pytest.fixture
def nasrnn_like_graph():
    """A small gate structure with matmul pairs feeding element-wise combinations."""
    b = GraphBuilder("nasrnn-like")
    x = b.input("x", (1, 32))
    h = b.input("h", (1, 16))
    wx1 = b.weight("wx1", (32, 64))
    wh1 = b.weight("wh1", (16, 64))
    wx2 = b.weight("wx2", (32, 64))
    wh2 = b.weight("wh2", (16, 64))
    g1 = b.tanh(b.ewadd(b.matmul(x, wx1), b.matmul(h, wh1)))
    g2 = b.sigmoid(b.ewadd(b.matmul(x, wx2), b.matmul(h, wh2)))
    return b.finish(outputs=[b.ewmul(g1, g2)])
