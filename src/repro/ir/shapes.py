"""Shape inference / shape checking for every operator of Table 2.

The per-operator semantics live in :mod:`repro.ir.opspec` -- one
:class:`~repro.ir.opspec.OpSpec` per operator, registered in the
:data:`~repro.ir.opspec.OPS` table, which is the single source of truth
consulted by:

* :class:`repro.ir.graph.GraphBuilder` when constructing model graphs,
* the tensor e-class analysis (:mod:`repro.ir.convert`) during exploration --
  the paper performs shape checking before applying a rewrite at a match
  (Section 4), and
* rewrite-rule preconditions (:mod:`repro.rules.conditions`).

This module remains the historical import path: :func:`infer_symbol` and the
geometry helpers are re-exported from the registry module.  The original
per-symbol if/elif dispatch chain is kept as a test oracle
(``tests/oracles/opspec_chains.py``), pinned verdict-by-verdict against the
registry dispatch by ``tests/test_opspec.py``.

All functions operate on e-graph operator *symbols* (see
:func:`repro.ir.ops.op_symbol`) and :class:`~repro.ir.tensor.TensorData`
children, so that the same code path serves both the concrete IR and the
e-graph.
"""

from __future__ import annotations

from repro.ir.opspec import (  # noqa: F401  (re-exported front door)
    conv_output_hw,
    infer_symbol,
    matmul_output_shape,
    pool_output_hw,
    same_padding_amount,
)

__all__ = [
    "infer_symbol",
    "conv_output_hw",
    "pool_output_hw",
    "matmul_output_shape",
    "same_padding_amount",
]
