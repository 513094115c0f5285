"""Per-operator FLOP and byte accounting.

These functions compute the arithmetic work and memory traffic of a single
operator from its operands' metadata.  They are deliberately simple: the cost
model only needs to rank graphs consistently, not predict absolute runtimes.

The per-operator arithmetic lives on each operator's
:class:`~repro.ir.opspec.OpSpec` (its ``flops`` / ``op_bytes`` fields);
:func:`op_flops` and :func:`op_bytes` dispatch through the
:data:`~repro.ir.opspec.OPS` registry.  The original per-symbol if/elif
chains are kept as a test oracle (``tests/oracles/opspec_chains.py``),
pinned verdict-by-verdict against the registry dispatch by
``tests/test_opspec.py``.
"""

from __future__ import annotations

from repro.ir.opspec import FLOAT_BYTES, op_bytes, op_flops  # noqa: F401  (front door)

__all__ = ["op_flops", "op_bytes", "FLOAT_BYTES"]
