"""Canonical, isomorphism-invariant tensor-graph fingerprints.

The service's result cache must answer *repeat* submissions without
re-running saturation, where "repeat" means *the same computation*, not the
same bytes: the same graph resubmitted with renamed inputs/weights, or with
its nodes constructed in a different order (and therefore numbered
differently), must produce the same cache key, while any change to an
operator, a shape, or an edge must produce a different one.

:func:`graph_fingerprint` achieves this by hash-consing the IR bottom-up
into a canonical form:

* nodes are visited depth-first from the graph outputs (outputs in order,
  children in input order), so the traversal -- and every canonical id it
  assigns -- depends only on the graph *structure*, never on how the
  submitter happened to number the nodes;
* each ``input`` / ``weight`` leaf is recorded as ``(op, inferred metadata,
  first-use ordinal)`` -- the user-chosen name never enters the record, but
  distinct leaves keep distinct ordinals, so renaming is invisible while
  ``matmul(x, y)`` can never collide with ``matmul(x, x)``;
* every other node is recorded as ``(op symbol, inferred kind + shape,
  canonical child ids)`` and deduplicated through a record -> id memo, i.e.
  structurally identical subterms share one canonical id;
* the fingerprint is the SHA-256 of the canonical record list plus the
  canonical output ids.  Only strings and ints enter the hash -- no
  ``id()``, no dict iteration order -- so fingerprints are stable across
  processes and Python versions (pinned by ``tests/test_fingerprint.py``).

:func:`config_digest` is the second half of the cache key: a stable digest
of every :class:`~repro.core.config.TensatConfig` field plus the rule-set,
cost-model, and *registered operator set* identity (symbol families and
serialization names from :data:`repro.ir.opspec.OPS`), so results computed
under different configurations -- or under a different operator table, e.g.
a widened concat family or a plugin-registered op -- never alias.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields as dataclass_fields
from typing import Dict, List, Optional, Tuple

from repro.core.config import TensatConfig
from repro.ir.graph import TensorGraph
from repro.ir.ops import OpKind
from repro.ir.opspec import OPS

__all__ = ["canonical_form", "config_digest", "graph_fingerprint"]


def canonical_form(graph: TensorGraph) -> Tuple[List[tuple], List[int]]:
    """The canonical record list and canonical output ids of ``graph``.

    Records are listed in canonical-id order; record ``i`` describes
    canonical node ``i``.  Two graphs have identical canonical forms exactly
    when they are the same computation up to node numbering and input/weight
    naming (the :func:`graph_fingerprint` contract).
    """
    canon: Dict[int, int] = {}  # graph node id -> canonical id
    memo: Dict[tuple, int] = {}  # record -> canonical id (hash-consing)
    records: List[tuple] = []
    leaf_ordinal = 0

    for output in graph.outputs:
        stack: List[Tuple[int, bool]] = [(output, False)]
        while stack:
            node_id, expanded = stack.pop()
            if node_id in canon:
                continue
            node = graph.nodes[node_id]
            # Identifier leaves: the name-carrying str child never enters the
            # canonical form, so the whole leaf is a single record.
            is_leaf = node.op.is_identifier or node.op.is_literal
            if not expanded and not is_leaf:
                stack.append((node_id, True))
                stack.extend((child, False) for child in reversed(node.inputs))
                continue
            if node.op.is_identifier:
                record = (
                    node.op.value,
                    node.data.kind.value,
                    tuple(node.data.shape),
                    ("leaf", leaf_ordinal),
                )
                leaf_ordinal += 1
            elif node.op == OpKind.NUM:
                record = ("num", int(node.value))
            elif node.op == OpKind.STR:
                record = ("str", str(node.value))
            else:
                record = (
                    node.symbol,
                    node.data.kind.value,
                    tuple(node.data.shape),
                    tuple(canon[child] for child in node.inputs),
                )
            existing = memo.get(record)
            if existing is None:
                existing = len(records)
                records.append(record)
                memo[record] = existing
            canon[node_id] = existing

    return records, [canon[o] for o in graph.outputs]


def graph_fingerprint(graph: TensorGraph) -> str:
    """SHA-256 hex fingerprint of ``graph``'s canonical form.

    Invariant under node reordering and input/weight renaming; sensitive to
    any operator, shape, parameter, edge, or output change.
    """
    records, outputs = canonical_form(graph)
    payload = repr((records, outputs)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def config_digest(
    config: TensatConfig,
    rules: Optional[object] = None,
    cost_model: Optional[object] = None,
) -> str:
    """SHA-256 hex digest of a configuration (plus rule-set / cost-model identity).

    Every :class:`TensatConfig` field enters the digest, so the cache is
    conservative: knobs that provably cannot change the optimized graph
    (timing limits, ...) still separate cache entries.
    ``rules`` may be a :class:`~repro.rules.library.RuleSet` (its rule names
    are digested) and ``cost_model`` any cost model (its class identity is
    digested); ``None`` stands for the service defaults.  The registered
    operator set always enters the digest: a result cached under one op
    table (say ``concat2..concat8``) is never served after the table changes
    (say :func:`~repro.ir.opspec.register_concat` widened the family).
    """
    config_items = tuple(
        (f.name, repr(getattr(config, f.name))) for f in dataclass_fields(config)
    )
    if rules is None:
        rules_token = "<default-ruleset>"
    else:
        rules_token = ",".join(rule.name for rule in rules)
    if cost_model is None:
        model_token = "<default-cost-model>"
    else:
        model_token = f"{type(cost_model).__module__}.{type(cost_model).__qualname__}"
    ops_token = ";".join(f"{spec.name}={','.join(spec.symbols)}" for spec in OPS)
    payload = repr((config_items, rules_token, model_token, ops_token)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
