"""E-class shape analysis: precomputed, interned tensor facts per e-class.

The shape-checking preconditions of rewrite rules (paper Section 4) and the
cost model (Section 6) both need tensor metadata for arbitrary e-classes.
Before this module the metadata existed per e-class but every condition
check re-derived facts for the *target* pattern's operator spine from
scratch, which made condition checking dominate nasrnn exploration time.
The fix is the standard e-class-analysis pattern (egg, Willsey et al. 2020)
taken to its conclusion:

* :class:`TensorShapeAnalysis` computes each e-class's
  :class:`~repro.ir.tensor.TensorData` once -- ``make`` runs
  :func:`~repro.ir.shapes.infer_symbol` on the children's facts, ``merge``
  combines the facts of unioned classes with conflict detection -- and the
  e-graph's rebuild keeps the facts at their make/merge fixpoint.
* every fact is **interned** (:func:`intern_data`): structurally equal
  :class:`TensorData` values are represented by one canonical object, so
  equality checks are pointer comparisons and facts can key memo tables by
  ``id()``.  The intern table is module-level and never pruned, so an
  interned object's ``id`` is stable for the life of the process (ids of
  dead objects can be reused by the allocator; interned facts never die).

* :func:`infer_fact` is the one process-wide inference cache:
  ``(op, operand fact ids) -> interned output fact``, with shape errors
  stored as invalid facts.  Inference is a pure function of the operator
  and its operand facts, so the result is shared across e-nodes, candidate
  bindings, iterations and e-graphs.  ``make``, the compiled condition
  programs and the cost model all call it.

:mod:`repro.rules.conditions` builds on these properties: target patterns
compile into flat programs whose variable leaves read
``egraph.analysis_data`` directly and whose operator steps call
:func:`infer_fact`; each verdict is cached under the ids of the bound
variables' facts.

The analysis must uphold one contract for that cache to be sound:
**every fact it stores into an e-class is interned** (``make``, ``merge``
and the seeding in ``EGraph.add`` all return interned objects).  Anything
else that presents ``analysis_data`` to conditions -- the TASO-style
search's graph adapter, say -- must intern its facts too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.egraph.analysis import Analysis
from repro.ir.opspec import infer_symbol
from repro.ir.tensor import DataKind, ShapeError, TensorData

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.egraph.egraph import EGraph
    from repro.egraph.language import ENode

__all__ = ["TensorShapeAnalysis", "infer_fact", "intern_data", "intern_table_size"]


# Module-level (process-lifetime) intern table.  TensorData is a frozen,
# hashable-by-value dataclass, so structural equality picks the canonical
# representative.  Entries are never evicted: the compiled condition
# programs key memo tables on id(fact), which is only collision-free while
# every keyed object stays alive.
_INTERN: Dict[TensorData, TensorData] = {}


def intern_data(data: TensorData) -> TensorData:
    """Return the canonical object for ``data`` (pointer-comparable facts).

    Tuple facts intern their parts too, so the parts of two equal tuples
    are pointer-equal as well (``split`` conditions compare parts).
    """
    canonical = _INTERN.get(data)
    if canonical is not None:
        return canonical
    if data.parts:
        data = TensorData(
            kind=data.kind,
            shape=data.shape,
            value=data.value,
            split_sizes=data.split_sizes,
            parts=tuple(intern_data(p) for p in data.parts),
            from_weights=data.from_weights,
        )
        canonical = _INTERN.get(data)
        if canonical is not None:
            return canonical
    _INTERN[data] = data
    return data


def intern_table_size() -> int:
    """Number of distinct facts interned so far (monitoring / tests)."""
    return len(_INTERN)


# Process-lifetime inference cache: (op, *operand fact ids) ->
# (interned output fact, operand facts).  The operands are kept in the entry
# so their ids cannot be reused by other objects while the key exists --
# interned operands would stay alive anyway, other callers' facts might not.
_INFER: Dict[tuple, Tuple[TensorData, tuple]] = {}


def infer_fact(op: str, children: Sequence[TensorData]) -> TensorData:
    """The interned fact ``op`` produces over ``children`` (computed once).

    Same result as ``intern_data(infer_symbol(op, children))``, except that
    a :class:`~repro.ir.tensor.ShapeError` comes back as an interned invalid
    fact carrying the error message instead of being raised.  Sound because
    inference is a pure function of the operator symbol and the operand
    facts; keyed on the operands' ids, so equal but distinct
    (non-interned) operands are separate entries with equal results.
    """
    key = (op, *map(id, children))
    hit = _INFER.get(key)
    if hit is not None:
        return hit[0]
    try:
        data = intern_data(infer_symbol(op, children))
    except ShapeError as exc:
        data = intern_data(TensorData.invalid(str(exc)))
    _INFER[key] = (data, tuple(children))
    return data


class TensorShapeAnalysis(Analysis):
    """E-class analysis carrying interned tensor metadata per e-class.

    ``make`` runs shape inference for each new e-node; when the operands
    are incompatible the e-node's data is marked invalid (rewrite
    conditions prevent such nodes from being added in the first place, and
    the cost model assigns them an effectively infinite cost so they are
    never extracted).

    ``merge`` prefers valid data over invalid data and unions
    split-location records.  Two valid tensors that disagree on shape are a
    *conflict* -- equivalent tensors must agree on shape -- which is
    counted (:attr:`n_conflicts`, :attr:`last_conflict`) and, in ``strict``
    mode, raised as :class:`~repro.ir.tensor.ShapeError`; otherwise the
    surviving class's data wins deterministically.

    Parameters
    ----------
    strict:
        Raise on shape conflicts instead of recording them.
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        #: Number of valid-vs-valid shape disagreements seen by ``merge``.
        self.n_conflicts = 0
        #: The most recent conflicting pair ``(kept, discarded)``.
        self.last_conflict: Optional[Tuple[TensorData, TensorData]] = None

    def make(self, egraph: "EGraph", enode: "ENode") -> TensorData:
        children = [egraph.analysis_data(c) for c in enode.children]
        if any(child is None for child in children):
            return intern_data(TensorData.invalid("missing child analysis data"))
        return infer_fact(enode.op, children)

    def merge(self, a: TensorData, b: TensorData) -> Tuple[TensorData, bool]:
        if a is None:
            return (b if b is None else intern_data(b)), True
        if b is None:
            return intern_data(a), False
        a, b = intern_data(a), intern_data(b)
        if not a.is_valid and b.is_valid:
            return b, True
        if not b.is_valid or not a.is_valid:
            return a, False
        if a.kind == DataKind.TENSOR and b.kind == DataKind.TENSOR:
            if a.shape != b.shape:
                if self.strict:
                    raise ShapeError(
                        f"merging e-classes with different shapes: {a.shape} vs {b.shape}"
                    )
                self.n_conflicts += 1
                self.last_conflict = (a, b)
                return a, False
            # Union split-location records, keeping a's entries on conflict.
            merged = a
            known_axes = {ax for ax, _ in a.split_sizes}
            changed = False
            for ax, sizes in b.split_sizes:
                if ax not in known_axes:
                    merged = merged.with_split(ax, sizes)
                    changed = True
            if changed:
                merged = intern_data(merged)
            return merged, changed
        return a, False
