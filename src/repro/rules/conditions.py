"""Shape-checking preconditions for rewrite rules.

The paper applies a rewrite at a syntactic match only after *shape checking*
(Section 4): the target pattern must be well-typed for the tensors the
variables are bound to.  The helpers below build such conditions from the
tensor e-class analysis data.

:func:`targets_shape_valid` compiles each target pattern, at
condition-construction time, into a post-order program over slots --
variable leaves load the binding's precomputed fact straight from
``egraph.analysis_data``, and only the target's *new* operator spine runs
inference, through the process-wide cache
:func:`~repro.egraph.shapeanalysis.infer_fact`.  The verdict itself is cached
under the ids of the bound variables' (interned) facts, so a binding whose
facts were seen before costs one dict probe.  Sub-terms shared across
targets compile to one slot.  Bottom-up inference per evaluation is kept as
a test oracle (``tests/oracles/shape_spec.py``); the compiled path must
return the identical verdict for every match.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.egraph.egraph import EGraph
from repro.egraph.ematch import Match
from repro.egraph.multipattern import MultiMatch
from repro.egraph.pattern import Pattern, PatternTerm, PatternVar
from repro.egraph.shapeanalysis import infer_fact
from repro.ir.tensor import DataKind, TensorData

__all__ = [
    "targets_shape_valid",
    "var_is_int",
    "var_rank_is",
    "var_shape_axis_equal",
    "conv_not_grouped",
    "all_of",
]

AnyMatch = Union[Match, MultiMatch]
Condition = Callable[[EGraph, AnyMatch], bool]


class TargetsShapeValid:
    """Condition: every target pattern type-checks under the match's bindings.

    Construction compiles the targets into one flat post-order program.
    Each instruction is ``(var_name, op, child_slots)``:

    * a **variable load** (``var_name`` set) reads the binding's fact from
      ``egraph.analysis_data`` -- an O(1) lookup, no inference;
    * an **operator step** (``op`` set) infers its fact from the children
      slots' facts through :func:`~repro.egraph.shapeanalysis.infer_fact`,
      the process-wide inference cache.

    The verdict is a pure function of the facts the variable loads read, so
    the compiled path caches it under the tuple of those facts' ids.  The
    cache needs no invalidation -- a binding whose e-class facts change
    simply presents a different key -- and the ids are stable because the
    analysis only stores interned facts, which are never freed
    (:mod:`repro.egraph.shapeanalysis`); any other object that presents
    ``analysis_data`` to conditions must intern its facts too.  A pickled
    condition carries only its targets and recompiles on load: ids mean
    nothing in another process.

    Sub-terms shared across targets are detected structurally at
    construction time and compile to a single slot: the targets of a
    multi-pattern merge differ only in their outer projection (``split0`` /
    ``split1`` around one merged operator chain), so the shared chain is
    evaluated once per match instead of once per target.
    """

    __slots__ = ("targets", "_instrs", "_loads", "_verdicts")

    def __init__(self, targets: Sequence[Pattern]) -> None:
        self.targets = tuple(targets)
        roots = [target.root for target in self.targets]

        # id(subterm) -> structural key; shared sub-terms (within and across
        # targets) get one key even when parsed separately.
        subterm_keys: Dict[int, str] = {}

        def index(term: PatternTerm) -> str:
            if isinstance(term, PatternVar):
                key = "?" + term.name
            else:
                key = "(" + " ".join([term.op] + [index(c) for c in term.children]) + ")"
            subterm_keys[id(term)] = key
            return key

        for root in roots:
            index(root)

        # Flat post-order program: structural key -> slot, one instruction
        # per distinct sub-term, children always at lower slots.
        instrs: List[Tuple[Optional[str], Optional[str], Tuple[int, ...]]] = []
        slot_of: Dict[str, int] = {}

        def compile_term(term: PatternTerm) -> int:
            key = subterm_keys[id(term)]
            slot = slot_of.get(key)
            if slot is not None:
                return slot
            if isinstance(term, PatternVar):
                instr = (term.name, None, ())
            else:
                child_slots = tuple(compile_term(c) for c in term.children)
                instr = (None, term.op, child_slots)
            slot = len(instrs)
            instrs.append(instr)
            slot_of[key] = slot
            return slot

        for root in roots:
            compile_term(root)
        self._instrs = tuple(instrs)
        #: The variable loads, in slot order: the facts the verdict depends on.
        self._loads = tuple(var for var, _, _ in self._instrs if var is not None)
        #: ids of the loaded facts -> verdict (see the class docstring).
        self._verdicts: Dict[Tuple[int, ...], bool] = {}

    # Everything but the targets is keyed on ids of this process's objects,
    # so a pickled condition ships its targets only and recompiles.
    def __getstate__(self):
        return {"targets": self.targets}

    def __setstate__(self, state) -> None:
        self.__init__(state["targets"])

    def __call__(self, egraph: EGraph, match: AnyMatch) -> bool:
        data_of = egraph.analysis_data
        subst_get = match.subst.get
        facts: List[TensorData] = []
        for var in self._loads:
            eclass = subst_get(var)
            if eclass is None:
                return False
            data = data_of(eclass)
            if data is None or not data.is_valid:
                return False
            facts.append(data)
        key = tuple(map(id, facts))
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._run_program(facts)
            self._verdicts[key] = verdict
        return verdict

    def _run_program(self, facts: Sequence[TensorData]) -> bool:
        """The verdict over valid variable facts (in ``_loads`` order), uncached."""
        loaded = iter(facts)
        values: List[TensorData] = []
        append = values.append
        for var, op, child_slots in self._instrs:
            if var is not None:
                data = next(loaded)
            else:
                data = infer_fact(op, [values[i] for i in child_slots])
                if not data.is_valid:
                    return False
            append(data)
        return True


def targets_shape_valid(targets: Sequence[Pattern]) -> Condition:
    """Condition: every target pattern type-checks under the match's bindings.

    See :class:`TargetsShapeValid` for the compiled-program evaluation.
    """
    return TargetsShapeValid(targets)


class _VarIsInt:
    """See :func:`var_is_int`.  A class (not a closure) so rules pickle."""

    __slots__ = ("var", "value")

    def __init__(self, var: str, value: Optional[int]) -> None:
        self.var = var
        self.value = value

    def __call__(self, egraph: EGraph, match: AnyMatch) -> bool:
        eclass = match.subst.get(self.var)
        if eclass is None:
            return False
        data = egraph.analysis_data(eclass)
        if data is None or data.kind != DataKind.INT:
            return False
        return self.value is None or int(data.value) == self.value


def var_is_int(var: str, value: Optional[int] = None) -> Condition:
    """Condition: ``?var`` is an integer parameter (optionally equal to ``value``)."""
    return _VarIsInt(var, value)


class _VarRankIs:
    """See :func:`var_rank_is`.  A class (not a closure) so rules pickle."""

    __slots__ = ("var", "rank")

    def __init__(self, var: str, rank: int) -> None:
        self.var = var
        self.rank = rank

    def __call__(self, egraph: EGraph, match: AnyMatch) -> bool:
        eclass = match.subst.get(self.var)
        if eclass is None:
            return False
        data = egraph.analysis_data(eclass)
        return data is not None and data.kind == DataKind.TENSOR and data.rank == self.rank


def var_rank_is(var: str, rank: int) -> Condition:
    """Condition: ``?var`` is a tensor of the given rank."""
    return _VarRankIs(var, rank)


def _tensor_pair(egraph: EGraph, match: AnyMatch, var_a: str, var_b: str):
    """The two variables' facts when both are bound tensors, else ``None``.

    All the point conditions below start the same way: a ``subst.get`` per
    variable, a single ``analysis_data`` read each, and a kind check --
    precomputed facts make the whole precondition a couple of dict lookups.
    """
    eclass_a = match.subst.get(var_a)
    eclass_b = match.subst.get(var_b)
    if eclass_a is None or eclass_b is None:
        return None
    da = egraph.analysis_data(eclass_a)
    db = egraph.analysis_data(eclass_b)
    if da is None or db is None:
        return None
    if da.kind != DataKind.TENSOR or db.kind != DataKind.TENSOR:
        return None
    return da, db


class _VarShapeAxisEqual:
    """See :func:`var_shape_axis_equal`.  A class so rules pickle."""

    __slots__ = ("var_a", "var_b", "axis")

    def __init__(self, var_a: str, var_b: str, axis: int) -> None:
        self.var_a = var_a
        self.var_b = var_b
        self.axis = axis

    def __call__(self, egraph: EGraph, match: AnyMatch) -> bool:
        pair = _tensor_pair(egraph, match, self.var_a, self.var_b)
        if pair is None:
            return False
        da, db = pair
        axis = self.axis
        if da.rank <= axis or db.rank <= axis:
            return False
        return da.shape[axis] == db.shape[axis]


def var_shape_axis_equal(var_a: str, var_b: str, axis: int) -> Condition:
    """Condition: two tensor variables agree on the size of ``axis``."""
    return _VarShapeAxisEqual(var_a, var_b, axis)


def conv_not_grouped(input_var: str, weight_var: str) -> Condition:
    """Condition: the convolution of ``?input_var`` by ``?weight_var`` is ungrouped.

    The concat-based conv merge rewrites are only sound for groups == 1
    (otherwise concatenating output channels re-partitions the groups).
    """
    return _ConvNotGrouped(input_var, weight_var)


class _ConvNotGrouped:
    """See :func:`conv_not_grouped`.  A class so rules pickle."""

    __slots__ = ("input_var", "weight_var")

    def __init__(self, input_var: str, weight_var: str) -> None:
        self.input_var = input_var
        self.weight_var = weight_var

    def __call__(self, egraph: EGraph, match: AnyMatch) -> bool:
        pair = _tensor_pair(egraph, match, self.input_var, self.weight_var)
        if pair is None:
            return False
        x, w = pair
        if x.rank != 4 or w.rank != 4:
            return False
        return x.shape[1] == w.shape[1]


def enlarge_compatible(small_var: str, large_var: str) -> Condition:
    """Condition for merging convs with different kernel sizes via ``enlarge``.

    ``?small_var`` can be zero-padded to the spatial size of ``?large_var``
    and the padded kernel computes the same convolution under SAME padding and
    stride 1: both kernels must share input channels, the target spatial size
    must be odd, and the size difference must be even so the original taps
    stay centered.
    """
    return _EnlargeCompatible(small_var, large_var)


class _EnlargeCompatible:
    """See :func:`enlarge_compatible`.  A class so rules pickle."""

    __slots__ = ("small_var", "large_var")

    def __init__(self, small_var: str, large_var: str) -> None:
        self.small_var = small_var
        self.large_var = large_var

    def __call__(self, egraph: EGraph, match: AnyMatch) -> bool:
        pair = _tensor_pair(egraph, match, self.small_var, self.large_var)
        if pair is None:
            return False
        small, large = pair
        if small.rank != 4 or large.rank != 4:
            return False
        if small.shape[1] != large.shape[1]:
            return False
        s_kh, s_kw = small.shape[2], small.shape[3]
        l_kh, l_kw = large.shape[2], large.shape[3]
        if (s_kh, s_kw) == (l_kh, l_kw):
            return False  # same-size kernels are handled by the plain merge rule
        if s_kh > l_kh or s_kw > l_kw:
            return False
        if l_kh % 2 == 0 or l_kw % 2 == 0:
            return False
        return (l_kh - s_kh) % 2 == 0 and (l_kw - s_kw) % 2 == 0


class _AllOf:
    """See :func:`all_of`.  A class (not a closure) so rules pickle."""

    __slots__ = ("conditions",)

    def __init__(self, conditions: "tuple") -> None:
        self.conditions = conditions

    def __call__(self, egraph: EGraph, match: AnyMatch) -> bool:
        return all(c(egraph, match) for c in self.conditions)


def all_of(*conditions: Condition) -> Condition:
    """Conjunction of several conditions."""
    return _AllOf(conditions)
