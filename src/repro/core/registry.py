"""Component registries: the single source of truth for pluggable strategies.

Every pluggable piece of the pipeline -- extractors, rule schedulers, cycle
filters -- is named in exactly one place: a :class:`Registry`
in this module.  :class:`~repro.core.config.TensatConfig` validation, the
CLI's ``choices=`` lists, and the factory functions (``make_scheduler``,
``make_cycle_filter``, the session's extractor construction) all consult
these registries, so a third-party component plugs in with one
``register`` call and no edits to ``optimizer.py`` or ``cli.py``::

    from repro.core.registry import SCHEDULERS

    SCHEDULERS.register("alternating", lambda match_limit, ban_length: AlternatingScheduler())
    config = TensatConfig(scheduler="alternating")   # now validates

Factory signatures by registry:

* ``SCHEDULERS``    -- ``factory(match_limit: int, ban_length: int) -> Scheduler``
* ``EXTRACTORS``    -- ``factory(node_cost, config, filter_list) -> Extractor``
* ``CYCLE_FILTERS`` -- ``factory() -> CycleFilter``

The search phase has no registry: the runner always searches with the
shared-prefix rule trie, joins multi-pattern matches with the hash join and
evaluates compiled conditions directly.  Nor does the ILP solver: the
``ilp`` extractor always solves with HiGHS.

This module must stay importable from :mod:`repro.egraph` modules' function
bodies, so it may import from :mod:`repro.egraph` but never from
:mod:`repro.core.config` or :mod:`repro.core.optimizer`.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.egraph.cycles import EfficientCycleFilter, NoCycleFilter, VanillaCycleFilter
from repro.egraph.extraction.greedy import GreedyExtractor
from repro.egraph.extraction.ilp import ILPExtractor
from repro.egraph.scheduler import BackoffScheduler, SimpleScheduler

__all__ = [
    "Registry",
    "CYCLE_FILTERS",
    "EXTRACTORS",
    "SCHEDULERS",
]


class Registry:
    """An ordered ``name -> component`` mapping with helpful errors.

    Registration order is preserved: :meth:`names` returns the entries in the
    order they were registered, which is the order the CLI presents them and
    the first entry is conventionally the default.
    """

    def __init__(self, kind: str) -> None:
        #: Human-readable component kind, used in error messages ("scheduler").
        self.kind = kind
        self._entries: Dict[str, object] = {}

    # -- registration -------------------------------------------------- #

    def register(self, name: str, value: Optional[object] = None):
        """Register ``value`` under ``name``; usable as a decorator.

        Raises :class:`ValueError` if ``name`` is already taken (re-register
        by calling :meth:`unregister` first -- silent replacement would make
        component resolution order-of-import dependent).
        """
        if value is None:

            def decorator(fn):
                self.register(name, fn)
                return fn

            return decorator
        if name in self._entries:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self._entries[name] = value
        return value

    def unregister(self, name: str) -> None:
        """Remove an entry (mainly for tests and plugin teardown)."""
        if name not in self._entries:
            raise ValueError(self._unknown(name))
        del self._entries[name]

    # -- lookup -------------------------------------------------------- #

    def get(self, name: str) -> object:
        """Return the registered component, raising a listing error when unknown."""
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(self._unknown(name)) from None

    def create(self, name: str, **kwargs):
        """Call the registered factory with ``kwargs`` (see module docstring)."""
        factory = self.get(name)
        if not callable(factory):
            raise TypeError(f"{self.kind} {name!r} is not constructible (entry is {factory!r})")
        return factory(**kwargs)

    def check(self, name: str) -> str:
        """Validate that ``name`` is registered; return it (for chaining)."""
        if name not in self._entries:
            raise ValueError(self._unknown(name))
        return name

    def names(self) -> Tuple[str, ...]:
        """Registered names in registration order (the first is the default)."""
        return tuple(self._entries)

    def _unknown(self, name: str) -> str:
        return f"unknown {self.kind} {name!r}; available: {', '.join(self._entries) or '<none>'}"

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, names={list(self._entries)})"


# --------------------------------------------------------------------- #
# Built-in components.  Registration order == CLI presentation order,
# first entry == the TensatConfig default.
# --------------------------------------------------------------------- #

#: Rule schedulers (exploration): which single-pattern rules run per iteration.
SCHEDULERS = Registry("scheduler")
SCHEDULERS.register("simple", lambda match_limit, ban_length: SimpleScheduler())
SCHEDULERS.register(
    "backoff",
    lambda match_limit, ban_length: BackoffScheduler(match_limit=match_limit, ban_length=ban_length),
)

#: Extractors (post-saturation): select the cheapest represented graph.
EXTRACTORS = Registry("extractor")


@EXTRACTORS.register("ilp")
def _make_ilp_extractor(node_cost, config, filter_list):
    return ILPExtractor(
        node_cost,
        with_cycle_constraints=config.ilp_cycle_constraints,
        integer_topo=config.ilp_integer_topo,
        filter_list=filter_list,
        time_limit=config.ilp_time_limit,
        fallback_to_greedy=config.ilp_fallback_to_greedy,
        mip_rel_gap=config.ilp_mip_gap,
        reduce_problem=config.extraction_prune,
    )


@EXTRACTORS.register("greedy")
def _make_greedy_extractor(node_cost, config, filter_list):
    return GreedyExtractor(node_cost, filter_list=filter_list)


#: Cycle-filtering strategies (paper Section 5.2).
CYCLE_FILTERS = Registry("cycle filter")
CYCLE_FILTERS.register("efficient", EfficientCycleFilter)
CYCLE_FILTERS.register("vanilla", VanillaCycleFilter)
CYCLE_FILTERS.register("none", NoCycleFilter)

