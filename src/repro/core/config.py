"""Configuration of the TENSAT optimizer (paper Section 6.1 defaults)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.registry import CYCLE_FILTERS, EXTRACTORS, SCHEDULERS

__all__ = ["TensatConfig", "ConfigError"]


class ConfigError(ValueError):
    """A configuration combination that cannot run as requested.

    Raised instead of letting the underlying failure (a deep pickle
    traceback inside a worker pool) surface later: the message names the
    offending knob or component and what to change.
    """


#: Knob name -> the registry its value must name an entry of.
_KNOB_REGISTRIES = (
    ("extraction", EXTRACTORS),
    ("scheduler", SCHEDULERS),
    ("cycle_filter", CYCLE_FILTERS),
)


@dataclass(frozen=True)
class TensatConfig:
    """All knobs of the TENSAT pipeline.

    The defaults mirror the paper's experimental setup: at most 50 000 e-nodes,
    at most 15 exploration iterations, one iteration of multi-pattern rewrites
    (``k_multi = 1``), efficient cycle filtering, and ILP extraction without
    cycle constraints with a one-hour solver limit.
    """

    # ------------------------------------------------------------------ #
    # Exploration limits
    # ------------------------------------------------------------------ #
    #: Maximum number of e-nodes (paper: N_max = 50 000).
    node_limit: int = 50_000
    #: Maximum number of exploration iterations (paper: k_max = 15).
    iter_limit: int = 15
    #: Iterations in which multi-pattern rules are applied (paper: k_multi = 1).
    k_multi: int = 1
    #: Exploration wall-clock limit in seconds.
    exploration_time_limit: float = 3600.0
    #: Optional safety cap on the Cartesian-product size per multi-pattern rule
    #: per iteration (None reproduces the paper exactly).
    max_multi_combinations: Optional[int] = None
    #: Rule scheduling during exploration: "simple" (paper behaviour -- every
    #: rule fires every iteration) or "backoff" (egg-style: rules whose match
    #: count explodes are temporarily banned, keeping the e-graph focused when
    #: the node budget is much smaller than the paper's 50 000).
    scheduler: str = "simple"
    #: Backoff scheduler match budget per rule per iteration.
    scheduler_match_limit: int = 1_000
    #: Backoff scheduler base ban length in iterations.
    scheduler_ban_length: int = 5
    #: Seed each exploration iteration's search from the e-classes dirtied by
    #: the previous iteration; iteration 0 is always a full search.
    delta_matching: bool = True

    # ------------------------------------------------------------------ #
    # Cycle handling
    # ------------------------------------------------------------------ #
    #: "efficient" (Algorithm 2), "vanilla", or "none" (requires ILP cycle constraints).
    cycle_filter: str = "efficient"

    # ------------------------------------------------------------------ #
    # Extraction
    # ------------------------------------------------------------------ #
    #: "ilp" (HiGHS, falling back to greedy when it returns no solution) or
    #: "greedy" (see docs/extraction.md).
    extraction: str = "ilp"
    #: Prune dominated e-nodes and force the e-classes every selection must
    #: cover before solving (optimum-preserving; shrinks the ILP variable
    #: space and tightens its LP relaxation).
    extraction_prune: bool = True
    #: Include the topological-order (cycle) constraints in the ILP.
    ilp_cycle_constraints: bool = False
    #: Use integer instead of real topological-order variables.
    ilp_integer_topo: bool = False
    #: ILP solver time limit in seconds (paper: 3600).
    ilp_time_limit: float = 3600.0
    #: Fall back to greedy extraction when the ILP solver returns no solution.
    ilp_fallback_to_greedy: bool = True
    #: Relative MIP optimality gap (0 = prove optimality, as the paper's SCIP setup does).
    ilp_mip_gap: float = 0.0

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    #: Re-run shape validation and interface checks on the optimized graph.
    validate_output: bool = True
    #: Additionally execute original and optimized graphs on random data and
    #: compare outputs (slow; intended for tests and examples).
    verify_numerically: bool = False

    def __post_init__(self) -> None:
        # Strategy knobs validate against the live component registries, so
        # a third-party extractor/scheduler registered before this config is
        # constructed is accepted without touching this module.
        for knob, registry in _KNOB_REGISTRIES:
            registry.check(getattr(self, knob))
        if self.node_limit <= 0 or self.iter_limit <= 0:
            raise ValueError("node_limit and iter_limit must be positive")
        if self.k_multi < 0:
            raise ValueError("k_multi must be non-negative")
        if self.cycle_filter == "none" and self.extraction == "ilp" and not self.ilp_cycle_constraints:
            raise ValueError(
                "with cycle_filter='none' the ILP needs cycle constraints "
                "(set ilp_cycle_constraints=True) or extraction may return a cyclic graph"
            )

    def with_overrides(self, **kwargs) -> "TensatConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def paper_defaults(cls) -> "TensatConfig":
        """The configuration used for the paper's headline results (Table 1)."""
        return cls()

    @classmethod
    def fast(cls) -> "TensatConfig":
        """A small configuration for unit tests and quick demos."""
        return cls(node_limit=5_000, iter_limit=6, k_multi=1, ilp_time_limit=60.0)
