"""Configuration of the TENSAT optimizer (paper Section 6.1 defaults)."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

from repro.egraph.cycles import CYCLE_FILTERS
from repro.egraph.extraction import EXTRACTORS
from repro.egraph.scheduler import SCHEDULERS

__all__ = ["TensatConfig", "ConfigError"]


class ConfigError(ValueError):
    """A configuration combination that cannot run as requested.

    The message names the offending knob or component and what to change.
    """


#: Knob name -> the name table its value must be a key of.
_KNOB_TABLES = (
    ("extraction", EXTRACTORS),
    ("scheduler", SCHEDULERS),
    ("cycle_filter", CYCLE_FILTERS),
)

#: Integer knob -> the least value it accepts.
_INT_MINIMA = {
    "node_limit": 1,
    "iter_limit": 1,
    "k_multi": 0,
    "scheduler_match_limit": 0,
    "scheduler_ban_length": 0,
}

#: Float knob -> whether it must be > 0 (otherwise >= 0); each must be finite.
_FLOAT_POSITIVE = {
    "exploration_time_limit": True,
    "ilp_time_limit": True,
    "ilp_mip_gap": False,
}


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
    #: Rule scheduling during exploration: "simple" (paper behaviour -- every
    #: rule fires every iteration) or "backoff" (egg-style: rules whose match
    #: count explodes are temporarily banned, keeping the e-graph focused when
    #: the node budget is much smaller than the paper's 50 000).
    scheduler: str = "simple"
    #: Backoff scheduler match budget per rule per iteration.
    scheduler_match_limit: int = 1_000
    #: Backoff scheduler base ban length in iterations.
    scheduler_ban_length: int = 5

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
    #: Include the topological-order (cycle) constraints in the ILP.
    ilp_cycle_constraints: bool = False
    #: ILP solver time limit in seconds (paper: 3600).
    ilp_time_limit: float = 3600.0
    #: Relative MIP optimality gap (0 = prove optimality, as the paper's SCIP setup does).
    ilp_mip_gap: float = 0.0

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    #: Also execute original and optimized graphs on random data and compare
    #: outputs (slow; intended for tests and examples).  Shape validation and
    #: the interface check always run.
    verify_numerically: bool = False

    def __post_init__(self) -> None:
        for knob, table in _KNOB_TABLES:
            value = getattr(self, knob)
            if value not in table:
                raise ValueError(f"unknown {knob} {value!r}; available: {', '.join(table)}")
        for knob, least in _INT_MINIMA.items():
            value = getattr(self, knob)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{knob} must be an integer >= {least}, got {value!r}")
        for knob, positive in _FLOAT_POSITIVE.items():
            value = getattr(self, knob)
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
                or value < 0
                or (positive and value == 0)
            ):
                bound = "> 0" if positive else ">= 0"
                raise ValueError(f"{knob} must be a finite number {bound}, got {value!r}")
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
