"""E-graph / equality saturation substrate.

This subpackage is a from-scratch Python implementation of the machinery the
paper builds on top of ``egg`` (Willsey et al., 2020):

* :mod:`repro.egraph.unionfind`    -- disjoint-set forest.
* :mod:`repro.egraph.language`     -- e-nodes and recursive expressions (terms).
* :mod:`repro.egraph.egraph`       -- the e-graph itself (hash-consing, congruence closure,
  e-class analyses).
* :mod:`repro.egraph.pattern`      -- patterns with variables, parsed from S-expressions.
* :mod:`repro.egraph.ematch`       -- e-matching (pattern search over an e-graph).
* :mod:`repro.egraph.machine`      -- compiled pattern programs, the shared-prefix rule
  trie that runs them and incremental (iteration-delta) search; see
  ``docs/ematching.md``.
* :mod:`repro.egraph.rewrite`      -- single-pattern rewrite rules.
* :mod:`repro.egraph.multipattern` -- multi-pattern rewrite rules (paper Algorithm 1).
* :mod:`repro.egraph.applier`      -- batched apply plans (dedup, bulk add, queued
  unions, one rebuild per phase); see ``docs/apply_plan.md``.
* :mod:`repro.egraph.scheduler`    -- rule scheduling strategies (simple, backoff).
* :mod:`repro.egraph.runner`       -- the search -> schedule -> plan -> apply -> rebuild
  saturation pipeline with limits and cycle filtering.
* :mod:`repro.egraph.cycles`       -- vanilla and efficient cycle filtering (paper Algorithm 2).
* :mod:`repro.egraph.extraction`   -- greedy and ILP extraction.
"""

from repro.egraph.applier import ApplyPlan, ApplyStats
from repro.egraph.egraph import EClass, EGraph
from repro.egraph.language import ENode, RecExpr
from repro.egraph.machine import (
    Program,
    RuleTrie,
    TrieMatcher,
    build_rule_trie,
    compile_pattern,
)
from repro.egraph.pattern import Pattern, PatternNode, PatternVar
from repro.egraph.rewrite import Rewrite
from repro.egraph.multipattern import MultiPatternRewrite
from repro.egraph.runner import Runner, RunnerLimits, RunnerReport, StopReason
from repro.egraph.scheduler import BackoffScheduler, Scheduler, SimpleScheduler, make_scheduler
from repro.egraph.unionfind import UnionFind

__all__ = [
    "ApplyPlan",
    "ApplyStats",
    "EClass",
    "EGraph",
    "ENode",
    "Program",
    "RuleTrie",
    "TrieMatcher",
    "build_rule_trie",
    "compile_pattern",
    "RecExpr",
    "Pattern",
    "PatternNode",
    "PatternVar",
    "Rewrite",
    "MultiPatternRewrite",
    "Runner",
    "RunnerLimits",
    "RunnerReport",
    "StopReason",
    "Scheduler",
    "SimpleScheduler",
    "BackoffScheduler",
    "make_scheduler",
    "UnionFind",
]
