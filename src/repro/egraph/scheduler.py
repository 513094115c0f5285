"""Rule schedulers: which single-pattern rules run in which iteration.

The scheduling logic used to live inline in the runner's iteration loop.  It
is now a strategy object consulted at two points of the pipeline:

* **after search** -- :meth:`Scheduler.is_banned` decides whether a rule's
  matches are used this iteration (the trie computes every rule's matches as
  a byproduct of its one traversal and the runner discards a banned rule's);
* **before planning** -- :meth:`Scheduler.admit_matches` sees
  the rule's match count and either admits the matches into the apply plan
  or bans the rule for upcoming iterations.

Scheduling decisions depend only on iteration numbers and match counts, so
any search that produces the same match lists walks the same schedule -- and
with it the same saturation trajectory.

Multi-pattern rules are *not* scheduled here: their budget is the runner's
``k_multi`` iteration window (see ``docs/multipattern.md``).  The pipeline
overview, including where both scheduling points sit, is
``docs/architecture.md``; the plan the admitted matches flow into is
``docs/apply_plan.md``.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["Scheduler", "SimpleScheduler", "BackoffScheduler", "make_scheduler", "SCHEDULERS"]


class Scheduler:
    """Interface: decide which rules search and which matches get applied.

    Implementations must be deterministic functions of the ``(rule_index,
    iteration, n_matches)`` stream they observe -- the runner relies on that
    to keep trajectories reproducible across search paths.  Subclasses
    override one or both hooks; the defaults admit everything (which is
    exactly :class:`SimpleScheduler`).
    """

    name = "base"

    def is_banned(self, rule_index: int, iteration: int) -> bool:
        """True when ``rule_index`` must not run in ``iteration``.

        Consulted after the trie search: the trie computes a banned rule's
        matches as a byproduct of the shared traversal and the runner
        discards them.
        """
        return False

    def admit_matches(self, rule_index: int, iteration: int, n_matches: int) -> bool:
        """Called once per searched rule per iteration with its match count.

        Returns True to admit the matches into the apply plan; False drops
        them (and typically records a ban for upcoming iterations).
        """
        return True


class SimpleScheduler(Scheduler):
    """The paper's behaviour: every rule fires every iteration."""

    name = "simple"


class BackoffScheduler(Scheduler):
    """egg-style exponential backoff for match-count explosions.

    A rule whose match count exceeds ``match_limit * 2**times_banned`` is
    banned for ``ban_length * 2**times_banned`` iterations; both the
    threshold and the ban double per offence.
    """

    name = "backoff"

    def __init__(self, match_limit: int = 1_000, ban_length: int = 5) -> None:
        self.match_limit = match_limit
        self.ban_length = ban_length
        self._banned_until: Dict[int, int] = {}
        self._times_banned: Dict[int, int] = {}

    def is_banned(self, rule_index: int, iteration: int) -> bool:
        return self._banned_until.get(rule_index, -1) > iteration

    def admit_matches(self, rule_index: int, iteration: int, n_matches: int) -> bool:
        times = self._times_banned.get(rule_index, 0)
        threshold = self.match_limit * (2 ** times)
        if n_matches > threshold:
            self._banned_until[rule_index] = iteration + self.ban_length * (2 ** times)
            self._times_banned[rule_index] = times + 1
            return False
        return True


#: Scheduler name -> ``factory(match_limit, ban_length)``, in CLI order; the
#: first is the ``TensatConfig`` default.
SCHEDULERS = {
    "simple": lambda match_limit, ban_length: SimpleScheduler(),
    "backoff": BackoffScheduler,
}


def make_scheduler(kind: str, match_limit: int = 1_000, ban_length: int = 5) -> Scheduler:
    """The scheduler :data:`SCHEDULERS` names ``kind``.

    The ``match_limit`` / ``ban_length`` budgets only apply to backoff.
    Raises :class:`ValueError` on an unknown name, so configuration typos
    surface at runner construction, not mid-exploration.
    """
    if kind not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {kind!r}; available: {', '.join(SCHEDULERS)}")
    return SCHEDULERS[kind](match_limit, ban_length)
