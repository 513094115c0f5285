"""The rule registry and :class:`RuleSet` used by the optimizers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.egraph.multipattern import MultiPatternRewrite
from repro.egraph.rewrite import Rewrite
from repro.rules.defs import RuleDef
from repro.rules.multi import multi_pattern_rules
from repro.rules.single import single_pattern_rules

__all__ = ["RuleSet", "rule_registry", "default_ruleset"]


@dataclass
class RuleSet:
    """A selection of rules ready to hand to the exploration phase."""

    defs: List[RuleDef] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.defs)

    def __iter__(self):
        return iter(self.defs)

    @property
    def rewrites(self) -> List[Rewrite]:
        """The single-pattern rewrites."""
        return [d.rule for d in self.defs if not d.is_multi]

    @property
    def multi_rewrites(self) -> List[MultiPatternRewrite]:
        """The multi-pattern rewrites."""
        return [d.rule for d in self.defs if d.is_multi]

    def names(self) -> List[str]:
        return [d.name for d in self.defs]

    def get(self, name: str) -> RuleDef:
        for d in self.defs:
            if d.name == name:
                return d
        raise KeyError(f"no rule named {name!r}")

    def filter(
        self,
        include_tags: Optional[Sequence[str]] = None,
        exclude_tags: Sequence[str] = (),
        include_multi: bool = True,
        include_single: bool = True,
        names: Optional[Sequence[str]] = None,
    ) -> "RuleSet":
        """Select a subset of rules by tag, kind, or explicit name."""
        selected: List[RuleDef] = []
        for d in self.defs:
            if names is not None and d.name not in names:
                continue
            if d.is_multi and not include_multi:
                continue
            if not d.is_multi and not include_single:
                continue
            if include_tags is not None and not any(t in d.tags for t in include_tags):
                continue
            if any(t in d.tags for t in exclude_tags):
                continue
            selected.append(d)
        return RuleSet(selected)

    def summary(self) -> Dict[str, int]:
        return {
            "total": len(self.defs),
            "single": len(self.rewrites),
            "multi": len(self.multi_rewrites),
        }


def rule_registry() -> RuleSet:
    """Every rule in the library (single- and multi-pattern)."""
    return RuleSet(list(single_pattern_rules()) + list(multi_pattern_rules()))


def default_ruleset(include_multi: bool = True) -> RuleSet:
    """The rule set used by the benchmarks (the full library, like the paper
    uses all of TASO's rules).

    ``include_multi=False`` drops the multi-pattern rules, which is useful for
    ablations and for the ``k_multi = 0`` points of Figure 7.
    """
    rules = rule_registry()
    if not include_multi:
        return rules.filter(include_multi=False)
    return rules
