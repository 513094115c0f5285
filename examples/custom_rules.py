#!/usr/bin/env python
"""Extending TENSAT with a custom rewrite rule.

The rule library is not closed: users can define additional single- or
multi-pattern rules as S-expression patterns, verify them numerically against
the numpy backend, and hand them to the optimizer.  This example adds a
(deliberately simple) rule that commutes an element-wise multiplication into a
fused matmul activation chain, verifies it, and shows it firing.

Run with::

    python examples/custom_rules.py
"""

from repro import GraphBuilder, TensatConfig, optimize
from repro.costs import AnalyticCostModel
from repro.egraph.pattern import Pattern
from repro.egraph.rewrite import Rewrite
from repro.rules import default_ruleset
from repro.rules.conditions import targets_shape_valid
from repro.rules.defs import RuleDef
from repro.rules.library import RuleSet
from repro.rules.verify import verify_rule


def make_custom_rule() -> RuleDef:
    """(tanh (ewadd ?a ?b)) is matched and rewritten to (ewadd ?b ?a) under tanh.

    A toy rule -- its only purpose is to demonstrate the workflow:
    pattern -> condition -> example bindings -> numerical verification.
    """
    lhs = "(tanh (ewadd ?a ?b))"
    rhs = "(tanh (ewadd ?b ?a))"
    rule = Rewrite.parse("custom-tanh-add-comm", lhs, rhs, targets_shape_valid([Pattern.parse(rhs)]))
    return RuleDef(
        rule,
        tags=("custom",),
        example={"a": ("input", (4, 8)), "b": ("input", (4, 8))},
    )


def main() -> None:
    custom = make_custom_rule()

    # 1. Verify the rule numerically before trusting it.
    verdict = verify_rule(custom)
    print(f"rule {custom.name!r} verified: {verdict.ok} (max error {verdict.max_error:.2e})")
    assert verdict.ok

    # 2. Add it to the default library.
    rules = RuleSet(list(default_ruleset().defs) + [custom])
    print(f"rule set: {rules.summary()}")

    # 3. Optimize a graph where the default rules plus the custom rule apply.
    b = GraphBuilder("custom-demo")
    x = b.input("x", (32, 64))
    h = b.input("h", (32, 64))
    w1 = b.weight("w1", (64, 64))
    w2 = b.weight("w2", (64, 64))
    gate = b.tanh(b.ewadd(b.matmul(x, w1), b.matmul(h, w2)))
    graph = b.finish(outputs=[gate])

    cost_model = AnalyticCostModel()
    result = optimize(graph, cost_model=cost_model, rules=rules, config=TensatConfig.fast())
    print(f"cost {result.original_cost:.5f} -> {result.optimized_cost:.5f} ms "
          f"({result.speedup_percent:+.1f}%)")
    print(f"optimized operators: {result.optimized.op_histogram()}")


if __name__ == "__main__":
    main()
