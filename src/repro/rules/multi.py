"""Multi-pattern rewrite rules (paper Figure 2 and appendix Figures 8-9).

These rules have several matched outputs: two operators that *share an input*
are replaced by one wider operator over concatenated weights whose output is
split back into the two original results.  They are the rules that grow the
e-graph double-exponentially (paper Section 4) and the reason greedy
extraction fails (Section 6.5) -- the merged operator only pays off when both
outputs pick their ``split`` projection.

How these rules are *executed* -- source-pattern canonicalization, admission
into the shared-prefix rule trie, and the indexed hash join that replaces the
Cartesian-product combination -- is described in ``docs/multipattern.md``;
the engine lives in :mod:`repro.egraph.multipattern`.  Note that both
sources of each rule here are alpha-equivalent, so the whole five-rule
library e-matches just three canonical patterns per iteration (one
matmul-shaped, two conv-shaped -- the ``enlarge`` variant pins stride and
padding to literals, which makes it a distinct canonical pattern).
"""

from __future__ import annotations

from typing import List

from repro.egraph.multipattern import MultiPatternRewrite
from repro.egraph.pattern import Pattern
from repro.rules.conditions import (
    all_of,
    conv_not_grouped,
    enlarge_compatible,
    targets_shape_valid,
    var_rank_is,
)
from repro.rules.defs import RuleDef

__all__ = ["multi_pattern_rules"]


def _multi(
    name: str,
    sources: List[str],
    targets: List[str],
    example,
    tags: tuple = (),
    extra_condition=None,
) -> RuleDef:
    target_patterns = [Pattern.parse(t) for t in targets]
    condition = targets_shape_valid(target_patterns)
    if extra_condition is not None:
        condition = all_of(condition, extra_condition)
    rule = MultiPatternRewrite.parse(name, sources, targets, condition=condition)
    return RuleDef(rule, tags=tags, example=example)


def multi_pattern_rules() -> List[RuleDef]:
    """The multi-pattern rule library."""
    rules: List[RuleDef] = []

    # ------------------------------------------------------------------ #
    # Figure 2 / Figure 8: two matmuls sharing their left operand.
    # ------------------------------------------------------------------ #
    rules.append(
        _multi(
            "matmul-merge-shared-lhs",
            sources=["(matmul ?act ?x ?w1)", "(matmul ?act ?x ?w2)"],
            targets=[
                "(split0 (split 1 (matmul ?act ?x (concat2 1 ?w1 ?w2))))",
                "(split1 (split 1 (matmul ?act ?x (concat2 1 ?w1 ?w2))))",
            ],
            example={
                "x": ("input", (6, 8)),
                "w1": ("weight", (8, 10)),
                "w2": ("weight", (8, 14)),
                "act": ("int", 0),
            },
            tags=("matmul", "merge", "fig8"),
            extra_condition=all_of(var_rank_is("x", 2), var_rank_is("w1", 2), var_rank_is("w2", 2)),
        )
    )

    # Batched variant: a rank-3 activation multiplied by two rank-2 weights.
    rules.append(
        _multi(
            "matmul-merge-shared-lhs-batched",
            sources=["(matmul ?act ?x ?w1)", "(matmul ?act ?x ?w2)"],
            targets=[
                "(split0 (split 2 (matmul ?act ?x (concat2 1 ?w1 ?w2))))",
                "(split1 (split 2 (matmul ?act ?x (concat2 1 ?w1 ?w2))))",
            ],
            example={
                "x": ("input", (2, 6, 8)),
                "w1": ("weight", (8, 10)),
                "w2": ("weight", (8, 14)),
                "act": ("int", 0),
            },
            tags=("matmul", "merge", "fig8", "batched"),
            extra_condition=all_of(var_rank_is("x", 3), var_rank_is("w1", 2), var_rank_is("w2", 2)),
        )
    )

    # Two matmuls sharing their right operand: concatenate the left operands
    # along the row axis and split the rows of the result.
    rules.append(
        _multi(
            "matmul-merge-shared-rhs",
            sources=["(matmul ?act ?x1 ?w)", "(matmul ?act ?x2 ?w)"],
            targets=[
                "(split0 (split 0 (matmul ?act (concat2 0 ?x1 ?x2) ?w)))",
                "(split1 (split 0 (matmul ?act (concat2 0 ?x1 ?x2) ?w)))",
            ],
            example={
                "x1": ("input", (6, 8)),
                "x2": ("input", (4, 8)),
                "w": ("weight", (8, 10)),
                "act": ("int", 0),
            },
            tags=("matmul", "merge"),
            extra_condition=all_of(var_rank_is("x1", 2), var_rank_is("x2", 2), var_rank_is("w", 2)),
        )
    )

    # ------------------------------------------------------------------ #
    # Figure 9: two convolutions sharing their input (same stride, padding and
    # activation) merge by concatenating kernels along the output-channel axis
    # and splitting the output channels.
    # ------------------------------------------------------------------ #
    rules.append(
        _multi(
            "conv-merge-shared-input",
            sources=[
                "(conv ?sh ?sw ?p ?act ?x ?w1)",
                "(conv ?sh ?sw ?p ?act ?x ?w2)",
            ],
            targets=[
                "(split0 (split 1 (conv ?sh ?sw ?p ?act ?x (concat2 0 ?w1 ?w2))))",
                "(split1 (split 1 (conv ?sh ?sw ?p ?act ?x (concat2 0 ?w1 ?w2))))",
            ],
            example={
                "x": ("input", (1, 8, 10, 10)),
                "w1": ("weight", (6, 8, 3, 3)),
                "w2": ("weight", (10, 8, 3, 3)),
                "sh": ("int", 1),
                "sw": ("int", 1),
                "p": ("int", 0),
                "act": ("int", 1),
            },
            tags=("conv", "merge", "fig9"),
            extra_condition=all_of(conv_not_grouped("x", "w1"), conv_not_grouped("x", "w2")),
        )
    )

    # Two convolutions with *different* kernel sizes sharing their input: the
    # smaller kernel is zero-padded (``enlarge``) to the larger one's size, then
    # the kernels are concatenated as above.  Only valid with SAME padding and
    # stride 1 (this is the rewrite SqueezeNet's fire modules benefit from,
    # where 1x1 and 3x3 expand convolutions share the squeeze output).
    rules.append(
        _multi(
            "conv-merge-enlarge",
            sources=[
                "(conv 1 1 0 ?act ?x ?w1)",
                "(conv 1 1 0 ?act ?x ?w2)",
            ],
            targets=[
                "(split0 (split 1 (conv 1 1 0 ?act ?x (concat2 0 (enlarge ?w1 ?w2) ?w2))))",
                "(split1 (split 1 (conv 1 1 0 ?act ?x (concat2 0 (enlarge ?w1 ?w2) ?w2))))",
            ],
            example={
                "x": ("input", (1, 8, 10, 10)),
                "w1": ("weight", (6, 8, 1, 1)),
                "w2": ("weight", (10, 8, 3, 3)),
                "act": ("int", 1),
            },
            tags=("conv", "merge", "enlarge"),
            extra_condition=all_of(
                conv_not_grouped("x", "w1"),
                conv_not_grouped("x", "w2"),
                enlarge_compatible("w1", "w2"),
            ),
        )
    )

    return rules
