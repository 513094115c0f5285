"""Name-table tests: each strategy knob names an entry of one plain table.

``SCHEDULERS`` (``repro.egraph.scheduler``), ``EXTRACTORS``
(``repro.egraph.extraction``) and ``CYCLE_FILTERS`` (``repro.egraph.cycles``)
map names to factories.  Config validation and the CLI's ``choices=`` derive
from them, and an unknown name fails with the available names listed.
"""

from __future__ import annotations

import pytest

from repro import TensatConfig
from repro.cli import build_parser
from repro.egraph.cycles import CYCLE_FILTERS, make_cycle_filter
from repro.egraph.extraction import EXTRACTORS, GreedyExtractor, ILPExtractor
from repro.egraph.scheduler import SCHEDULERS, make_scheduler


class TestNameTables:
    def test_unknown_name_error_lists_available(self):
        with pytest.raises(ValueError, match=r"unknown scheduler 'nope'; available: simple, backoff"):
            make_scheduler("nope")
        with pytest.raises(ValueError, match=r"unknown cycle filter 'nope'; available: efficient, vanilla, none"):
            make_cycle_filter("nope")


class TestBuiltinEntries:
    def test_builtin_names(self):
        assert tuple(SCHEDULERS) == ("simple", "backoff")
        assert tuple(EXTRACTORS) == ("ilp", "greedy")
        assert tuple(CYCLE_FILTERS) == ("efficient", "vanilla", "none")

    def test_extractor_factories_read_the_config(self):
        config = TensatConfig(ilp_cycle_constraints=True, ilp_time_limit=7.0, ilp_mip_gap=0.1)
        ilp = EXTRACTORS["ilp"](lambda node, egraph: 1.0, config, None)
        assert isinstance(ilp, ILPExtractor)
        assert (ilp.with_cycle_constraints, ilp.time_limit, ilp.mip_rel_gap) == (True, 7.0, 0.1)
        assert (ilp.integer_topo, ilp.reduce_problem) == (False, True)
        assert isinstance(EXTRACTORS["greedy"](lambda node, egraph: 1.0, config, None), GreedyExtractor)

    def test_config_validation_error_lists_choices(self):
        with pytest.raises(ValueError, match="available"):
            TensatConfig(scheduler="regex")
        with pytest.raises(ValueError, match="available"):
            TensatConfig(extraction="random")
        with pytest.raises(ValueError, match="available"):
            TensatConfig(cycle_filter="sometimes")

    def test_cli_choices_derive_from_registries(self):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if hasattr(a, "choices") and "optimize" in (a.choices or {})
        )
        actions = {a.dest: a for a in subparsers.choices["optimize"]._actions}
        assert tuple(actions["scheduler"].choices) == tuple(SCHEDULERS)
        assert tuple(actions["extraction"].choices) == tuple(EXTRACTORS)
        assert tuple(actions["cycle_filter"].choices) == tuple(CYCLE_FILTERS)
