"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.ir.serialize import load_graph


class TestParser:
    def test_optimize_defaults(self):
        args = build_parser().parse_args(["optimize", "--model", "nasrnn"])
        assert args.model == "nasrnn"
        assert args.scale == "tiny"
        assert args.extraction == "ilp"

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["optimize", "--model", "alexnet"])

    def test_engine_knob_defaults(self):
        args = build_parser().parse_args(["optimize", "--model", "nasrnn"])
        assert args.scheduler == "simple"
        assert args.cycle_filter == "efficient"

    def test_engine_knobs_parse(self):
        args = build_parser().parse_args(
            [
                "optimize", "--model", "nasrnn",
                "--cycle-filter", "vanilla",
                "--scheduler", "backoff",
            ]
        )
        assert args.cycle_filter == "vanilla"
        assert args.scheduler == "backoff"

    # --matcher and --search-mode are removed flags: argparse rejects them.
    @pytest.mark.parametrize("flag,value", [
        ("--matcher", "regex"),
        ("--search-mode", "hash"),
        ("--scheduler", "adaptive"),
    ])
    def test_invalid_engine_knobs_rejected(self, flag, value):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["optimize", "--model", "nasrnn", flag, value])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_models_lists_all(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "nasrnn" in out and "inception" in out

    def test_rules_listing_and_tag_filter(self, capsys):
        assert main(["rules"]) == 0
        everything = capsys.readouterr().out
        assert "matmul-merge-shared-lhs" in everything
        assert main(["rules", "--tag", "merge"]) == 0
        merges = capsys.readouterr().out
        assert "matmul-merge-shared-lhs" in merges
        assert "fuse-matmul-relu" not in merges

    def test_optimize_json_output(self, capsys):
        code = main(
            [
                "optimize",
                "--model", "nasrnn",
                "--scale", "tiny",
                "--node-limit", "1000",
                "--iter-limit", "4",
                "--ilp-time-limit", "20",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["speedup_percent"] >= 0
        assert payload["enodes"] > 0
        # The phase breakdown of exploration time is part of the JSON contract.
        for key in ("search_seconds", "apply_seconds", "rebuild_seconds"):
            assert key in payload
            assert payload[key] >= 0
        assert (
            payload["search_seconds"] + payload["apply_seconds"] + payload["rebuild_seconds"]
            <= payload["exploration_seconds"] + 1e-6
        )

    def test_optimize_with_engine_knobs(self, capsys):
        code = main(
            [
                "optimize",
                "--model", "nasrnn",
                "--scale", "tiny",
                "--node-limit", "800",
                "--iter-limit", "3",
                "--extraction", "greedy",
                "--cycle-filter", "vanilla",
                "--scheduler", "backoff",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["enodes"] > 0

    @pytest.mark.parametrize(
        "flag, value", [("--ilp-time-limit", "-1"), ("--ilp-time-limit", "nan"), ("--node-limit", "0")]
    )
    def test_optimize_rejects_out_of_range_config(self, flag, value, capsys):
        # TensatConfig's range check answers, without a traceback.
        assert main(["optimize", "--model", "nasrnn", flag, value]) == 2
        assert flag.lstrip("-").replace("-", "_") in capsys.readouterr().err

    def test_optimize_writes_graph_file(self, tmp_path, capsys):
        out_path = str(tmp_path / "optimized.json")
        code = main(
            [
                "optimize",
                "--model", "nasrnn",
                "--scale", "tiny",
                "--node-limit", "1000",
                "--iter-limit", "4",
                "--ilp-time-limit", "20",
                "--output", out_path,
            ]
        )
        assert code == 0
        graph = load_graph(out_path)
        assert graph.num_compute_nodes() > 0

    def test_compare_json(self, capsys):
        code = main(
            ["compare", "--model", "vgg", "--scale", "tiny", "--taso-budget", "5", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tensat"]["speedup_percent"] >= 0
        assert payload["taso"]["total_seconds"] >= 0
