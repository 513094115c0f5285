"""Tests for tools/bench_compare.py on synthetic perfbench output."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_compare", REPO_ROOT / "tools" / "bench_compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_compare = load_tool()

SPEC = {
    "end_to_end": [
        {"name": "lat_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ]
}


def write_run(path, metrics, workload="extract", seed=1, trace=False):
    """A perfbench stdout: metric lines, the record line, the final JSON line."""
    record = {
        "workload": workload, "seed": seed, "seconds": 5.0, "trace": trace,
        "host": {"nproc": 2, "python": "3.12.0"}, "ops": 10,
    }
    result = {
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {name: {"value": value, "unit": "u"} for name, value in metrics.items()},
    }
    lines = [f"{name:32s} {value:14.6f} u" for name, value in metrics.items()]
    lines += ["record " + json.dumps(record), json.dumps(result)]
    path.write_text("\n".join(lines) + "\n")
    return path


def run(tmp_path, parent, change, spec=SPEC, extra=()):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    p = [write_run(tmp_path / f"p{i}.txt", m) for i, m in enumerate(parent)]
    c = [write_run(tmp_path / f"c{i}.txt", m) for i, m in enumerate(change)]
    args = ["--spec", str(spec_file), "--parent", *map(str, p), "--change", *map(str, c), *extra]
    return bench_compare.main(args)


def rows(tmp_path, parent, change):
    runs = [
        [bench_compare.read_run(write_run(tmp_path / f"{side}{i}.txt", m)) for i, m in enumerate(ms)]
        for side, ms in (("p", parent), ("c", change))
    ]
    table = bench_compare.compare(runs[0], runs[1], SPEC)
    return {row["metric"]: row for row in table["extract seed 1"]}


class TestVerdicts:
    @pytest.mark.parametrize(
        "change, expected",
        [(60.0, "improved"), (110.0, "within bound"), (90.0, "within bound"), (130.0, "worse than bound")],
    )
    def test_lower_is_better(self, tmp_path, change, expected):
        table = rows(tmp_path, [{"lat_p50_ms": 100.0, "ops_per_s": 1.0}], [{"lat_p50_ms": change, "ops_per_s": 1.0}])
        assert table["lat_p50_ms"]["verdict"] == expected
        assert table["lat_p50_ms"]["delta"] == pytest.approx((change - 100.0) / 100.0)

    @pytest.mark.parametrize(
        "change, expected",
        [(13.0, "improved"), (9.0, "within bound"), (7.0, "worse than bound")],
    )
    def test_higher_is_better(self, tmp_path, change, expected):
        table = rows(tmp_path, [{"lat_p50_ms": 1.0, "ops_per_s": 10.0}], [{"lat_p50_ms": 1.0, "ops_per_s": change}])
        assert table["ops_per_s"]["verdict"] == expected

    def test_medians_over_runs(self, tmp_path):
        parent = [{"lat_p50_ms": v, "ops_per_s": 1.0} for v in (100.0, 104.0, 500.0)]
        change = [{"lat_p50_ms": v, "ops_per_s": 1.0} for v in (10.0, 50.0, 60.0)]
        row = rows(tmp_path, parent, change)["lat_p50_ms"]
        assert (row["parent"], row["change"]) == (104.0, 50.0)
        assert row["verdict"] == "improved"

    def test_missing_metric_fails(self, tmp_path, capsys):
        status = run(tmp_path, [{"lat_p50_ms": 1.0, "ops_per_s": 1.0}], [{"lat_p50_ms": 1.0}])
        assert status == 1
        out = capsys.readouterr().out
        assert "ops_per_s" in out and "missing" in out

    def test_worse_than_bound_fails(self, tmp_path):
        assert run(tmp_path, [{"lat_p50_ms": 1.0, "ops_per_s": 1.0}], [{"lat_p50_ms": 2.0, "ops_per_s": 1.0}]) == 1


class TestFiles:
    def test_same_run_on_both_sides_is_within_bound(self, tmp_path, capsys):
        spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        metrics = {m["name"]: 1.5 for m in spec["end_to_end"]}
        path = write_run(tmp_path / "run.txt", metrics)
        status = bench_compare.main(["--parent", str(path), "--change", str(path)])
        out = capsys.readouterr().out
        assert status == 0
        assert out.count("within bound") == len(spec["end_to_end"])

    def test_write_saves_runs_and_host(self, tmp_path):
        out = tmp_path / "bench.json"
        status = run(
            tmp_path, [{"lat_p50_ms": 1.0, "ops_per_s": 1.0}], [{"lat_p50_ms": 1.0, "ops_per_s": 1.0}],
            extra=["--write", str(out)],
        )
        doc = json.loads(out.read_text())
        assert status == 0
        assert doc["parent"][0]["host"]["nproc"] == 2
        assert doc["comparison"]["extract seed 1"][0]["verdict"] == "within bound"

    def test_traced_run_is_rejected(self, tmp_path):
        path = write_run(tmp_path / "traced.txt", {"extraction.ilp_ms": 1.0}, trace=True)
        assert bench_compare.main(["--parent", str(path), "--change", str(path)]) == 2
