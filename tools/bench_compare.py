#!/usr/bin/env python
"""Compare perfbench runs of a parent tree and a change against BENCHMARK.json.

Each input file is the saved stdout of one ``perfbench/run.py`` run: its
``record`` line names the workload, seed and host, and its last line is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.  Give one or
more runs per side::

    python tools/bench_compare.py --parent p1.txt p2.txt --change c1.txt c2.txt

Runs are grouped by workload and seed, and each metric is the median over
that side's runs in the group.  For every end-to-end metric in
``BENCHMARK.json`` the tool prints the parent value, the change value, the
relative delta ``(change - parent) / |parent|`` and a verdict, using the
metric's ``better`` direction and ``bound``:

* ``improved``: better by more than the bound;
* ``within bound``: within the bound either way;
* ``worse than bound``: worse by more than the bound;
* ``missing``: absent from one side's output.

Exit status is 1 when any metric is worse than its bound or missing, else 0.
``--write FILE`` also saves the runs (host facts, seed, metrics, failures)
and the comparison as JSON.  Traced runs (``--trace 1``) report per-layer
metrics, not end-to-end ones, and are rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent

IMPROVED = "improved"
WITHIN = "within bound"
WORSE = "worse than bound"
MISSING = "missing"


def read_run(path: Path) -> dict:
    """The record and the final result of one saved perfbench run."""
    record: Optional[dict] = None
    result: Optional[dict] = None
    for line in path.read_text().splitlines():
        if line.startswith("record "):
            record = json.loads(line[len("record "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if record is None or result is None:
        raise ValueError(f"{path}: no perfbench record line and final JSON line")
    if record.get("trace"):
        raise ValueError(f"{path}: a traced run has no end-to-end metrics")
    return {
        "file": path.name,
        "workload": record["workload"],
        "seed": record["seed"],
        "seconds": record["seconds"],
        "host": record["host"],
        "ops": record["ops"],
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def verdict(parent: float, change: float, better: str, bound: float) -> tuple:
    """``(relative delta, verdict)`` of one metric."""
    if parent == change:
        delta = 0.0
    elif parent == 0:
        delta = math.copysign(math.inf, change - parent)
    else:
        delta = (change - parent) / abs(parent)
    gain = -delta if better == "lower" else delta
    if gain > bound:
        return delta, IMPROVED
    if gain < -bound:
        return delta, WORSE
    return delta, WITHIN


def group(run: dict) -> str:
    return f"{run['workload']} seed {run['seed']}"


def compare(parent_runs: Sequence[dict], change_runs: Sequence[dict], spec: dict) -> Dict[str, List[dict]]:
    """Per workload and seed, one row per end-to-end metric of ``spec``."""
    groups = sorted({group(r) for r in parent_runs} | {group(r) for r in change_runs})
    table: Dict[str, List[dict]] = {}
    for key in groups:
        rows = []
        sides = [[r["metrics"] for r in runs if group(r) == key] for runs in (parent_runs, change_runs)]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [[m[name] for m in side if name in m] for side in sides]
            row = {"metric": name, "unit": metric["unit"], "bound": metric["bound"]}
            if not values[0] or not values[1]:
                row.update(parent=None, change=None, delta=None, verdict=MISSING)
            else:
                parent, change = (statistics.median(v) for v in values)
                delta, word = verdict(parent, change, metric["better"], metric["bound"])
                row.update(parent=parent, change=change, delta=delta, verdict=word)
            rows.append(row)
        table[key] = rows
    return table


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.6g}"


def render(table: Dict[str, List[dict]], parent_runs: Sequence[dict], change_runs: Sequence[dict]) -> str:
    lines = []
    for key, rows in table.items():
        counts = []
        for side, runs in (("parent", parent_runs), ("change", change_runs)):
            mine = [r for r in runs if group(r) == key]
            counts.append(f"{side} {len(mine)} runs, failed {sum(r['failed'] for r in mine)}")
        lines.append(f"{key}: " + "; ".join(counts))
        lines.append(f"  {'metric':14s} {'unit':6s} {'parent':>12s} {'change':>12s} {'delta':>8s} {'bound':>6s}  verdict")
        for row in rows:
            delta = "-" if row["delta"] is None else f"{row['delta']:+.1%}"
            lines.append(
                f"  {row['metric']:14s} {row['unit']:6s} {_fmt(row['parent']):>12s} "
                f"{_fmt(row['change']):>12s} {delta:>8s} {row['bound']:>6g}  {row['verdict']}"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, type=Path, help="saved parent runs")
    parser.add_argument("--change", nargs="+", required=True, type=Path, help="saved change runs")
    parser.add_argument("--spec", type=Path, default=REPO_ROOT / "BENCHMARK.json")
    parser.add_argument("--write", type=Path, help="also save runs and comparison as JSON")
    args = parser.parse_args(argv)

    spec = json.loads(args.spec.read_text())
    try:
        parent_runs = [read_run(p) for p in args.parent]
        change_runs = [read_run(p) for p in args.change]
    except ValueError as exc:
        print(f"bench_compare: {exc}", file=sys.stderr)
        return 2
    table = compare(parent_runs, change_runs, spec)
    print(render(table, parent_runs, change_runs))
    if args.write is not None:
        doc = {"parent": parent_runs, "change": change_runs, "comparison": table}
        args.write.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    bad = [row for rows in table.values() for row in rows if row["verdict"] in (WORSE, MISSING)]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
