"""The benchmark's own check: held-out seed, exact repeats, spread.

    python3 perfbench/selfcheck.py [--repeats N]

For every workload, at the benchmark's own run length
(``workloads.DEFAULT_SECONDS``), it

* runs the traced benchmark on the default seed and on the held-out seed
  and confirms the workload keeps the shape it was chosen for: on
  ``saturate`` the e-graph layers take most of the traced self time, on
  ``extract`` the extraction layers do, and on ``serve`` the hit share
  stays inside ``SERVE_HIT_BAND``;
* runs the untraced benchmark twice on the default seed and requires the
  work counts of every distinct input (iterations, e-nodes, matches,
  applied rewrites, ILP variables, output fingerprints) and ``cost_ratio``
  to be identical, and both runs to report ``correct``;
* with ``--repeats N``, runs N more untraced runs and prints the median
  and quartiles of every end-to-end metric.

It prints one JSON summary and exits non-zero if any check failed.  A
later claim can be re-checked on the held-out seed with
``perfbench/run.py --seed`` and the value printed here.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402


def bench(workload: str, seed: int, trace: int):
    """One benchmark run: (record, result) parsed from its last two lines."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(workloads.DEFAULT_SECONDS), "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2].split(" ", 1)[1])
    return record, json.loads(lines[-1])


def shape_problem(workload: str, record: dict):
    if workload == "serve":
        lo, hi = workloads.SERVE_HIT_BAND
        share = record["hit_frac"]
        return None if lo <= share <= hi else f"hit share {share:.3f} outside [{lo}, {hi}]"
    family = "egraph" if workload == "saturate" else "extraction"
    share = record["family_shares"][family]
    return None if share > 0.5 else f"{family} layers take only {share:.1%} of the self time"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=0)
    args = parser.parse_args(argv)

    summary, failures = {}, []
    for workload in workloads.WORKLOADS:
        entry = summary[workload] = {}
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            record, result = bench(workload, seed, trace=1)
            problem = shape_problem(workload, record)
            entry[f"shape_seed_{seed}"] = problem or "ok"
            entry[f"trace_overhead_seed_{seed}"] = record["trace_overhead_frac"]
            if problem or not result["correct"]:
                failures.append(f"{workload} seed {seed}: {problem or 'traced run not correct'}")

        runs = [bench(workload, workloads.DEFAULT_SEED, trace=0)
                for _ in range(2 + args.repeats)]
        first_record, first_result = runs[0]
        for record, result in runs[1:]:
            if record["work_counts"] != first_record["work_counts"]:
                failures.append(f"{workload}: work counts differ between runs of one seed")
            if result["metrics"]["cost_ratio"] != first_result["metrics"]["cost_ratio"]:
                failures.append(f"{workload}: cost_ratio differs between runs of one seed")
        if not all(result["correct"] for _, result in runs):
            failures.append(f"{workload}: an untraced run was not correct")
        entry["spread"] = {
            name: {
                "median": statistics.median(values),
                "quartiles": checks.quartiles(values),
            }
            for name in first_result["metrics"]
            for values in [[r["metrics"][name]["value"] for _, r in runs]]
        }
        entry["runs"] = len(runs)

    print(json.dumps({"ok": not failures, "failures": failures, "workloads": summary}, indent=2))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
