"""The repository's benchmark: ``python3 perfbench/run.py --workload NAME``.

Runs one workload in fresh child processes, checks every output, and
prints every metric by name with its unit.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` the per-layer metrics of a traced run, with the same work
also run untraced to state the tracing overhead and to confirm that
tracing leaves the work counts unchanged.  The line before it is the
run's record: host facts, seed, sample counts and spreads.

Workloads, their configs and why they were chosen: ``perfbench/README.md``
and ``perfbench/workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SPANS_DIR = ROOT / ".perfbench"
SPEC_FILE = ROOT / "BENCHMARK.json"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, *extra: str) -> dict:
    """Start a fresh worker process, return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--spawned-at", repr(time.perf_counter()), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(extra)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_facts() -> dict:
    import numpy
    import scipy
    from scipy.optimize._highspy import _core as highs

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}.{highs.HIGHS_VERSION_PATCH}",
        "platform": platform.platform(),
    }


def paired_overhead(traced, untraced) -> float:
    """Tracing overhead: the median over operations of traced over untraced
    latency of the same operation, minus one.  A median of pairs, so that a
    host slowdown during a few operations does not set it."""
    return statistics.median(a / b for a, b in zip(traced, untraced)) - 1.0


def closed_loop(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run saturate/extract: start-up samples, the measured (or traced) loop, checks."""
    from repro.ir.onnx_import import import_onnx
    from repro.ir.serialize import graph_from_doc

    setup = []
    if not trace:
        for _ in range(workloads.SETUP_SAMPLES - 1):
            setup.append(run_worker(workload, seed, "--setup-only")["setup_s"])
    spans_out = str(SPANS_DIR / f"spans-{workload}-{seed}.json")
    main = run_worker(workload, seed, "--seconds", str(seconds), "--trace", str(int(trace)),
                      *(["--spans-out", spans_out] if trace else []))
    setup.append(main["setup_s"])
    keys, counts, lat = main["keys"], main["counts"], main["latencies"]

    failures = {}
    ilp = workload == "extract"
    for i, c in enumerate(counts):
        problem = checks.status_problem(c["stop"], c["status"], ilp=ilp)
        if problem:
            failures[i] = problem
    mismatched = checks.repeat_mismatches(keys, counts)
    for i in mismatched:
        failures[i] = "work counts differ from the first operation on this input"
    by_key = {inp.key: inp for inp in workloads.closed_loop_pass(workload, seed)}
    first = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    for key, i in first.items():
        inp = by_key[key]
        original = import_onnx(workloads.onnx_bytes(inp.onnx_file)) if inp.onnx_file else inp.build()
        problem = checks.graph_problem(original, graph_from_doc(main["optimized"][key]), seed)
        if problem:
            for j, other in enumerate(keys):
                if other == key:
                    failures[j] = f"{key}: {problem}"

    out = {
        "setup_samples": setup,
        "latencies": lat,
        # The closed loop has no cache: every operation runs the optimizer.
        # hit_p50_ms and miss_p50_ms therefore repeat lat_p50_ms here
        # (perfbench/README.md: not a cell a claim may name).
        "hit_latencies": lat,
        "miss_latencies": lat,
        "ops": len(lat),
        "wall_s": main["wall_s"],
        "failures": failures,
        "repeat_mismatch": len(mismatched),
        "cost_ratios": [counts[i]["optimized_cost"] / counts[i]["original_cost"] for i in first.values()],
        "signatures": {key: [counts[i][f] for f in checks.REPEAT_FIELDS] for key, i in first.items()},
        "peak_rss_mb": main["peak_rss_mb"],
        "wall_cpu_ratio": main["wall_cpu_ratio"],
        "enodes": statistics.fmean(c["enodes"] for c in counts),
        "iterations": statistics.fmean(c["iterations"] for c in counts),
    }
    if trace:
        untraced = main["untraced_latencies"]
        out["trace"] = main["trace"]
        out["overhead"] = paired_overhead(lat, untraced)
        out["trace_mismatch"] = sum(
            1 for a, b in zip(counts, main["untraced_counts"])
            if [a[f] for f in checks.REPEAT_FIELDS] != [b[f] for f in checks.REPEAT_FIELDS]
        )
    return out


def serve_run(seed: int, seconds: float, trace: bool) -> dict:
    import serve
    import tracing

    spans_out = str(SPANS_DIR / f"spans-serve-{seed}.json")
    out = serve.run(ROOT, child_env(), seed, seconds, traced=trace, spans_out=spans_out,
                    setup_samples=1 if trace else workloads.SETUP_SAMPLES)
    out["enodes"] = statistics.fmean(s["enodes"] for s in out["miss_stats"])
    out["iterations"] = statistics.fmean(s["iterations"] for s in out["miss_stats"])
    if trace:
        snap = tracing.Tracer.load(spans_out).snapshot(*out["window"])
        ref = out["reference"]
        out["trace"] = snap
        out["overhead"] = paired_overhead(out["latencies"], ref["latencies"])
        out["trace_mismatch"] = sum(
            1 for key, sig in out["signatures"].items()
            if key in ref["signatures"] and ref["signatures"][key] != sig
        )
        handled = snap["op_durations"]
        out["io_ms"] = 1000.0 * (sum(out["client_io_s"]) - sum(handled)) / max(len(handled), 1)
    return out


def end_to_end(res: dict) -> dict:
    lat_ms = [1000.0 * t for t in res["latencies"]]
    return {
        "setup_s": statistics.median(res["setup_samples"]),
        "ops_per_s": res["ops"] / res["wall_s"],
        "lat_p50_ms": checks.percentile(lat_ms, 50),
        "lat_p90_ms": checks.percentile(lat_ms, 90),
        "hit_p50_ms": 1000.0 * checks.percentile(res["hit_latencies"], 50),
        "miss_p50_ms": 1000.0 * checks.percentile(res["miss_latencies"], 50),
        "cost_ratio": checks.geomean(res["cost_ratios"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": 1.0 - len(res["failures"]) / res["ops"],
    }


def per_layer(workload: str, res: dict) -> dict:
    import tracing

    snap = res["trace"]
    metrics = tracing.layer_metrics(snap, res["ops"])
    metrics["egraph.enodes"] = res["enodes"]
    metrics["egraph.iterations"] = res["iterations"]
    metrics["service.queue_wait_ms"] = res.get("queue_wait_ms", 0.0)
    metrics["service.io_ms"] = res.get("io_ms", 0.0)
    metrics["service.evictions"] = float(res.get("evictions", 0))
    metrics["bench.late_ms"] = res.get("late_p90_ms", 0.0)
    metrics["bench.wall_cpu_ratio"] = res["wall_cpu_ratio"]
    metrics["bench.trace_overhead_frac"] = res["overhead"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=workloads.DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    SPANS_DIR.mkdir(exist_ok=True)
    trace = bool(args.trace)

    if args.workload == "serve":
        res = serve_run(args.seed, args.seconds, trace)
    else:
        res = closed_loop(args.workload, args.seed, args.seconds, trace)

    e2e = end_to_end(res)
    p90 = e2e["lat_p90_ms"]
    p90_beyond = checks.beyond([1000.0 * t for t in res["latencies"]], p90)
    for i, why in sorted(res["failures"].items()):
        print(f"FAILED op {i}: {why}")
    problems = []
    if res["repeat_mismatch"]:
        problems.append(f"{res['repeat_mismatch']} inputs did not repeat their work counts")
    if trace and res["trace_mismatch"]:
        problems.append(f"{res['trace_mismatch']} operations changed work counts under tracing")
    if p90_beyond < 10 and not trace:
        problems.append(f"only {p90_beyond} samples beyond lat_p90_ms (need 10)")
    for why in problems:
        print(f"FAILED check: {why}")

    # Names, order and units come from BENCHMARK.json.
    spec = json.loads(SPEC_FILE.read_text())["per_layer" if trace else "end_to_end"]
    values = per_layer(args.workload, res) if trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:14.6f} {metric['unit']}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "host": host_facts(),
        "ops": res["ops"],
        "samples": {
            "lat": len(res["latencies"]), "lat_p90_beyond": p90_beyond,
            "hit": len(res["hit_latencies"]), "miss": len(res["miss_latencies"]),
            "setup": len(res["setup_samples"]), "distinct_inputs": len(res["cost_ratios"]),
        },
        "lat_ms_quartiles": checks.quartiles([1000.0 * t for t in res["latencies"]]),
        "setup_s_quartiles": checks.quartiles(res["setup_samples"]),
        "bench.wall_cpu_ratio": res["wall_cpu_ratio"],
        "bench.late_ms": res.get("late_p90_ms", 0.0),
        "work_counts": res["signatures"],
    }
    if args.workload == "serve":
        record["hit_frac"] = res["hit_frac"]
        record["evictions"] = res["evictions"]
        record["daemon_cpu_s"] = res["daemon_cpu_s"]
    if trace:
        import tracing

        record["trace_overhead_frac"] = res["overhead"]
        record["family_shares"] = tracing.family_shares(res["trace"])
        record["self_ms_per_op"] = {
            name: 1000.0 * s / max(res["ops"], 1) for name, s in sorted(res["trace"]["self_s"].items())
        }
    print("record " + json.dumps(record, sort_keys=True))

    failed = len(res["failures"])
    summary = {
        "correct": failed == 0 and not problems,
        "attempted": res["ops"],
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
