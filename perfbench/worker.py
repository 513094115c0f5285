"""Child process of the closed-loop workloads (``saturate`` and ``extract``).

Started fresh for every run by ``perfbench/run.py``; never run by hand.  It
times its own start-up (process start to ready: imports, rule library,
rule-trie compile), then -- unless ``--setup-only`` -- runs the closed
loop: one caller, each operation one ``optimize_many([g], shared_trie=...)``
call on the next input of the seeded pass, until ``--seconds`` are up.
ONNX inputs are imported from bytes inside the operation.  With
``--trace 1`` each input runs twice in a row, traced and then untraced.

It prints one JSON object on its last stdout line: latencies, the work
counts of every operation, the optimized graph of every distinct input (for
the parent's output checks) and, with ``--trace 1``, the layer spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _ready():
    """Everything a caller needs before its first operation.

    The modules are returned, not their functions, so that the functions
    are looked up at call time and the traced run sees its wrappers.
    """
    from repro.core import batch
    from repro.ir import onnx_import
    from repro.rules.library import default_ruleset

    return batch, onnx_import, default_ruleset()


def work_counts(result) -> dict:
    """The exact-repeat fingerprint of one operation."""
    from repro.service.fingerprint import graph_fingerprint

    report = result.runner_report
    stats = result.stats
    return {
        "iterations": stats.exploration_iterations,
        "enodes": stats.num_enodes,
        "matches": sum(it.n_matches for it in report.iterations),
        "applied": sum(it.n_applied for it in report.iterations),
        "ilp_vars": stats.ilp_num_variables,
        "stop": stats.stop_reason,
        "status": stats.extraction_status,
        "original_cost": stats.original_cost,
        "optimized_cost": stats.optimized_cost,
        "output": graph_fingerprint(result.optimized)[:16],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=("saturate", "extract"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans-out", default="")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    batch, onnx_import, rules = _ready()
    config = workloads.workload_config(args.workload)
    trie = batch.compile_shared_trie(rules, config)
    setup_s = time.perf_counter() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from repro.ir.serialize import graph_to_doc

    one_pass = workloads.closed_loop_pass(args.workload, args.seed)
    prepared = {}
    for inp in one_pass:
        if inp.key not in prepared:
            prepared[inp.key] = workloads.onnx_bytes(inp.onnx_file) if inp.onnx_file else inp.build()

    tracer = switch = None
    if args.trace:
        tracer = tracing.Tracer()
        switch = tracing.install(tracer, closed_loop=True)

    # With tracing, operations come in pairs on the same input: traced, then
    # untraced with the program's own functions restored.  Both halves of a
    # pair see the same host conditions, so their ratio is the tracing
    # overhead, and their work counts must agree.
    step = 2 if tracer else 1
    latencies, keys, counts, untraced_latencies, untraced_counts = [], [], [], [], []
    optimized_docs = {}
    # Only the operations themselves are on the clock: the benchmark's own
    # work between them (work counts, output documents) is not.
    busy_wall = busy_cpu = 0.0
    deadline = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < deadline or i % step:
        inp = one_pass[(i // step) % len(one_pass)]
        source = prepared[inp.key]
        traced = tracer is not None and i % 2 == 0
        if traced:
            switch.on()
            span = tracer.begin(tracing.OP)
        elif tracer:
            switch.off()
        c0 = time.process_time()
        t0 = time.perf_counter()
        graph = onnx_import.import_onnx(source) if inp.onnx_file else source
        result = batch.optimize_many([graph], rules=rules, config=config, shared_trie=trie)[0]
        elapsed = time.perf_counter() - t0
        busy_cpu += time.process_time() - c0
        busy_wall += elapsed
        if traced:
            tracer.end(span)
        if tracer and not traced:
            untraced_latencies.append(elapsed)
            untraced_counts.append(work_counts(result))
        else:
            latencies.append(elapsed)
            keys.append(inp.key)
            counts.append(work_counts(result))
        if inp.key not in optimized_docs:
            optimized_docs[inp.key] = graph_to_doc(result.optimized)
        i += 1

    out = {
        "setup_s": setup_s,
        "latencies": latencies,
        "keys": keys,
        "counts": counts,
        "optimized": optimized_docs,
        "wall_s": busy_wall,
        "wall_cpu_ratio": busy_wall / busy_cpu if busy_cpu > 0 else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        switch.off()
        out["untraced_latencies"] = untraced_latencies
        out["untraced_counts"] = untraced_counts
        out["trace"] = tracer.snapshot()
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
