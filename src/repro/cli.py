"""Command-line interface.

Examples::

    python -m repro optimize --model nasrnn --scale tiny
    python -m repro optimize --model bert --scale small --k-multi 2 --extraction ilp
    python -m repro optimize --onnx model.onnx --fix-dim batch=1
    python -m repro import --onnx model.onnx --output model.json
    python -m repro compare --model squeezenet --scale tiny --taso-budget 30
    python -m repro models
    python -m repro rules --tag merge
    python -m repro serve --port 8077
    python -m repro submit --model nasrnn --scale tiny --set extraction=greedy
    python -m repro submit --onnx model.onnx --set extraction=greedy
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.core import TensatConfig, compare, optimize
from repro.costs import AnalyticCostModel
from repro.egraph.cycles import CYCLE_FILTERS
from repro.egraph.extraction import EXTRACTORS
from repro.egraph.scheduler import SCHEDULERS
from repro.ir.serialize import graph_to_doc, load_graph, save_graph
from repro.models import MODEL_NAMES, build_model, load_onnx_model, parse_dim_overrides
from repro.rules import default_ruleset
from repro.service.server import ServiceConfig

__all__ = ["main", "build_parser"]


#: Engine-knob defaults come from the config dataclass itself, so the CLI can
#: never drift from what library users get; choices come straight from the
#: name tables (tools/check_api.py asserts they stay in lockstep).
_CONFIG_DEFAULTS = TensatConfig()

#: Service-knob defaults likewise come from the ServiceConfig dataclass
#: (tools/check_api.py asserts the `serve` flags stay in lockstep).
_SERVICE_DEFAULTS = ServiceConfig()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description="TENSAT reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p):
        p.add_argument("--model", required=True, choices=MODEL_NAMES, help="benchmark model to optimize")
        p.add_argument("--scale", default="tiny", choices=("tiny", "small", "full"))

    def add_fix_dim(p):
        p.add_argument(
            "--fix-dim", dest="fix_dims", action="append", default=[], metavar="NAME=VALUE",
            help="pin a symbolic ONNX input dimension (dim_param), repeatable, "
                 "e.g. --fix-dim batch=1",
        )

    opt = sub.add_parser("optimize", help="optimize one model graph with TENSAT")
    opt_source = opt.add_mutually_exclusive_group(required=True)
    opt_source.add_argument("--model", choices=MODEL_NAMES, help="benchmark model to optimize")
    opt_source.add_argument("--onnx", metavar="FILE", help="import this ONNX model and optimize it")
    opt.add_argument("--scale", default="tiny", choices=("tiny", "small", "full"))
    add_fix_dim(opt)
    opt.add_argument("--k-multi", type=int, default=1, help="iterations of multi-pattern rewrites")
    opt.add_argument("--node-limit", type=int, default=5_000)
    opt.add_argument("--iter-limit", type=int, default=8)
    opt.add_argument("--extraction", choices=tuple(EXTRACTORS), default="ilp")
    opt.add_argument("--ilp-time-limit", type=float, default=60.0)
    opt.add_argument("--cycle-filter", choices=tuple(CYCLE_FILTERS), default="efficient")
    opt.add_argument(
        "--scheduler", choices=tuple(SCHEDULERS), default=_CONFIG_DEFAULTS.scheduler,
        help="rule scheduling: every rule every iteration, or egg-style backoff",
    )
    opt.add_argument("--output", help="write the optimized graph to this path (.json or .sexpr)")
    opt.add_argument("--json", action="store_true", help="print machine-readable stats")

    imp = sub.add_parser("import", help="import an ONNX model and print / save the tensor-graph IR")
    imp.add_argument("--onnx", required=True, metavar="FILE", help="path to the .onnx file")
    imp.add_argument("--name", help="override the imported graph's name")
    add_fix_dim(imp)
    imp.add_argument("--output", help="write the imported graph to this path (.json or .sexpr)")
    imp.add_argument("--json", action="store_true", help="print the node-list document as JSON")

    cmp = sub.add_parser("compare", help="compare TENSAT against the TASO-style backtracking baseline")
    add_model_args(cmp)
    cmp.add_argument("--k-multi", type=int, default=1)
    cmp.add_argument("--taso-budget", type=int, default=30, help="backtracking queue pops")
    cmp.add_argument("--json", action="store_true")

    sub.add_parser("models", help="list available benchmark models")

    rules = sub.add_parser("rules", help="list the rewrite-rule library")
    rules.add_argument("--tag", help="only rules carrying this tag")

    serve = sub.add_parser(
        "serve",
        help="run the optimization service daemon (long-lived, with a result cache)",
    )
    serve.add_argument("--host", default=_SERVICE_DEFAULTS.host)
    serve.add_argument(
        "--port", type=int, default=_SERVICE_DEFAULTS.port,
        help="TCP port to bind (0 picks an ephemeral port; the bound port is printed)",
    )
    serve.add_argument(
        "--max-concurrency", type=int, default=_SERVICE_DEFAULTS.max_concurrency,
        help="worker threads running cache-missed optimizations concurrently",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=_SERVICE_DEFAULTS.queue_limit,
        help="requests allowed to wait beyond the running ones before "
             "admission fails fast with a queue_full error",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=_SERVICE_DEFAULTS.request_timeout,
        help="per-request wall-clock budget in seconds (exceeding it returns "
             "a typed timeout error)",
    )
    serve.add_argument(
        "--cache-capacity", type=int, default=_SERVICE_DEFAULTS.cache_capacity,
        help="bounded LRU capacity of the fingerprint-keyed result cache",
    )
    serve.add_argument(
        "--json", action="store_true",
        help="print the final status counters (cache traffic, queue wait) as JSON on shutdown",
    )

    submit = sub.add_parser("submit", help="submit a graph to a running optimization service")
    submit.add_argument("--host", default=_SERVICE_DEFAULTS.host)
    submit.add_argument("--port", type=int, default=_SERVICE_DEFAULTS.port)
    source = submit.add_mutually_exclusive_group()
    source.add_argument("--model", choices=MODEL_NAMES, help="benchmark model to submit")
    source.add_argument("--graph", help="path to a serialized graph (.json node-list document)")
    source.add_argument("--onnx", metavar="FILE", help="import this ONNX model and submit it")
    source.add_argument("--status", action="store_true", help="query the server's status counters")
    source.add_argument("--shutdown", action="store_true", help="ask the server to shut down cleanly")
    submit.add_argument("--scale", default="tiny", choices=("tiny", "small", "full"))
    add_fix_dim(submit)
    submit.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="per-request TensatConfig override, repeatable (validated "
             "server-side against TensatConfig and its name tables)",
    )
    submit.add_argument("--output", help="write the optimized graph to this path (.json or .sexpr)")
    submit.add_argument("--json", action="store_true", help="print the raw response as JSON")

    return parser


def _config_from_args(args) -> TensatConfig:
    cycle_filter = args.cycle_filter
    return TensatConfig(
        node_limit=args.node_limit,
        iter_limit=args.iter_limit,
        k_multi=args.k_multi,
        extraction=args.extraction,
        ilp_time_limit=args.ilp_time_limit,
        cycle_filter=cycle_filter,
        ilp_cycle_constraints=(cycle_filter == "none"),
        scheduler=args.scheduler,
    )


def _load_onnx_arg(args):
    """Import the graph named by ``--onnx`` / ``--fix-dim``; raises OnnxImportError."""
    name = getattr(args, "name", None)
    return load_onnx_model(
        args.onnx, name=name, dim_overrides=parse_dim_overrides(args.fix_dims)
    )


def _cmd_import(args) -> int:
    from repro.ir.onnx_import import OnnxImportError

    try:
        graph = _load_onnx_arg(args)
    except OnnxImportError as exc:
        print(f"import failed: {exc}", file=sys.stderr)
        return 1
    if args.output:
        save_graph(graph, args.output)
    if args.json:
        print(json.dumps(graph_to_doc(graph), indent=2))
    else:
        print(graph.describe())
        for out in graph.outputs:
            node = graph.nodes[out]
            print(f"  output {node.symbol} {node.data}")
        if args.output:
            print(f"imported graph written to {args.output}")
    return 0


def _cmd_optimize(args) -> int:
    from repro.ir.onnx_import import OnnxImportError

    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    cost_model = AnalyticCostModel()
    try:
        graph = _load_onnx_arg(args) if args.onnx else build_model(args.model, args.scale)
    except OnnxImportError as exc:
        print(f"import failed: {exc}", file=sys.stderr)
        return 1
    result = optimize(graph, cost_model=cost_model, config=config)
    if args.output:
        save_graph(result.optimized, args.output)
    if args.json:
        print(json.dumps(result.stats.as_dict(), indent=2))
    else:
        print(result.summary())
        if args.output:
            print(f"optimized graph written to {args.output}")
    return 0


def _cmd_compare(args) -> int:
    cost_model = AnalyticCostModel()
    graph = build_model(args.model, args.scale)

    comparison = compare(
        graph,
        cost_model=cost_model,
        config=TensatConfig.fast().with_overrides(k_multi=args.k_multi),
        taso_budget=args.taso_budget,
    )

    # The CLI reports the model/scale it was asked for, not the graph's name.
    payload = {**comparison.as_dict(), "model": args.model, "scale": args.scale}
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        tensat, taso = comparison.tensat, comparison.taso
        print(f"{args.model} ({args.scale}): original cost {comparison.original_cost:.5f} ms")
        print(f"  TENSAT : {tensat.speedup_percent:6.1f}% speedup in {comparison.tensat_seconds:.2f}s")
        print(f"  TASO   : {taso.speedup_percent:6.1f}% speedup in {taso.total_seconds:.2f}s "
              f"(best found at {taso.best_seconds:.2f}s)")
    return 0


def _cmd_models(_args) -> int:
    for name in MODEL_NAMES:
        graph = build_model(name, "tiny")
        print(f"{name:12s} {graph.describe()}")
    return 0


def _cmd_rules(args) -> int:
    rules = default_ruleset()
    if args.tag:
        rules = rules.filter(include_tags=[args.tag])
    for rule_def in rules:
        kind = "multi " if rule_def.is_multi else "single"
        print(f"[{kind}] {rule_def.name:32s} tags={','.join(rule_def.tags)}")
    print(f"total: {rules.summary()}")
    return 0


def _cmd_serve(args) -> int:
    from repro.service.server import run_server

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_concurrency=args.max_concurrency,
        queue_limit=args.queue_limit,
        request_timeout=args.request_timeout,
        cache_capacity=args.cache_capacity,
    )

    def ready(host: str, port: int) -> None:
        print(f"repro service listening on {host}:{port}", flush=True)

    status = run_server(service_config=config, ready=ready)
    if args.json:
        print(json.dumps(status, indent=2))
    else:
        cache = status["cache"]
        print(
            f"service stopped after {status['uptime_seconds']}s: "
            f"{sum(status['requests'].values())} requests, cache {cache['hits']} hits / "
            f"{cache['misses']} misses / {cache['evictions']} evictions"
        )
    return 0


def _cmd_submit(args) -> int:
    from repro.service.client import ServiceClient, ServiceError, parse_overrides

    client = ServiceClient(host=args.host, port=args.port)
    try:
        if args.status:
            status = client.status()
            if args.json:
                print(json.dumps(status, indent=2))
            else:
                cache, queue = status["cache"], status["queue"]
                print(
                    f"up {status['uptime_seconds']}s, requests={status['requests']}, "
                    f"cache hits={cache['hits']} misses={cache['misses']} "
                    f"evictions={cache['evictions']} size={cache['size']}/{cache['capacity']}, "
                    f"queue wait total {queue['queue_seconds_total']}s "
                    f"(mean {queue['queue_seconds_mean']}s)"
                )
            return 0
        if args.shutdown:
            client.shutdown()
            print("server shut down")
            return 0
        if args.model:
            graph = build_model(args.model, args.scale)
        elif args.graph:
            graph = load_graph(args.graph)
        elif args.onnx:
            from repro.ir.onnx_import import OnnxImportError

            try:
                graph = _load_onnx_arg(args)
            except OnnxImportError as exc:
                print(f"import failed: {exc}", file=sys.stderr)
                return 1
        else:
            print("submit needs one of --model / --graph / --onnx / --status / --shutdown",
                  file=sys.stderr)
            return 2
        response = client.optimize(graph, config=parse_overrides(args.overrides))
    except (ServiceError, ValueError) as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    if args.output:
        save_graph(client.optimized_graph(response), args.output)
    if args.json:
        print(json.dumps(response, indent=2))
    else:
        stats = response["stats"]
        print(
            f"{response['graph'].get('name', 'graph')}: cost {response['original_cost_ms']:.4f} ms "
            f"-> {response['optimized_cost_ms']:.4f} ms "
            f"({stats.get('speedup_percent', 0.0):+.1f}%), cache {response['cache']}, "
            f"queue {response['queue_seconds']:.3f}s, optimize {response['optimize_seconds']:.3f}s"
        )
        if args.output:
            print(f"optimized graph written to {args.output}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "optimize": _cmd_optimize,
        "import": _cmd_import,
        "compare": _cmd_compare,
        "models": _cmd_models,
        "rules": _cmd_rules,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
