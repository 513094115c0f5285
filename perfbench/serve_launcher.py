"""Launch the optimization daemon with the layer tracing installed.

The traced ``serve`` run starts the daemon through this launcher instead of
``python -m repro serve``: it installs the timing wrappers of
``perfbench/tracing.py`` in the daemon process, then calls the program's
own ``run_server`` with the same service settings the untraced run passes
on the command line.  It prints the same ready line as the CLI, and after a
shutdown request writes every span to ``--spans-out``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--cache-capacity", type=int, required=True)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args(argv)

    from repro.service.server import ServiceConfig, run_server

    tracer = tracing.Tracer()
    tracing.install(tracer, closed_loop=False)

    def ready(host: str, port: int) -> None:
        print(f"repro service listening on {host}:{port}", flush=True)

    run_server(
        service_config=ServiceConfig(port=args.port, cache_capacity=args.cache_capacity),
        ready=ready,
    )
    tracer.dump(args.spans_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
