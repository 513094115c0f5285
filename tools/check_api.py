#!/usr/bin/env python
"""Fail when the public API surface drifts from its sources of truth.

Four checks:

1. every name in ``repro.__all__`` actually imports (no stale exports),
2. every CLI ``choices=`` list for a strategy knob equals the keys of the
   corresponding name table, in order (no hand-maintained tuples),
3. the ``serve`` CLI defaults equal the ``ServiceConfig`` field defaults,
4. the operator-spec registry lockstep: every ``OpKind`` has a complete
   ``OPS`` spec, every registered symbol round-trips through
   ``resolve_symbol``, ``serialize.valid_ops()`` mirrors ``OPS.names()``,
   the ONNX importer's handler table equals the union of every spec's
   ``onnx_ops`` plus its frontend-only ops, and the CLI exposes the
   ``import`` subcommand with ``--onnx`` on ``optimize`` / ``submit``.

Run from anywhere::

    python tools/check_api.py

Exit status 0 when the surface is consistent, 1 otherwise (problems listed
on stderr).  CI runs this in the ``docs`` job next to the link check.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402
from repro.cli import build_parser  # noqa: E402
from repro.egraph.cycles import CYCLE_FILTERS  # noqa: E402
from repro.egraph.extraction import EXTRACTORS  # noqa: E402
from repro.egraph.scheduler import SCHEDULERS  # noqa: E402
from repro.models import MODEL_NAMES  # noqa: E402

#: CLI argument dest -> the name table its choices must equal.
CLI_TABLE_KNOBS = {
    "scheduler": SCHEDULERS,
    "extraction": EXTRACTORS,
    "cycle_filter": CYCLE_FILTERS,
}


def check_exports() -> list:
    """Every ``repro.__all__`` name resolves to a real attribute."""
    problems = []
    for name in repro.__all__:
        if not hasattr(repro, name):
            problems.append(f"repro.__all__ exports {name!r} but repro has no such attribute")
    return problems


def _subcommand_parsers(parser):
    for action in parser._actions:
        choices = getattr(action, "choices", None)
        if isinstance(choices, dict):
            return choices
    return {}


def check_cli_choices() -> list:
    """Every strategy knob's CLI ``choices=`` equals its name table's keys."""
    problems = []
    subcommands = _subcommand_parsers(build_parser())
    if not subcommands:
        return ["CLI parser has no subcommands"]
    seen = set()
    for command, subparser in subcommands.items():
        for action in subparser._actions:
            table = CLI_TABLE_KNOBS.get(action.dest)
            if table is None:
                continue
            seen.add(action.dest)
            choices = tuple(action.choices or ())
            if choices != tuple(table):
                problems.append(
                    f"CLI '{command} --{action.dest.replace('_', '-')}' choices {choices} "
                    f"!= {action.dest} name table {tuple(table)}"
                )
        model_action = next((a for a in subparser._actions if a.dest == "model"), None)
        if model_action is not None and tuple(model_action.choices or ()) != tuple(MODEL_NAMES):
            problems.append(f"CLI '{command} --model' choices drifted from MODEL_NAMES")
    missing = set(CLI_TABLE_KNOBS) - seen
    if missing:
        problems.append(f"no CLI flag exposes the table-backed knob(s): {sorted(missing)}")
    return problems


def check_service_lockstep() -> list:
    """The ``serve`` CLI defaults stay in lockstep with ServiceConfig."""
    from dataclasses import fields as dataclass_fields

    from repro.service import ServiceConfig

    problems = []
    defaults = ServiceConfig()
    subcommands = _subcommand_parsers(build_parser())
    serve = subcommands.get("serve")
    if serve is None:
        return ["CLI has no 'serve' subcommand"]
    cli_defaults = {a.dest: a.default for a in serve._actions}
    for field in dataclass_fields(ServiceConfig):
        if field.name not in cli_defaults:
            problems.append(f"CLI 'serve' has no flag wired to ServiceConfig.{field.name}")
        elif cli_defaults[field.name] != getattr(defaults, field.name):
            problems.append(
                f"CLI 'serve' default for {field.name} is {cli_defaults[field.name]!r} "
                f"!= ServiceConfig().{field.name} == {getattr(defaults, field.name)!r}"
            )
    if "submit" not in subcommands:
        problems.append("CLI has no 'submit' subcommand")
    return problems


def check_ops_lockstep() -> list:
    """The operator-spec registry stays consistent across every consumer."""
    from repro.ir import serialize
    from repro.ir.onnx_import import FRONTEND_OPS, _Importer
    from repro.ir.ops import OpKind
    from repro.ir.opspec import OPS

    problems = []
    for kind in OpKind:
        try:
            spec = OPS.spec(kind)
        except ValueError:
            problems.append(f"OpKind.{kind.name} has no registered OpSpec")
            continue
        for field in ("infer", "flops", "op_bytes"):
            if not callable(getattr(spec, field)):
                problems.append(f"OPS spec {spec.name!r} has non-callable {field}")
    for symbol in OPS.symbols():
        spec = OPS.for_symbol(symbol)
        try:
            kind, _ = OPS.resolve_symbol(symbol, strict=True)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            problems.append(f"registered symbol {symbol!r} fails strict resolution: {exc}")
            continue
        if spec is None or kind != spec.kind:
            problems.append(f"registered symbol {symbol!r} resolves to {kind!r}, not its spec")
    if tuple(serialize.valid_ops()) != OPS.names():
        problems.append(
            f"serialize.valid_ops() {tuple(serialize.valid_ops())!r} != OPS.names() {OPS.names()!r}"
        )

    # ONNX importer coverage is registry-derived: the handler table must be
    # exactly the union of every spec's onnx_ops plus the frontend-only ops.
    declared = {op for spec in OPS for op in spec.onnx_ops} | set(FRONTEND_OPS)
    handlers = set(_Importer.HANDLERS)
    if declared != handlers:
        problems.append(
            f"ONNX handler table {sorted(handlers)} != registry-declared ops {sorted(declared)}"
        )

    subcommands = _subcommand_parsers(build_parser())
    if "import" not in subcommands:
        problems.append("CLI has no 'import' subcommand")
    for command in ("optimize", "submit", "import"):
        subparser = subcommands.get(command)
        if subparser is None:
            continue
        dests = {a.dest for a in subparser._actions}
        if "onnx" not in dests:
            problems.append(f"CLI '{command}' has no --onnx flag")
    return problems


def main() -> int:
    problems = (
        check_exports()
        + check_cli_choices()
        + check_service_lockstep()
        + check_ops_lockstep()
    )
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"\n{len(problems)} API-surface problem(s)", file=sys.stderr)
        return 1
    n_knobs = len(CLI_TABLE_KNOBS)
    print(
        f"ok: {len(repro.__all__)} exports import, {n_knobs} CLI strategy knobs "
        "match their name tables, serve flags match ServiceConfig, "
        "OPS registry / serializer / ONNX importer / CLI in lockstep"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
