"""Command-line driver: parse | show | optimize | run | emit.

Machine-readable results go to stdout as JSON (or to `-o`); human-readable
summaries go to stderr.  Exit codes: 0 success, 1 error diagnostics,
2 runtime failures (deadlock, out-of-bounds).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

import numpy as np

from . import frontend
from .autoopt import Device, ExpansionError, auto_optimize, cleanup_maps, cpu_registry, \
    expand_library, subgraph_fusion, tile_wcr, transient_mitigation
from .cemit import EmitError, emit_c
from .dot import to_dot
from .interp import ExecContext, InterpreterError, TensorValue, interpret
from .ir import COMM_KINDS, LibraryNode, Sdfg
from .passes import coarsen
from .serialize import SchemaError, deserialize, serialize


def _load_graph(path: str) -> tuple[Sdfg | None, list]:
    text = sys.stdin.read() if path == "-" else pathlib.Path(path).read_text()
    if path.endswith(".dpy") or (path == "-" and text.lstrip().startswith("def")):
        return frontend.compile_source(text)
    return deserialize(text), []


def _emit_output(text: str, out: str | None) -> None:
    if out:
        pathlib.Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _print_diags(diags) -> bool:
    """Report diagnostics on stderr; returns True when any is an error."""
    bad = False
    for d in diags:
        print(str(d), file=sys.stderr)
        bad = bad or d.severity == "error"
    return bad


def _parse_bindings(items) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in items or []:
        for part in item.split(","):
            if not part:
                continue
            name, _, value = part.partition("=")
            try:
                out[name.strip()] = int(value)
            except ValueError:
                raise UsageError(f"symbol binding '{part}' must be NAME=INTEGER") from None
    return out


def _env_int(name: str, default: int) -> int:
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got '{text}'") from None


class UsageError(ValueError):
    """A malformed command-line value."""


def _dist():
    """The distributed layer, imported only by the commands and stages that
    use it, so parse, show, emit and shared-memory optimize/run never need it."""
    from . import dist

    return dist


def _grid_of(args):
    """The ``--grid``/``--ranks`` process grid, 1x1 when neither is given."""
    ProcessGrid = _dist().ProcessGrid
    try:
        if args.grid:
            return ProcessGrid.parse(args.grid)
        if args.ranks is not None:
            return ProcessGrid.squarest(args.ranks)
        return ProcessGrid((1, 1))
    except ValueError as ex:
        raise UsageError(str(ex)) from None


def cmd_parse(args) -> int:
    g, diags = _load_graph(args.file)
    bad = _print_diags(diags)
    if bad or g is None:
        return 1
    bad = _print_diags(g.validate())
    _emit_output(serialize(g), args.output)
    return 1 if bad else 0


def cmd_show(args) -> int:
    g, diags = _load_graph(args.file)
    if _print_diags(diags) or g is None:
        return 1
    _emit_output(to_dot(g) if args.format == "dot" else serialize(g), args.output)
    return 0


def cmd_optimize(args) -> int:
    g, diags = _load_graph(args.file)
    if _print_diags(diags) or g is None:
        return 1
    tile = args.tile if args.tile is not None else _env_int("SDFGKIT_TILE", 16)
    if tile < 1:
        raise UsageError(f"tile size must be positive, got {tile}")
    stack = (args.stack_limit if args.stack_limit is not None
             else _env_int("SDFGKIT_STACK_LIMIT", 4096))
    known = {kind.value: [x.name for x in xs] for kind, xs in cpu_registry().by_kind.items()}
    pinned = {}
    for spec in args.expand or []:
        kind, _, impl = spec.partition("=")
        if impl not in known.get(kind, []):
            raise UsageError(f"unknown expansion '{spec}'; choose from "
                             + ", ".join(f"{k}={x}" for k, xs in known.items() for x in xs))
        pinned[kind] = impl
    try:
        device = Device.parse(args.device)
    except ValueError as ex:
        raise UsageError(str(ex)) from None
    from .passes import PassReport

    report = PassReport()
    if args.passes:
        from .passes import find_loops, loop_to_map

        stages = {
            "coarsen": lambda: coarsen(g),
            "cleanup_maps": lambda: cleanup_maps(g),
            "subgraph_fusion": lambda: subgraph_fusion(g),
            "tile_wcr": lambda: tile_wcr(g, tile),
            "transient_mitigation": lambda: transient_mitigation(g, stack),
            "expand_library": lambda: expand_library(g, Device.CPU, pinned=pinned),
            "distribute": lambda: _dist().distribute(g, _grid_of(args)),
            "remove_redundant_comm": lambda: _dist().remove_redundant_comm(g),
        }

        def run_loop_to_map():
            rep = PassReport()
            for loop in find_loops(g):
                loop_to_map(g, loop, rep)
            return rep

        stages["loop_to_map"] = run_loop_to_map
        for name in args.passes.split(","):
            name = name.strip()
            if name not in stages:
                print(f"unknown pass '{name}'", file=sys.stderr)
                return 1
            report.merge(stages[name]())
    elif device is Device.DIST:
        report = _dist().distribution_pipeline(g, _grid_of(args))
    else:
        report = auto_optimize(g, device, tile, stack, pinned=pinned or None)
    if _print_diags(g.validate()):
        return 1
    print(json.dumps(report.to_json(), indent=2), file=sys.stderr)
    _emit_output(serialize(g), args.output)
    return 0


def _has_comm(g: Sdfg) -> bool:
    return any(
        isinstance(n, LibraryNode) and n.kind in COMM_KINDS
        for st in g.states
        for n in st.nodes.values()
    )


def cmd_run(args) -> int:
    g, diags = _load_graph(args.file)
    if _print_diags(diags) or g is None:
        return 1
    bindings = _parse_bindings(args.symbol)
    ctx = ExecContext(bindings=bindings)
    inputs_dir = pathlib.Path(args.inputs) if args.inputs else None
    for name, desc in g.containers.items():
        if desc.transient:
            continue
        if inputs_dir is not None and (inputs_dir / f"{name}.json").exists():
            ctx.store[name] = TensorValue.load(inputs_dir / f"{name}.json").array
        else:
            print(f"missing input tensor for '{name}'", file=sys.stderr)
            return 1
    try:
        if args.grid or args.ranks is not None or _has_comm(g):
            outputs, report = _dist().sim_run(g, _grid_of(args), ctx)
        else:
            outputs = interpret(g, ctx)
            report = {"per_rank": {0: ctx.counters.as_dict()}}
    except InterpreterError as ex:  # includes out-of-bounds and simulator errors
        print(f"runtime error: {ex}", file=sys.stderr)
        return 2
    doc = {
        "outputs": {k: TensorValue.of(v).to_json() for k, v in outputs.items()},
        "report": report,
    }
    _emit_output(json.dumps(doc, indent=1) + "\n", args.output)
    return 0


def cmd_emit(args) -> int:
    g, diags = _load_graph(args.file)
    if _print_diags(diags) or g is None:
        return 1
    try:
        _emit_output(emit_c(g), args.output)
    except EmitError as ex:
        print(f"emit error: {ex}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sdfgkit",
        description="array DSL to dataflow graphs: parse, optimize, run, emit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="a .dpy source, a .sdfg.json graph, or '-'")
        p.add_argument("-o", "--output", help="write the result here instead of stdout")

    p = sub.add_parser("parse", help="frontend pipeline to a graph JSON")
    common(p)
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("show", help="render a graph")
    common(p)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(fn=cmd_show)

    p = sub.add_parser("optimize", help="run optimization passes")
    common(p)
    p.add_argument("--device", default="cpu", help="cpu or dist")
    p.add_argument("--passes", help="comma-separated pass list (default: the full pipeline)")
    p.add_argument("--tile", type=int, help="write-conflict tile size (default 16)")
    p.add_argument("--stack-limit", type=int, help="stack placement byte limit (default 4096)")
    p.add_argument("--expand", action="append", help="pin an expansion, e.g. matmul=native")
    p.add_argument("--grid", help="process grid RxC for --device dist")
    p.add_argument("--ranks", type=int, help="rank count (squarest grid)")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("run", help="interpret or simulate a graph")
    common(p)
    p.add_argument("-s", "--symbol", action="append",
                   help="symbol bindings, e.g. -s N=8,TSTEPS=4")
    p.add_argument("--inputs", help="directory of <container>.json tensors")
    p.add_argument("--grid", help="process grid RxC")
    p.add_argument("--ranks", type=int, help="rank count (squarest grid)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("emit", help="emit C-style source")
    common(p)
    p.set_defaults(fn=cmd_emit)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (frontend.DslSyntaxError, SchemaError, UsageError, ExpansionError) as ex:
        print(str(ex), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
