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

from . import frontend
from .autoopt import (
    Device, ExpansionError, auto_optimize, cpu_registry, pipeline_stages, specialization_stages,
)
from .cemit import EmitError, emit_c
from .dot import to_dot
from .interp import ExecContext, InterpreterError, TensorValue, interpret
from .ir import COMM_KINDS, LibraryNode, Sdfg
from .passes import PassReport, _snapshot, find_loops, loop_to_map
from .serialize import SchemaError, deserialize, serialize


def _load_graph(path: str) -> tuple[Sdfg | None, list]:
    try:
        text = sys.stdin.read() if path == "-" else pathlib.Path(path).read_text()
    except OSError as ex:
        raise UsageError(f"cannot read '{path}': {ex.strerror or ex}") from None
    if path.endswith(".dpy") or (path == "-" and text.lstrip().startswith("def")):
        return frontend.compile_source(text)
    return deserialize(text), []


def _load_valid_graph(path: str) -> Sdfg | None:
    """The graph at ``path``, or None after the diagnostics that keep it from
    compiling or validating are printed."""
    g, diags = _load_graph(path)
    if _print_diags(diags) or g is None:
        return None
    found = g.validate()
    if any(d.severity == "error" for d in found):
        _print_diags(found)
        return None
    return g


def _emit_output(text: str, out: str | None) -> None:
    if out:
        try:
            pathlib.Path(out).write_text(text)
        except OSError as ex:
            raise UsageError(f"cannot write '{out}': {ex.strerror or ex}") from None
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


def _tile_size(flag: int | None) -> int:
    """``--tile``, else ``SDFGKIT_TILE``, else 16."""
    tile = flag if flag is not None else _env_int("SDFGKIT_TILE", 16)
    if tile < 1:
        raise UsageError(f"tile size must be positive, got {tile}")
    return tile


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
    g = _load_valid_graph(args.file)
    if g is None:
        return 1
    _emit_output(to_dot(g) if args.format == "dot" else serialize(g), args.output)
    return 0


def cmd_optimize(args) -> int:
    g = _load_valid_graph(args.file)
    if g is None:
        return 1
    tile = _tile_size(args.tile)
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
    names = [name.strip() for name in args.passes.split(",")] if args.passes else []
    for flag, given, stage in (("--tile", args.tile, "tile_wcr"),
                               ("--expand", args.expand, "expand_library")):
        if given is not None and stage not in names:
            raise UsageError(f"{flag} applies only to '--passes' that name {stage}")
    if args.passes:

        def loops_to_maps():
            rep = PassReport()
            while any(loop_to_map(g, loop, rep) for loop in find_loops(g)):
                rep.count("loop_to_map")
            return rep

        specialization = specialization_stages(g, tile, pinned)
        stages = {
            **pipeline_stages(g, stack),
            **(specialization if device is Device.CPU else {}),
            "loop_to_map": loops_to_maps,
            "distribute": lambda: _dist().distribute(g, _grid_of(args)),
            "remove_redundant_comm": lambda: _dist().remove_redundant_comm(g),
        }
        for name in names:
            if name not in stages:
                raise UsageError(f"pass '{name}' specializes for cpu, not --device {device.value}"
                                 if name in specialization else f"unknown pass '{name}'")
        report = PassReport()
        _snapshot(g, report, before=True)
        for name in names:
            report.merge(stages[name]())
        _snapshot(g, report, before=False)
    elif device is Device.DIST:
        report = _dist().distribution_pipeline(g, _grid_of(args))
    else:
        report = auto_optimize(g, stack)
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
    g = _load_valid_graph(args.file)
    if g is None:
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
    g = _load_valid_graph(args.file)
    if g is None:
        return 1
    tile = _tile_size(None)
    try:
        _emit_output(emit_c(g, tile), args.output)
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
    p.add_argument("--tile", type=int,
                   help="write-conflict tile size for the tile_wcr pass (default 16)")
    p.add_argument("--stack-limit", type=int, help="stack placement byte limit (default 4096)")
    p.add_argument("--expand", action="append",
                   help="pin an expansion for the expand_library pass, e.g. matmul=native")
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
