"""JSON (de)serialization of program graphs.

Schema (version 1):

    {"version": 1, "name": ...,
     "symbols":     [{"name": "N", "min": 1}, ...],
     "containers":  [{"name", "dtype", "shape": ["N", ...], "kind",
                      "transient", "lifetime", "storage"}, ...],
     "states":      [{"label", "nodes": [...], "edges": [...]}, ...],
     "transitions": [{"src", "dst", "condition", "assignments"}, ...],
     "start": "s0"}

Subsets are serialized as text (``"A[1:N-1:1, 0:M-1:1]"``), expressions with
the grammar from :mod:`sdfgkit.symbolic`, tasklet code and conditions with the
grammar from :mod:`sdfgkit.texpr`.
"""

from __future__ import annotations

import json
import re
from typing import Any

from . import ir, symbolic, texpr
from .ir import (
    AccessNode, DataDescriptor, DataKind, DType, Edge, InterstateEdge, LibKind,
    LibraryNode, Lifetime, MapEntry, MapExit, Memlet, NestedSdfg, Schedule, Sdfg,
    State, Storage, Tasklet, Wcr,
)
from .symbolic import SubsetRange, SymExpr

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    pass


def memlet_to_text(m: Memlet) -> str:
    return f"{m.container}[{m.subset}]"


_MEMLET_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*\[(.*)\]\s*$")


def memlet_from_text(text: str, wcr: str | None = None, volume: str | None = None) -> Memlet:
    m = _MEMLET_RE.match(text)
    if not m:
        raise SchemaError(f"bad memlet text {text!r}")
    subset = symbolic.parse_subset(m.group(2))
    return Memlet(
        m.group(1),
        subset,
        Wcr(wcr) if wcr else None,
        symbolic.simplify(symbolic.parse_expr(volume)) if volume else None,
    )


def _attr_to_json(v):
    if isinstance(v, SymExpr):
        return {"$expr": str(v)}
    if isinstance(v, SubsetRange):
        return {"$subset": str(v)}
    if isinstance(v, (list, tuple)):
        return [_attr_to_json(x) for x in v]
    if isinstance(v, dict):
        return {k: _attr_to_json(x) for k, x in v.items()}
    return v


def _attr_from_json(v):
    if isinstance(v, dict):
        if set(v) == {"$expr"}:
            return symbolic.simplify(symbolic.parse_expr(v["$expr"]))
        if set(v) == {"$subset"}:
            return symbolic.parse_subset(v["$subset"])
        return {k: _attr_from_json(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_attr_from_json(x) for x in v]
    return v


def _node_to_json(n, pos: dict[int, int]) -> dict:
    if isinstance(n, AccessNode):
        return {"id": pos[n.nid], "type": "access", "container": n.container}
    if isinstance(n, Tasklet):
        return {
            "id": pos[n.nid],
            "type": "tasklet",
            "name": n.name,
            "ins": list(n.inputs),
            "outs": list(n.outputs),
            "code": [[c, texpr.to_text(e)] for c, e in n.code],
        }
    if isinstance(n, MapEntry):
        return {
            "id": pos[n.nid],
            "type": "map_entry",
            "params": [[p, f"{b}:{e}:{s}"] for p, (b, e, s) in n.params],
            "schedule": n.schedule.value,
            "tiled": n.tiled,
        }
    if isinstance(n, MapExit):
        return {"id": pos[n.nid], "type": "map_exit", "entry": pos[n.entry.nid]}
    if isinstance(n, LibraryNode):
        return {
            "id": pos[n.nid],
            "type": "library",
            "kind": n.kind.value,
            "name": n.name,
            "attrs": _attr_to_json(n.attributes),
        }
    if isinstance(n, NestedSdfg):
        return {
            "id": pos[n.nid],
            "type": "nested",
            "sdfg": to_dict(n.sdfg),
            "symbol_map": {k: str(v) for k, v in n.symbol_map.items()},
        }
    raise TypeError(type(n).__name__)


def _state_to_json(st: State) -> dict:
    nodes = st.sorted_nodes()
    pos = {n.nid: i for i, n in enumerate(nodes)}
    edges = []
    for e in st.edges:
        d: dict[str, Any] = {"src": pos[e.src.nid], "dst": pos[e.dst.nid]}
        if e.src_conn:
            d["src_conn"] = e.src_conn
        if e.dst_conn:
            d["dst_conn"] = e.dst_conn
        if e.memlet is not None:
            d["memlet"] = memlet_to_text(e.memlet)
            if e.memlet.wcr is not None:
                d["wcr"] = e.memlet.wcr.value
            d["volume"] = str(e.memlet.volume)
        edges.append(d)
    return {
        "label": st.label,
        "nodes": [_node_to_json(n, pos) for n in nodes],
        "edges": edges,
    }


def to_dict(g: Sdfg) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "name": g.name,
        "symbols": [{"name": k, "min": v} for k, v in g.symbols.items()],
        "containers": [
            {
                "name": d.name,
                "dtype": d.dtype.value,
                "shape": [str(s) for s in d.shape],
                "kind": d.kind.value,
                "transient": d.transient,
                "lifetime": d.lifetime.value,
                "storage": d.storage.value,
            }
            for d in g.containers.values()
        ],
        "states": [_state_to_json(s) for s in g.states],
        "transitions": [
            {
                "src": t.src,
                "dst": t.dst,
                "condition": texpr.to_text(t.condition) if t.condition is not None else None,
                "assignments": {k: str(v) for k, v in t.assignments.items()},
            }
            for t in g.transitions
        ],
        "start": g.start,
    }


def serialize(g: Sdfg) -> str:
    """Serialize to JSON text; the graph should validate without errors."""
    return json.dumps(to_dict(g), indent=2) + "\n"


def _typed(value, kind: type, what: str, path: str, *indices: int):
    """``value``, which must be a ``kind`` (``what`` in the message; a bool
    is no integer): the value at the field ``path`` of the document, whose
    ``{}`` the ``indices`` fill (only for the message)."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SchemaError(f"{path.format(*indices)} is {value!r}, not {what}")
    return value


def _text(value, path: str, *indices: int) -> str:
    """``value``, which must be a string (see :func:`_typed`)."""
    return _typed(value, str, "a string", path, *indices)


def _texts(values, path: str, *indices: int) -> tuple[str, ...]:
    """``values``, which must be a list of strings (see :func:`_typed`)."""
    _typed(values, list, "a list", path, *indices)
    return tuple(_text(v, path + "[{}]", *indices, k) for k, v in enumerate(values))


def _objects(values, path: str, *indices: int) -> list[dict]:
    """``values``, which must be a list of objects (see :func:`_typed`)."""
    _typed(values, list, "a list", path, *indices)
    for k, v in enumerate(values):
        _typed(v, dict, "an object", path + "[{}]", *indices, k)
    return values


def _state_from_json(d: dict, i: int) -> State:
    _typed(d, dict, "an object", "states[{}]", i)
    st = State(d["label"])  # the validator reports a label that is not a string
    nodes: list = []
    pending_exits: list[tuple[MapExit, int]] = []
    for j, nd in enumerate(_objects(d["nodes"], "states[{}].nodes", i)):
        t = nd["type"]
        # edges name nodes by position: an absent id loads, a junk one does not
        _typed(nd.get("id", j), int, "an integer", "states[{}].nodes[{}].id", i, j)
        if t == "access":
            node = AccessNode(_text(nd["container"], "states[{}].nodes[{}].container", i, j))
        elif t == "tasklet":
            node = Tasklet(
                _text(nd.get("name", "t"), "states[{}].nodes[{}].name", i, j),
                _texts(nd["ins"], "states[{}].nodes[{}].ins", i, j),
                _texts(nd["outs"], "states[{}].nodes[{}].outs", i, j),
                tuple((_text(c, "states[{}].nodes[{}].code[{}][0]", i, j, k),
                       texpr.parse_texpr(_text(e, "states[{}].nodes[{}].code[{}][1]", i, j, k)))
                      for k, (c, e) in enumerate(nd["code"])),
            )
        elif t == "map_entry":
            params = []
            for k, (p, rng) in enumerate(nd["params"]):
                p = _text(p, "states[{}].nodes[{}].params[{}][0]", i, j, k)
                rng = _text(rng, "states[{}].nodes[{}].params[{}][1]", i, j, k)
                sub = symbolic.parse_subset(rng)
                params.append((p, sub.dims[0]))
            node = MapEntry(tuple(params), Schedule(nd["schedule"]),
                            _typed(nd.get("tiled", False), bool, "a boolean",
                                   "states[{}].nodes[{}].tiled", i, j))
        elif t == "map_exit":
            node = MapExit(None)  # type: ignore[arg-type]
            pending_exits.append((node, nd["entry"]))
        elif t == "library":
            node = LibraryNode(LibKind(nd["kind"]),
                               _text(nd.get("name", ""), "states[{}].nodes[{}].name", i, j),
                               _attr_from_json(_typed(nd.get("attrs", {}), dict, "an object",
                                                      "states[{}].nodes[{}].attrs", i, j)))
        elif t == "nested":
            node = NestedSdfg(
                from_dict(nd["sdfg"]),
                {k: symbolic.simplify(symbolic.parse_expr(v))
                 for k, v in _typed(nd["symbol_map"], dict, "an object",
                                    "states[{}].nodes[{}].symbol_map", i, j).items()},
            )
        else:
            raise SchemaError(f"unknown node type {t!r}")
        nodes.append(node)
    for ex, entry_pos in pending_exits:
        entry = nodes[entry_pos]
        if not isinstance(entry, MapEntry):
            raise SchemaError("map_exit does not reference a map_entry")
        ex.entry = entry
    for node in nodes:
        st.add(node)
    for j, ed in enumerate(_objects(d["edges"], "states[{}].edges", i)):
        memlet = None
        if "memlet" in ed:
            volume = ed.get("volume")
            memlet = memlet_from_text(
                _text(ed["memlet"], "states[{}].edges[{}].memlet", i, j), ed.get("wcr"),
                None if volume is None else _text(volume, "states[{}].edges[{}].volume", i, j))
        src_conn, dst_conn = (
            None if ed.get(key) is None else _text(ed[key], "states[{}].edges[{}]." + key, i, j)
            for key in ("src_conn", "dst_conn"))
        st.add_edge(nodes[ed["src"]], nodes[ed["dst"]], memlet, src_conn, dst_conn)
    return st


def from_dict(d: dict) -> Sdfg:
    if not isinstance(d, dict) or "version" not in d:
        raise SchemaError("not a serialized graph (missing version)")
    if d["version"] != SCHEMA_VERSION:
        raise SchemaError(f"schema version {d['version']} unsupported (want {SCHEMA_VERSION})")
    try:
        g = Sdfg(_text(d["name"], "name"))
        for i, s in enumerate(d["symbols"]):
            name, lower = _text(s["name"], "symbols[{}].name", i), s["min"]
            if type(lower) is not int:  # a bool is an int to isinstance
                raise SchemaError(f"symbol '{name}' has lower bound {lower!r}, "
                                  "not an integer")
            g.symbols[name] = lower
        for i, c in enumerate(d["containers"]):
            name = _text(c["name"], "containers[{}].name", i)
            g.containers[name] = DataDescriptor(
                name,
                DType(c["dtype"]),
                tuple(symbolic.parse_expr(s) for s in c["shape"]),
                DataKind(c["kind"]),
                c["transient"],
                Lifetime(c["lifetime"]),
                Storage(c["storage"]),
            )
        for i, sd in enumerate(d["states"]):
            g.states.append(_state_from_json(sd, i))
        for i, td in enumerate(d["transitions"]):
            assignments = td["assignments"]
            if not isinstance(assignments, dict):
                raise SchemaError(f"transitions[{i}].assignments is a "
                                  f"{type(assignments).__name__}, not an object")
            condition = td.get("condition")
            if condition is not None:
                condition = _text(condition, "transitions[{}].condition", i)
            g.transitions.append(
                InterstateEdge(
                    _text(td["src"], "transitions[{}].src", i),
                    _text(td["dst"], "transitions[{}].dst", i),
                    texpr.parse_texpr(condition) if condition else None,
                    {k: symbolic.simplify(symbolic.parse_expr(
                        _text(v, "transitions[{}].assignments[{!r}]", i, k)))
                     for k, v in assignments.items()},
                )
            )
        start = d["start"]  # null for a graph without states, which validation reports
        g.start = None if start is None else _text(start, "start")
    except (KeyError, TypeError, IndexError, ValueError) as ex:
        if isinstance(ex, SchemaError):
            raise
        raise SchemaError(f"malformed graph document: {ex}") from ex
    return g


def deserialize(text: str) -> Sdfg:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as ex:
        raise SchemaError(f"invalid JSON: {ex}") from ex
    return from_dict(doc)
