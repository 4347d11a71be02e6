import json
import re

import pytest

from sdfgkit import autoopt, frontend, passes, symbolic, texpr
from sdfgkit.dot import to_dot
from sdfgkit.ir import Sdfg, content_key, structural_eq
from sdfgkit.serialize import SchemaError, deserialize, from_dict, serialize

from conftest import ALL_KERNELS, GOLDEN, compile_kernel


class TestRoundTrip:
    def test_empty_graph_byte_identical(self):
        g = Sdfg("empty")
        g.add_state("s0")
        text = serialize(g)
        assert serialize(deserialize(text)) == text

    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_corpus_structural_identity(self, name):
        g = compile_kernel(name)
        assert structural_eq(deserialize(serialize(g)), g)

    @pytest.mark.parametrize("name", ["gemm", "jacobi_1d", "doitgen"])
    def test_optimized_corpus_roundtrip(self, name):
        g = compile_kernel(name)
        autoopt.auto_optimize(g)
        assert structural_eq(deserialize(serialize(g)), g)

    def test_truncated_json(self):
        g = compile_kernel("gemm")
        text = serialize(g)
        with pytest.raises(SchemaError):
            deserialize(text[: len(text) // 2])

    def test_version_mismatch(self):
        g = Sdfg("v")
        g.add_state("s0")
        text = serialize(g).replace('"version": 1', '"version": 99')
        with pytest.raises(SchemaError):
            deserialize(text)

    def test_not_a_graph(self):
        with pytest.raises(SchemaError):
            deserialize("{}")
        with pytest.raises(SchemaError):
            deserialize("not json at all")


class TestDot:
    def test_single_state_cluster(self):
        g = Sdfg("tiny")
        g.add_state("s0")
        text = to_dot(g)
        assert "subgraph cluster_0" in text
        assert text.count("subgraph") == 1

    def test_wcr_edges_dashed(self):
        g = compile_kernel("wcr_sum")
        text = to_dot(g)
        assert "style=dashed" in text

    def test_loop_graph_golden(self):
        g = compile_kernel("fig4_loop")
        text = to_dot(g)
        golden = GOLDEN / "fig4_loop.dot"
        assert text == golden.read_text()

    def test_stable_across_runs(self):
        g1 = compile_kernel("jacobi_1d")
        g2 = compile_kernel("jacobi_1d")
        assert to_dot(g1) == to_dot(g2)


class TestSymbolBounds:
    @pytest.mark.parametrize("bound", ["x", True, False, 1.0, None],
                             ids=["str", "true", "false", "float", "null"])
    def test_non_integer_bound_is_a_schema_error(self, bound):
        text = serialize(compile_kernel("gemm"))
        doc = json.loads(text)
        doc["symbols"][0]["min"] = bound
        with pytest.raises(SchemaError, match="not an integer"):
            from_dict(doc)

    def test_integer_bounds_load(self):
        doc = json.loads(serialize(compile_kernel("gemm")))
        doc["symbols"][0]["min"] = -3
        assert from_dict(doc).symbols[doc["symbols"][0]["name"]] == -3


def test_transition_assignments_must_be_an_object():
    doc = json.loads(serialize(compile_kernel("jacobi_1d")))
    assert doc["transitions"][0]["assignments"]
    doc["transitions"][0]["assignments"] = [["t", "0"]]
    with pytest.raises(SchemaError, match=r"^transitions\[0\]\.assignments is a list, not an object$"):
        from_dict(doc)


def _first(doc, kind: str) -> tuple[int, int, dict]:
    """``(state index, index, item)`` of the first map entry (``kind`` is
    ``"nodes"``) or memlet edge (``"edges"``) of a document."""
    return next((i, j, x) for i, st in enumerate(doc["states"]) for j, x in enumerate(st[kind])
                if x.get("type") == "map_entry" or "memlet" in x)


@pytest.mark.parametrize("value", [7, None, ["0:N"]], ids=["int", "null", "list"])
@pytest.mark.parametrize("field", ["range", "memlet", "volume"])
def test_non_string_subset_text_is_a_schema_error(field, value):
    """A map range or memlet that is not a string is refused with its field
    path, where a range used to raise ``AttributeError`` from the parser."""
    doc = json.loads(serialize(compile_kernel("jacobi_1d")))
    if field == "range":
        i, j, node = _first(doc, "nodes")
        node["params"][0][1] = value
        path = rf"states\[{i}\]\.nodes\[{j}\]\.params\[0\]\[1\]"
    else:
        i, j, edge = _first(doc, "edges")
        edge[field] = value
        path = rf"states\[{i}\]\.edges\[{j}\]\.{field}"
    if field == "volume" and value is None:
        from_dict(doc)  # no volume: the loader derives it
        return
    with pytest.raises(SchemaError, match=rf"^{path} is .*, not a string$"):
        from_dict(doc)


def _clear_tables():
    for table in (symbolic.parse_expr, symbolic.parse_subset, texpr.parse_texpr,
                  symbolic._decide):
        table.cache_clear()


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_round_trip_key_is_the_same_with_tables_cleared_and_warm(name):
    # parses and comparisons answer from tables keyed by hashed texts and
    # interned values; what a round trip builds must not depend on them
    g = compile_kernel(name)
    opt = g.copy()
    autoopt.auto_optimize(opt)
    for graph in (g, opt):
        text = serialize(graph)
        _clear_tables()
        cold = deserialize(text)
        warm = deserialize(text)
        assert content_key(cold) == content_key(warm)
        assert serialize(cold) == serialize(warm) == text


def junk_name(doc: dict, field: str) -> str:
    """Put a non-string where ``doc``, a lowered document, holds a name of
    the kind ``field``; returns the path of the field it changed."""
    if field == "name":
        doc["name"] = ["a"]
        return "name"
    if field in ("src_conn", "dst_conn"):
        i, j, edge = next((i, j, e) for i, st in enumerate(doc["states"])
                          for j, e in enumerate(st["edges"]) if field in e)
        edge[field] = {"x": 1}
        return f"states[{i}].edges[{j}].{field}"
    kind = "map_entry" if field == "params" else "tasklet"
    i, j, node = next((i, j, n) for i, st in enumerate(doc["states"])
                      for j, n in enumerate(st["nodes"]) if n["type"] == kind)
    if field in ("params", "code"):
        node[field][0][0] = 7
        return f"states[{i}].nodes[{j}].{field}[0][0]"
    node[field][0] = None
    return f"states[{i}].nodes[{j}].{field}[0]"


@pytest.mark.parametrize("field", ["name", "params", "src_conn", "dst_conn", "ins", "outs",
                                   "code"])
def test_non_string_name_is_a_schema_error(field):
    """A graph, map parameter, connector or tasklet code target name that is
    not a string is refused with its field path, where it used to reach the
    validator and the passes (a traceback from ``optimize`` on an object
    ``dst_conn``, an "undeclared name" for an integer parameter)."""
    doc = json.loads(serialize(compile_kernel("jacobi_1d")))
    path = re.escape(junk_name(doc, field))
    with pytest.raises(SchemaError, match=rf"^{path} is .*, not a string$"):
        from_dict(doc)


def test_name_lists_must_be_lists():
    doc = json.loads(serialize(compile_kernel("jacobi_1d")))
    i, j, node = next((i, j, n) for i, st in enumerate(doc["states"])
                      for j, n in enumerate(st["nodes"]) if n["type"] == "tasklet")
    node["ins"] = "in0"
    with pytest.raises(SchemaError, match=rf"^states\[{i}\]\.nodes\[{j}\]\.ins is 'in0', not a list$"):
        from_dict(doc)


def test_absent_and_null_connectors_load():
    doc = json.loads(serialize(compile_kernel("jacobi_1d")))
    for st in doc["states"]:
        for e in st["edges"]:
            e.pop("dst_conn", None)
            e["src_conn"] = None
    g = from_dict(doc)
    assert all(e.src_conn is None is e.dst_conn for st in g.states for e in st.edges)


def junk_text(doc: dict, field: str) -> str:
    """Put a list where ``doc``, a lowered document, holds a text of the
    kind ``field``; returns the path of the field it changed."""
    def node(*types):
        return next((i, j, n) for i, st in enumerate(doc["states"])
                    for j, n in enumerate(st["nodes"]) if n["type"] in types)

    if field in ("symbol", "container"):
        section = "symbols" if field == "symbol" else "containers"
        doc[section][0]["name"] = ["x"]
        return f"{section}[0].name"
    if field == "start":
        doc["start"] = ["x"]
        return "start"
    if field in ("src", "dst", "condition", "assignment"):
        i, t = next((i, t) for i, t in enumerate(doc["transitions"])
                    if t["assignments" if field == "assignment" else "condition"])
        if field == "assignment":
            key = next(iter(t["assignments"]))
            t["assignments"][key] = ["x"]
            return f"transitions[{i}].assignments[{key!r}]"
        t[field] = ["x"]
        return f"transitions[{i}].{field}"
    i, j, n = node({"access": "access", "library": "library"}.get(field, "tasklet"))
    if field == "access":
        n["container"] = ["x"]
        return f"states[{i}].nodes[{j}].container"
    if field == "code_text":
        n["code"][0][1] = ["x"]
        return f"states[{i}].nodes[{j}].code[0][1]"
    n["name"] = ["x"]
    return f"states[{i}].nodes[{j}].name"


TEXT_FIELDS = {
    "tasklet": "jacobi_1d", "access": "jacobi_1d", "container": "jacobi_1d",
    "symbol": "jacobi_1d", "library": "doitgen", "src": "jacobi_1d", "dst": "jacobi_1d",
    "condition": "jacobi_1d", "assignment": "jacobi_1d", "start": "jacobi_1d",
    "code_text": "jacobi_1d",
}


@pytest.mark.parametrize("field", sorted(TEXT_FIELDS))
def test_non_string_text_is_a_schema_error(field):
    """A tasklet or library node name, an access node's container, a
    container or symbol name, a transition's ends, condition or
    assignment, the start state or a tasklet's code text that is not a
    string is refused with its field path, where it used to load (a
    tasklet name), reach the validator under a misleading diagnostic (a
    container) or fail as a generic document error."""
    doc = json.loads(serialize(compile_kernel(TEXT_FIELDS[field])))
    path = re.escape(junk_text(doc, field))
    with pytest.raises(SchemaError, match=rf"^{path} is \['x'\], not a string$"):
        from_dict(doc)


def test_absent_names_and_null_conditions_load():
    """A tasklet or library node without a name, and a transition whose
    condition is null, still load."""
    for kernel in ("jacobi_1d", "doitgen"):
        doc = json.loads(serialize(compile_kernel(kernel)))
        for st in doc["states"]:
            for n in st["nodes"]:
                n.pop("name", None)
        for t in doc["transitions"]:
            if not t["condition"]:
                t["condition"] = None
        g = from_dict(doc)
        names = {n.name for st in g.states for n in st.nodes.values() if hasattr(n, "name")}
        assert names <= {"t", ""}


def junk_attribute(doc: dict, field: str) -> str:
    """Put a value of the wrong type where ``doc``, a lowered document, holds
    the node attribute ``field`` (``attrs`` of a library node, ``tiled`` of
    a map entry as a string or a list, or a node's ``id``); returns the
    path of the field it changed."""
    kind = {"attrs": "library", "id": "access"}.get(field, "map_entry")
    i, j, node = next((i, j, n) for i, st in enumerate(doc["states"])
                      for j, n in enumerate(st["nodes"]) if n["type"] == kind)
    if field == "attrs":
        node["attrs"] = []
    elif field == "id":
        node["id"] = str(node["id"])
    else:
        node["tiled"] = "yes" if field == "tiled_string" else [True]
        field = "tiled"
    return f"states[{i}].nodes[{j}].{field}"


NODE_ATTRIBUTES = {"attrs": ("gemm", "an object"), "id": ("jacobi_1d", "an integer"),
                   "tiled_list": ("jacobi_1d", "a boolean"),
                   "tiled_string": ("jacobi_1d", "a boolean")}


@pytest.mark.parametrize("field", sorted(NODE_ATTRIBUTES))
def test_node_attribute_of_the_wrong_type_is_a_schema_error(field):
    """A library node's ``attrs`` that is not an object, a map entry's
    ``tiled`` that is not a boolean and a node ``id`` that is not an integer
    are refused with the field path, where the first ended ``show``,
    ``optimize`` and ``emit`` in ``AttributeError`` and the others loaded."""
    kernel, what = NODE_ATTRIBUTES[field]
    doc = json.loads(serialize(compile_kernel(kernel)))
    path = re.escape(junk_attribute(doc, field))
    with pytest.raises(SchemaError, match=rf"^{path} is .*, not {what}$"):
        from_dict(doc)


def test_a_tiled_map_entry_loads():
    doc = json.loads(serialize(compile_kernel("jacobi_1d")))
    node = next(n for st in doc["states"] for n in st["nodes"] if n["type"] == "map_entry")
    node["tiled"] = True
    assert any(n.tiled for st in from_dict(doc).states for n in st.nodes.values()
               if hasattr(n, "tiled"))


def junk_structure(doc: dict, field: str, junk) -> tuple[str, str]:
    """Put ``junk`` where ``doc``, a lowered document, holds the structure
    ``field`` of its first state with edges: the state itself, its list of
    nodes or edges, or its first node or edge.  Returns the path of the
    field it changed and what that field must be."""
    i, st = next((i, st) for i, st in enumerate(doc["states"]) if st["edges"])
    if field == "state":
        doc["states"][i] = junk
        return f"states[{i}]", "an object"
    if field in ("nodes", "edges"):
        st[field] = junk
        return f"states[{i}].{field}", "a list"
    st[field + "s"][0] = junk
    return f"states[{i}].{field}s[0]", "an object"


# each structure of a state, with junk of every other JSON type
STRUCTURE_JUNK = [(field, junk) for field in ("state", "nodes", "edges", "node", "edge")
                  for junk in ("x", 3, None, {"a": 1} if field in ("nodes", "edges") else [1])]


@pytest.mark.parametrize("field, junk", STRUCTURE_JUNK)
def test_state_structure_of_the_wrong_type_is_a_schema_error(field, junk):
    """A state, its list of nodes or edges, or one node or edge of the wrong
    type is refused with its field path, where a string element or list
    ended in ``AttributeError: 'str' object has no attribute 'get'``."""
    doc = json.loads(serialize(compile_kernel("jacobi_1d")))
    path, what = junk_structure(doc, field, junk)
    with pytest.raises(SchemaError, match=rf"^{re.escape(path)} is .*, not {what}$"):
        from_dict(doc)


NESTED_CALL = """
def scale(X: f64[N], a: f64):
    X[:] = a * X

def main(A: f64[N], s: f64):
    scale(A, s)
"""


def test_nested_symbol_map_must_be_an_object():
    g, _ = frontend.compile_source(NESTED_CALL)
    doc = json.loads(serialize(g))
    i, j = next((i, j) for i, st in enumerate(doc["states"])
                for j, n in enumerate(st["nodes"]) if n["type"] == "nested")
    doc["states"][i]["nodes"][j]["symbol_map"] = ["N"]
    with pytest.raises(SchemaError, match=rf"^states\[{i}\]\.nodes\[{j}\]\.symbol_map is "
                                          r"\['N'\], not an object$"):
        from_dict(doc)
