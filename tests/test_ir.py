import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from sdfgkit import frontend
from sdfgkit.autoopt import auto_optimize
from sdfgkit.ir import (
    AccessNode, DataDescriptor, DataKind, DType, LibKind, LibraryNode, MapEntry,
    MapExit, Meet, Memlet, NestedSdfg, Node, Schedule, Sdfg, State, StateFacts, Tasklet, Wcr,
    content_key, meet, race_free, structural_eq, validate,
)
from sdfgkit.serialize import deserialize, from_dict, serialize
from sdfgkit.symbolic import Const, SubsetRange, Sym
from sdfgkit.texpr import TBin, TCall, TNum, TRef, TUn, parse_texpr

from conftest import ALL_KERNELS, compile_kernel


def build_race_graph() -> Sdfg:
    """Two unguarded whole-container writes in one state."""
    g = Sdfg("race")
    g.add_symbol("N", 1)
    g.add_array("A", DType.F64, (Sym("N"),))
    g.add_scalar("x", DType.F64)
    st = g.add_state("s0")
    sub = SubsetRange.make([(0, Sym("N") - 1, 1)])
    for k in range(2):
        xin = st.add(AccessNode("x"))
        t = st.add(Tasklet(f"w{k}", ("v",), ("out",), (("out", TRef("v")),)))
        a = st.add(AccessNode("A"))
        st.add_edge(xin, t, Memlet("x", SubsetRange(())), dst_conn="v")
        st.add_edge(t, a, Memlet("A", sub), src_conn="out")
    return g


class TestValidate:
    def test_wellformed_gemm_clean(self):
        g = compile_kernel("gemm")
        assert [d for d in g.validate() if d.severity == "error"] == []

    def test_unknown_container(self):
        g = Sdfg("bad")
        g.add_array("A", DType.F64, (4,))
        st = g.add_state("s0")
        a = st.add(AccessNode("A"))
        t = st.add(Tasklet("t", ("v",), ("out",), (("out", TRef("v")),)))
        b = st.add(AccessNode("A"))
        st.add_edge(a, t, Memlet("X", SubsetRange.make([(0, 0, 1)])), dst_conn="v")
        st.add_edge(t, b, Memlet("A", SubsetRange.make([(0, 0, 1)])), src_conn="out")
        codes = [d.code for d in g.validate() if d.severity == "error"]
        assert "unknown-container" in codes

    def test_data_race(self):
        g = build_race_graph()
        diags = g.validate()
        assert any(d.code == "data-race" and "A" in d.message for d in diags)

    def test_rank_mismatch(self):
        g = Sdfg("bad")
        g.add_array("A", DType.F64, (4, 4))
        g.add_scalar("x", DType.F64)
        st = g.add_state("s0")
        a = st.add(AccessNode("A"))
        t = st.add(Tasklet("t", ("v",), ("out",), (("out", TRef("v")),)))
        out = st.add(AccessNode("x"))
        st.add_edge(a, t, Memlet("A", SubsetRange.make([(0, 0, 1)])), dst_conn="v")
        st.add_edge(t, out, Memlet("x", SubsetRange(())), src_conn="out")
        codes = [d.code for d in g.validate() if d.severity == "error"]
        assert "rank-mismatch" in codes

    def test_sink_must_be_access(self):
        g = Sdfg("bad")
        g.add_scalar("x", DType.F64)
        st = g.add_state("s0")
        a = st.add(AccessNode("x"))
        t = st.add(Tasklet("t", ("v",), ("out",), (("out", TRef("v")),)))
        st.add_edge(a, t, Memlet("x", SubsetRange(())), dst_conn="v")
        codes = [d.code for d in g.validate()]
        assert "sink-not-access" in codes

    @pytest.mark.parametrize("conn", [None, "w0", "IN_gone"])
    def test_exit_input_must_name_a_passed_connector(self, conn):
        # adi's lowered edge tasklet -> exit[IN_w0]; without its connector
        # subgraph fusion drops the write and auto_optimize's own check
        # later fails on a tasklet left as a sink
        g = compile_kernel("adi")
        e = g.states[49].edges[4]
        assert isinstance(e.dst, MapExit) and e.dst_conn == "IN_w0"
        e.dst_conn = conn
        errors = [d for d in g.validate() if d.severity == "error"]
        assert [(d.code, d.state, d.node) for d in errors] == [
            ("exit-connector", g.states[49].label, e.dst.nid)]

    @pytest.mark.parametrize("edge, end, conn, messages", [
        (0, "dst", None,
         ["edge out of map entry 0 names OUT_in0, but no edge into it names IN_in0"]),
        (0, "dst", "in0",
         ["edge into map entry 0 names connector 'in0', not IN_x",
          "edge out of map entry 0 names OUT_in0, but no edge into it names IN_in0"]),
        (1, "src", None,
         ["edge out of map entry 0 names no connector, but every edge into it names one"]),
        (1, "src", "OUT_gone",
         ["edge out of map entry 0 names OUT_gone, but no edge into it names IN_gone"]),
        (1, "src", "in0", ["edge out of map entry 0 names connector 'in0', not OUT_x"]),
    ])
    def test_entry_edges_must_pair_their_connectors(self, edge, end, conn, messages):
        # adi's lowered v -> entry[IN_in0], entry[OUT_in0] -> tasklet[in0]:
        # with the first connector deleted the graph validated, and
        # auto_optimize's own check failed on "tasklet compute missing
        # inputs ['in0']"
        g = compile_kernel("adi")
        st = g.states[16]
        setattr(st.edges[edge], f"{end}_conn", conn)
        errors = [d for d in g.validate() if d.severity == "error"]
        assert [(d.code, d.message, d.state, d.node) for d in errors] == [
            ("entry-connector", message, st.label, 0) for message in messages]

    def test_exit_edges_out_must_pair_their_connectors(self):
        # a second edge out of adi's map exit 1, for an input it lacks
        g = compile_kernel("adi")
        st = g.states[16]
        st.add_edge(st.edges[3].src, st.add(AccessNode("q")), st.edges[3].memlet, "OUT_w1")
        assert [d.message for d in g.validate() if d.code == "entry-connector"] == [
            "edge out of map exit 1 names OUT_w1, but no edge into it names IN_w1"]

    def test_unnamed_scope_edges_pair(self):
        # a graph without connectors pairs its unnamed edges
        g = compile_kernel("adi")
        for e in g.states[16].edges:
            if isinstance(e.src, (MapEntry, MapExit)):
                e.src_conn = None
            if isinstance(e.dst, (MapEntry, MapExit)):
                e.dst_conn = None
        assert not [d for d in g.validate() if d.severity == "error"]

    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_state_label_must_be_a_string(self, k):
        # a list-valued label on a state but the first (whose label the
        # start names) is reported, not hashed
        doc = json.loads(serialize(compile_kernel("jacobi_1d")))
        doc["states"][k]["label"] = ["x"]
        g = from_dict(doc)
        assert [(d.severity, d.code, d.message) for d in g.validate()] == [
            ("error", "state-labels", "state label ['x'] is not a string")]

    @pytest.mark.parametrize("code", ["exit-connector", "entry-connector", "scope-connector",
                                      "access-container", "access-connector",
                                      "library-connector", "library-attributes",
                                      "tasklet-connector"])
    def test_pinned_graphs_pass_exit_connectors(self, code):
        for g in pinned_graphs():
            assert not [d for d in g.validate() if d.code == code], g.name

    @pytest.mark.parametrize("condition, message", [
        ("A > 0.5", "condition on loop0_guard->s1 reads array 'A'; a condition reads only "
         "symbols and scalars"),
        ("t < TSTEPS and B < 1.0", "condition on loop0_guard->s1 reads array 'B'; a "
         "condition reads only symbols and scalars"),
        ("t < TSTEPS", None),
    ], ids=["array", "mixed", "symbols"])
    def test_condition_reads_no_array(self, condition, message):
        """``interpret`` raised a bare ``ValueError`` (the truth value of an
        array) on a condition over an array, which validated."""
        doc = json.loads(serialize(compile_kernel("jacobi_1d")))
        doc["transitions"][1]["condition"] = condition
        want = [] if message is None else [("error", "condition-container", message)]
        assert [(d.severity, d.code, d.message) for d in from_dict(doc).validate()
                if d.severity == "error"] == want

    def test_condition_names_are_reported_in_sorted_order(self):
        """The diagnostics of a condition's names, and a tasklet's, follow
        the names' order, not the order of a set of them under the run's
        hash seed."""
        g = compile_kernel("jacobi_1d")
        g.transitions[1].condition = parse_texpr("uu > vv + ww")
        st, node = next((st, n) for st in g.states for n in st.nodes.values()
                        if isinstance(n, Tasklet))
        node.code = ((node.outputs[0], parse_texpr("zz + xx * yy")),)
        messages = [d.message for d in g.validate() if d.severity == "error"]
        assert messages == [f"tasklet {node.name} references unknown name '{x}'"
                            for x in ("xx", "yy", "zz")] + [
            f"condition on loop0_guard->s1 uses undeclared name '{x}'" for x in ("uu", "vv", "ww")]

    def test_condition_reads_a_scalar(self):
        g = compile_kernel("gemm")
        g.add_transition(g.states[-1].label, g.start, parse_texpr("alpha > 2.0 * beta"))
        assert not [d for d in g.validate() if d.code == "condition-container"]

    @pytest.mark.parametrize("code, what", [
        (TBin("%", TRef("in0"), TNum(2)), "operator '%'"),
        (TUn("~", TRef("in0")), "unary operator '~'"),
        (TCall("floor", (TRef("in0"),)), "call 'floor'"),
        (TBin("+", TCall("sqrt", (TBin("**", TRef("in0"), TNum(2)),)), TNum(1)),
         "operator '**'"),
    ], ids=["modulo", "invert", "call", "inside"])
    def test_tasklet_operator_the_grammar_renders(self, code, what):
        g = compile_kernel("fig4_loop")
        st, node = next((st, n) for st in g.states for n in st.nodes.values()
                        if isinstance(n, Tasklet) and n.name == "assign_C")
        node.code = (("out", code),)
        assert [(d.code, d.message, d.state, d.node) for d in g.validate()] == [
            ("unknown-operator", f"tasklet assign_C code uses {what}, which the expression "
             "grammar does not render", st.label, node.nid)]

    def test_condition_operator_the_grammar_renders(self):
        g = compile_kernel("jacobi_1d")
        g.transitions[1].condition = TBin("%", TRef("t"), TNum(2))
        assert [(d.code, d.message) for d in g.validate()] == [
            ("unknown-operator", "condition on loop0_guard->s1 uses operator '%', which the "
             "expression grammar does not render")]

    def test_pinned_graphs_pass_condition_and_operator_rules(self):
        """Every graph the pins hold, the parsed corpus and the local-view
        stencil read no array in a condition and use only operators the
        grammar renders."""
        from sdfgkit.dist.benchmark import build_graph
        graphs = [*pinned_graphs(), *map(compile_kernel, ALL_KERNELS), build_graph()]
        for g in graphs:
            assert not [d for d in g.validate()
                        if d.code in ("condition-container", "unknown-operator")], g.name

    @pytest.mark.parametrize("code, message", [
        ([["zz", "in0 + 1.0"]], "tasklet assign_C assigns 'zz', which is not an out-connector, "
         "and does not assign 'out', which an edge writes"),
        ([["out", "in0 + 1.0"], ["zz", "in0"]], "tasklet assign_C assigns 'zz', which is not "
         "an out-connector"),
        ([], "tasklet assign_C does not assign 'out', which an edge writes"),
    ], ids=["renamed", "extra", "none"])
    def test_tasklet_code_matches_its_out_connectors(self, code, message):
        """``emit`` raised ``KeyError: 'out'`` on the renamed assignment."""
        doc = json.loads(serialize(compile_kernel("fig4_loop")))
        node = next(n for st in doc["states"] for n in st["nodes"]
                    if n.get("name") == "assign_C")
        node["code"] = code
        assert [(d.severity, d.code, d.message) for d in from_dict(doc).validate()] == [
            ("error", "tasklet-connector", message)]

    @pytest.mark.parametrize("kernel, kind, attr, value, message", [
        ("gemm", "matmul", "a_kept", [True], "a_kept of matmul node 0 has 1 entries "
         "for the 2 dimensions of its memlet"),
        ("gemm", "matmul", "a_kept", "x", "a_kept of matmul node 0 is 'x', not a list of booleans"),
        ("gemm", "matmul", "b_kept", [1, 1], "b_kept of matmul node 0 is [1, 1], "
         "not a list of booleans"),
        ("gemm", "matmul", "out_kept", [True, True, False], "out_kept of matmul node 0 has 3 "
         "entries for the 2 dimensions of its memlet"),
        ("doitgen", "reduce", "a_kept", None, None),
        ("doitgen", "reduce", "axes", "x", "axes of reduce node 0 is 'x', not null or a list of ints"),
        ("doitgen", "reduce", "axes", [True], "axes of reduce node 0 is [True], "
         "not null or a list of ints"),
        ("doitgen", "reduce", "axes", [0], None),
        ("doitgen", "reduce", "op", "sub", "op of reduce node 0 is 'sub', "
         "not one of ['add', 'mul', 'min', 'max']"),
        ("doitgen", "reduce", "op", ["add"], "op of reduce node 0 is ['add'], "
         "not one of ['add', 'mul', 'min', 'max']"),
    ], ids=["short", "string", "ints", "long", "absent", "axes_string", "axes_bool",
            "axes_list", "op_unknown", "op_list"])
    def test_library_attributes(self, kernel, kind, attr, value, message):
        # gemm's and doitgen's lowered documents, one attribute of their
        # first matmul or reduce replaced
        doc = json.loads(serialize(compile_kernel(kernel)))
        state, node = next((st, n) for st in doc["states"] for n in st["nodes"]
                           if n.get("kind") == kind)
        assert node["id"] == 0
        node["attrs"][attr] = value
        found = [(d.severity, d.message, d.state, d.node)
                 for d in from_dict(doc).validate() if d.code == "library-attributes"]
        assert found == ([("error", message, state["label"], 0)] if message else [])

    def test_library_node_takes_its_kinds_connectors(self):
        # bicg's matmul loses its input b: the edge from A goes to s instead
        from sdfgkit.interp import ExecContext, InterpreterError, interpret
        doc = json.loads(serialize(compile_kernel("bicg")))
        edge = doc["states"][0]["edges"][1]
        assert edge["dst"] == 0 and edge["dst_conn"] == "b"
        edge["dst"] = 3
        del edge["dst_conn"]
        g = from_dict(doc)
        errors = [(d.code, d.node) for d in g.validate() if d.code == "library-connector"]
        assert errors == [("library-connector", 0)]
        ctx = ExecContext(bindings={"N": 3, "M": 2}).bind_inputs({
            "A": np.ones((3, 2)), "p": np.ones(2), "r": np.ones(3),
            "q": np.zeros(3), "s": np.zeros(2)})
        with pytest.raises(InterpreterError, match="does not validate"):
            interpret(g, ctx)

    @pytest.mark.parametrize("kind, ins, outs", [
        ("matmul", ["a", "a"], ["out"]),
        ("transpose", ["a"], []),
        ("transpose", ["a"], ["out", None]),
        ("transpose", [None], ["out"]),
    ], ids=["repeated", "no_output", "extra_output", "unnamed"])
    def test_library_connector_mutants(self, kind, ins, outs):
        g = Sdfg("lib")
        g.add_symbol("N", 2)
        g.add_array("A", DType.F64, (Sym("N"), Sym("N")))
        g.add_array("B", DType.F64, (Sym("N"), Sym("N")))
        st = g.add_state("s0")
        whole = SubsetRange.make([(0, Sym("N") - 1, 1)] * 2)
        lib = st.add(LibraryNode(LibKind(kind), kind))
        for conn in ins:
            st.add_edge(st.add(AccessNode("A")), lib, Memlet("A", whole), dst_conn=conn)
        for conn in outs:
            st.add_edge(lib, st.add(AccessNode("B")), Memlet("B", whole), src_conn=conn)
        assert "library-connector" in [d.code for d in g.validate()]

    @pytest.mark.parametrize("node", ["entry", "exit"])
    def test_scope_connector_taken_twice(self, node):
        g = build_shift_map("B")
        st = g.states[0]
        scope = next(n for n in st.nodes.values()
                     if isinstance(n, MapEntry if node == "entry" else MapExit))
        first = st.in_edges(scope)[0]
        st.add_edge(first.src, scope, first.memlet, first.src_conn, first.dst_conn)
        assert [(d.code, d.node) for d in g.validate() if d.severity == "error"] == [
            ("scope-connector", scope.nid)]

    def test_unnamed_scope_inputs_may_repeat(self):
        g = build_shift_map("B")
        st = g.states[0]
        entry = next(n for n in st.nodes.values() if isinstance(n, MapEntry))
        st.add_edge(st.add(AccessNode("B")), entry)
        st.add_edge(st.add(AccessNode("B")), entry)
        assert "scope-connector" not in [d.code for d in g.validate()]

    @pytest.mark.parametrize("end", ["read", "write"])
    def test_access_node_edge_names_its_container(self, end):
        # a tasklet copies B[0] to A[0], and both its memlets name the
        # container at one end
        g = build_shift_map("B")
        st = g.states[0]
        t = st.add(Tasklet("copy", ("v",), ("out",), (("out", TRef("v")),)))
        src, dst = st.add(AccessNode("B")), st.add(AccessNode("A"))
        m = Memlet("A" if end == "read" else "B", SubsetRange.point([Const(0)]))
        st.add_edge(src, t, m, dst_conn="v")
        st.add_edge(t, dst, m, src_conn="out")
        errors = [(d.code, d.node) for d in g.validate() if d.code == "access-container"]
        assert errors == [("access-container", (src if end == "read" else dst).nid)]

    @pytest.mark.parametrize("end", ["src", "dst"])
    @pytest.mark.parametrize("memlet", [True, False], ids=["memlet", "dependency"])
    def test_access_node_takes_no_connector(self, end, memlet):
        g = build_shift_map("B")
        st = g.states[0]
        e = next(e for e in st.edges if isinstance(getattr(e, end), AccessNode))
        if not memlet:
            e = st.add_edge(e.src, e.dst)
        setattr(e, f"{end}_conn", "x")
        node = getattr(e, end)
        assert [(d.code, d.node, d.message) for d in g.validate() if d.severity == "error"] == [
            ("access-connector", node.nid,
             f"edge at access node {node.nid} of '{node.container}' names connector 'x'")]

    def test_copy_between_access_nodes_names_either_container(self):
        g = build_shift_map("B")
        st = g.states[0]
        whole = SubsetRange.make([(0, Sym("N") - 1, 1)])
        a = next(n for n in st.nodes.values() if isinstance(n, AccessNode) and n.container == "A")
        st.add_edge(a, st.add(AccessNode("B")), Memlet("A", whole))
        assert "access-container" not in [d.code for d in g.validate()]

    def test_miswired_fused_write(self):
        # subgraph fusion once gave two connectors of one map the same name,
        # and a fused adi then wrote p[k0 + 1, j] into an access node of
        # tmp8: redirect that write in the optimized graph's document
        g = compile_kernel("adi")
        auto_optimize(g)
        doc = json.loads(serialize(g))
        st = next(s for s in doc["states"] if s["label"] == "s16")
        kinds = {n["id"]: n for n in st["nodes"]}
        tmp8 = next(i for i, n in kinds.items() if n.get("container") == "tmp8")
        e = next(e for e in st["edges"] if e.get("memlet", "").startswith("p[k0 + 1")
                 and kinds[e["src"]]["type"] == "tasklet" and kinds[e["dst"]]["type"] == "map_exit")
        e["dst"] = tmp8
        del e["dst_conn"]
        assert not [d for d in from_dict(json.loads(serialize(g))).validate()
                    if d.severity == "error"]
        errors = [(d.code, d.state, d.node) for d in from_dict(doc).validate()
                  if d.code == "access-container"]
        assert errors == [("access-container", "s16", tmp8)]

    def test_parallel_map_conflict_needs_wcr(self):
        g = Sdfg("bad")
        g.add_symbol("N", 1)
        g.add_array("A", DType.F64, (Sym("N"),))
        g.add_scalar("s", DType.F64)
        st = g.add_state("s0")
        entry = st.add(MapEntry((("i", (Const(0), Sym("N") - 1, Const(1))),),
                                Schedule.PARALLEL))
        ex = st.add(MapExit(entry))
        a = st.add(AccessNode("A"))
        t = st.add(Tasklet("t", ("v",), ("out",), (("out", TRef("v")),)))
        out = st.add(AccessNode("s"))
        elem = SubsetRange.point([Sym("i")])
        st.add_edge(a, entry, Memlet("A", SubsetRange.make([(0, Sym("N") - 1, 1)])),
                    dst_conn="IN_v")
        st.add_edge(entry, t, Memlet("A", elem), src_conn="OUT_v", dst_conn="v")
        st.add_edge(t, ex, Memlet("s", SubsetRange(())), src_conn="out", dst_conn="IN_o")
        st.add_edge(ex, out, Memlet("s", SubsetRange(())), src_conn="OUT_o")
        assert any(d.code == "data-race" for d in g.validate())
        # the same write with conflict resolution is clean
        for e in st.edges:
            if e.memlet is not None and e.memlet.container == "s":
                e.memlet.wcr = Wcr.ADD
        assert [d for d in g.validate() if d.severity == "error"] == []


@functools.lru_cache(maxsize=1)
def pinned_graphs() -> tuple[Sdfg, ...]:
    """Every kind of graph the pins hold: the lowered programs, the
    optimized and CPU-specialized corpus, and the corpus distributed on
    2x2."""
    from test_optimizer_pin import DISTRIBUTED, LOWERED_NAMES, lowered_source
    from sdfgkit.autoopt import specialize
    from sdfgkit.dist import ProcessGrid, distribution_pipeline
    graphs = [frontend.compile_source(lowered_source(n))[0] for n in LOWERED_NAMES]
    for name in ALL_KERNELS:
        g = compile_kernel(name)
        auto_optimize(g)
        cpu = g.copy()
        specialize(cpu)
        graphs += [g, cpu]
    for name in DISTRIBUTED:
        g = compile_kernel(name)
        distribution_pipeline(g, ProcessGrid.parse("2x2"))
        graphs.append(g)
    return tuple(g for g in graphs if g is not None)


def build_shift_map(read: str) -> Sdfg:
    """A parallel map over i that reads ``read[i + 1]`` and writes ``A[i]``."""
    g = Sdfg("shift")
    g.add_symbol("N", 2)
    g.add_array("A", DType.F64, (Sym("N"),))
    g.add_array("B", DType.F64, (Sym("N"),))
    st = g.add_state("s0")
    entry = st.add(MapEntry((("i", (Const(0), Sym("N") - 2, Const(1))),),
                            Schedule.PARALLEL))
    ex = st.add(MapExit(entry))
    src = st.add(AccessNode(read))
    t = st.add(Tasklet("t", ("v",), ("out",), (("out", TRef("v")),)))
    dst = st.add(AccessNode("A"))
    st.add_edge(src, entry, Memlet(read, SubsetRange.make([(1, Sym("N") - 1, 1)])),
                dst_conn="IN_v")
    st.add_edge(entry, t, Memlet(read, SubsetRange.point([Sym("i") + 1])),
                src_conn="OUT_v", dst_conn="v")
    st.add_edge(t, ex, Memlet("A", SubsetRange.point([Sym("i")])),
                src_conn="out", dst_conn="IN_o")
    st.add_edge(ex, dst, Memlet("A", SubsetRange.make([(0, Sym("N") - 2, 1)])),
                src_conn="OUT_o")
    return g


def build_column_map(read: list) -> Sdfg:
    """A parallel map over i that reads ``A[read]`` and writes ``A[i + 1, j]``
    for a symbol j."""
    g = Sdfg("column")
    g.add_symbol("N", 2)
    g.add_symbol("j", 1)
    g.add_array("A", DType.F64, (Sym("N"), Sym("N")))
    st = g.add_state("s0")
    entry = st.add(MapEntry((("i", (Const(0), Sym("N") - 2, Const(1))),),
                            Schedule.PARALLEL))
    ex = st.add(MapExit(entry))
    t = st.add(Tasklet("t", ("v",), ("out",), (("out", TRef("v")),)))
    full = SubsetRange.make([(0, Sym("N") - 1, 1)] * 2)
    st.add_edge(st.add(AccessNode("A")), entry, Memlet("A", full), dst_conn="IN_v")
    st.add_edge(entry, t, Memlet("A", SubsetRange.point(read)),
                src_conn="OUT_v", dst_conn="v")
    st.add_edge(t, ex, Memlet("A", SubsetRange.point([Sym("i") + 1, Sym("j")])),
                src_conn="out", dst_conn="IN_o")
    st.add_edge(ex, st.add(AccessNode("A")), Memlet("A", full), src_conn="OUT_o")
    return g


def build_cycle() -> Sdfg:
    g = Sdfg("cycle")
    g.add_scalar("x", DType.F64)
    st = g.add_state("s0")
    x = st.add(AccessNode("x"))
    t = st.add(Tasklet("t", ("v",), ("out",), (("out", TRef("v")),)))
    st.add_edge(x, t, Memlet("x", SubsetRange(())), dst_conn="v")
    st.add_edge(t, x, Memlet("x", SubsetRange(())), src_conn="out")
    return g


def build_scope_join() -> Sdfg:
    """One tasklet fed from inside two different maps."""
    g = Sdfg("join")
    g.add_symbol("N", 1)
    g.add_array("A", DType.F64, (Sym("N"),))
    g.add_scalar("x", DType.F64)
    st = g.add_state("s0")
    a = st.add(AccessNode("A"))
    t = st.add(Tasklet("t", ("u", "v"), ("out",),
                       (("out", TBin("+", TRef("u"), TRef("v"))),)))
    for conn in ("u", "v"):
        entry = st.add(MapEntry(((conn, (Const(0), Sym("N") - 1, Const(1))),),
                                Schedule.PARALLEL))
        st.add_edge(a, entry, Memlet("A", SubsetRange.make([(0, Sym("N") - 1, 1)])),
                    dst_conn="IN_a")
        st.add_edge(entry, t, Memlet("A", SubsetRange.point([Sym(conn)])),
                    src_conn="OUT_a", dst_conn=conn)
    st.add_edge(t, st.add(AccessNode("x")), Memlet("x", SubsetRange(())), src_conn="out")
    return g


def build_read_then_overwrite(ordered: bool) -> Sdfg:
    """``x = A[0]`` and ``A[0] = A[0] + 1.0`` in one state, both reading one
    access node of ``A``; unless ``ordered`` (the update then also reads
    ``x``), no path orders the read of ``x`` before the overwrite of ``A``."""
    g = Sdfg("war")
    g.add_array("A", DType.F64, (Const(2),))
    g.add_scalar("x", DType.F64)
    st = g.add_state("s0")
    first, x = st.add(AccessNode("A")), st.add(AccessNode("x"))
    read = st.add(Tasklet("read", ("v",), ("out",), (("out", TRef("v")),)))
    ins = ("v", "w") if ordered else ("v",)
    bump = st.add(Tasklet("bump", ins, ("out",),
                          (("out", TBin("+", TRef("v"), TNum(1.0))),)))
    point = SubsetRange.point([Const(0)])
    st.add_edge(first, read, Memlet("A", point), dst_conn="v")
    st.add_edge(read, x, Memlet("x", SubsetRange(())), src_conn="out")
    st.add_edge(first, bump, Memlet("A", point), dst_conn="v")
    if ordered:
        st.add_edge(x, bump, Memlet("x", SubsetRange(())), dst_conn="w")
    st.add_edge(bump, st.add(AccessNode("A")), Memlet("A", point), src_conn="out")
    return g


@pytest.mark.parametrize("build, legal", [
    (lambda: build_shift_map("B"), True),
    (build_cycle, False),
    (build_scope_join, False),
    (build_race_graph, False),
    (lambda: build_shift_map("A"), False),
    (lambda: build_read_then_overwrite(True), True),
    (lambda: build_read_then_overwrite(False), False),
    (lambda: build_column_map([Sym("i"), Sym("j") - 1]), True),
    (lambda: build_column_map([Sym("i"), Sym("j")]), False),
], ids=["clean", "cycle", "scope_join", "unordered_writes", "cross_iteration",
        "read_before_overwrite", "read_unordered_with_overwrite", "other_column",
        "same_column"])
def test_race_free_predicate(build, legal):
    g = build()
    assert race_free(g.states[0], g.assumptions()) is legal


_i, _j, _m = Sym("i"), Sym("j"), Sym("M")


@pytest.mark.parametrize("w, x, answer", [
    # a dimension no parameter indexes, points a nonzero constant apart
    ([_i, _j], [_i, _j - 1], Meet.NEVER),
    ([_j + 1, _i], [_j - 2, _i + 1], Meet.NEVER),
    ([_i, 3], [_i + 1, 5], Meet.NEVER),
    # both pin the parameter: they meet only at one iteration
    ([_i, _j], [_i, _j], Meet.SAME_POINT),
    ([_i, _j], [_i, 2], Meet.SAME_POINT),
    ([_i + 1, _j], [1 + _i, 2 * _j - _j], Meet.SAME_POINT),
    # neither test decides
    ([_i], [_i + 1], Meet.UNKNOWN),
    ([_i + 1, _j], [_i, _m], Meet.UNKNOWN),
    ([_i + 1, _j], [_i, _j], Meet.UNKNOWN),
    ([_i, _j], [_j, _i], Meet.UNKNOWN),
], ids=["column", "row", "constants", "same", "pinned_constant", "unsimplified",
        "parameter_offset", "symbolic_offset", "same_column", "transposed"])
def test_meet_answers_three_ways(w, x, answer):
    w, x = SubsetRange.point(w), SubsetRange.point(x)
    assert meet({"i"}, w, x) is answer
    assert meet({"i"}, x, w) is answer


def test_meet_reads_only_point_dimensions():
    """A range in the unindexed dimension decides nothing, and a dimension
    a parameter indexes is not tested for a constant offset."""
    row = SubsetRange.make([(_i, _i, 1), (0, _j, 1)])
    assert meet({"i"}, row, SubsetRange.point([_i, _j + 1])) is Meet.SAME_POINT
    assert meet({"i"}, row, SubsetRange.point([_i + 1, _j + 1])) is Meet.UNKNOWN
    assert meet({"i", "k"}, SubsetRange.point([_i, Sym("k")]),
                SubsetRange.point([_i, Sym("k") + 1])) is Meet.UNKNOWN


class TestFreeSymbols:
    def test_gemm(self):
        g = compile_kernel("gemm")
        assert g.free_symbols() == {"NI", "NJ", "NK"}

    def test_jacobi(self):
        g = compile_kernel("jacobi_1d")
        assert g.free_symbols() == {"N", "TSTEPS"}

    def test_concrete_graph_empty(self):
        g = Sdfg("conc")
        g.add_array("A", DType.F64, (4,))
        st = g.add_state("s0")
        a = st.add(AccessNode("A"))
        t = st.add(Tasklet("t", ("v",), ("out",), (("out", TBin("+", TRef("v"), TNum(1))),)))
        b = st.add(AccessNode("A"))
        st.add_edge(a, t, Memlet("A", SubsetRange.make([(0, 0, 1)])), dst_conn="v")
        st.add_edge(t, b, Memlet("A", SubsetRange.make([(0, 0, 1)])), src_conn="out")
        assert g.free_symbols() == set()


class TestScopes:
    def test_balanced_brackets(self):
        g = compile_kernel("wcr_sum")
        st = g.states[0]
        depth = 0
        for node in st.topological():
            if isinstance(node, MapEntry):
                depth += 1
            elif isinstance(node, MapExit):
                depth -= 1
            assert depth >= 0
        assert depth == 0

    def test_structural_eq_detects_changes(self):
        g1 = compile_kernel("gemm")
        g2 = compile_kernel("gemm")
        assert structural_eq(g1, g2)
        g2.states[0].label = "other"
        assert not structural_eq(g1, g2)

    def test_content_key_shares_structural_eqs_fields(self):
        """``content_key`` and ``structural_eq`` read one signature of each
        field: a change one of them sees, the other sees too, and only the
        key tells a renumbered copy from the graph."""

        def nodes(graph, kind):
            return [n for st in graph.states for n in st.nodes.values() if isinstance(n, kind)]

        g = compile_kernel("gemm")
        auto_optimize(g)
        t = nodes(g, Tasklet)[0]
        t.code = tuple((c, TBin("*", TNum(2), x)) for c, x in t.code)
        nodes(g, LibraryNode)[0].attributes["alpha"] = 1
        # ids the JSON form does not keep: the first state's count from 1
        first = g.states[0]
        for n in first.nodes.values():
            n.nid += 1
        first.nodes = {n.nid: n for n in first.nodes.values()}
        ids = [n.nid for st in g.states for n in st.sorted_nodes()]
        renumbered = deserialize(serialize(g))
        assert ids != [n.nid for st in renumbered.states for n in st.sorted_nodes()]
        assert structural_eq(renumbered, g) and content_key(renumbered) != content_key(g)
        assert content_key(g.copy()) == content_key(g)

        def tasklet_constant(twin):  # an equal value, but other code
            t = nodes(twin, Tasklet)[0]
            t.code = tuple((c, TBin("*", TNum(2.0), x.right)) for c, x in t.code)

        def attribute_type(twin):  # an equal value of another type
            nodes(twin, LibraryNode)[0].attributes["alpha"] = 1.0

        def subset(twin):
            e = next(e for st in twin.states for e in st.edges
                     if e.memlet is not None and e.memlet.subset.dims)
            e.memlet = Memlet(e.memlet.container, SubsetRange.make(
                [(b + 1, x + 1, s) for b, x, s in e.memlet.subset.dims]))

        def edge_end(twin):  # an edge moved to another access node of its container
            st = twin.states[0]
            first, second = [n for n in st.nodes.values()
                             if isinstance(n, AccessNode) and n.container == "C"]
            e = next(e for e in st.edges if first in (e.src, e.dst))
            e.src, e.dst = (second if e.src is first else e.src,
                            second if e.dst is first else e.dst)

        def descriptor(twin):
            twin.containers["A"].dtype = DType.I64

        def symbol_bound(twin):
            twin.symbols["NI"] += 1

        for edit in (tasklet_constant, attribute_type, subset, edge_end, descriptor,
                     symbol_bound):
            twin = g.copy()
            edit(twin)
            assert not structural_eq(twin, g) and content_key(twin) != content_key(g), edit


def quadratic_topological(st: State) -> list:
    """The reference order: Kahn's algorithm rescanning every edge per node
    and re-sorting the ready list, so the smallest ready id always goes next."""
    indeg = {nid: 0 for nid in st.nodes}
    for e in st.edges:
        indeg[e.dst.nid] += 1
    ready = sorted(nid for nid, d in indeg.items() if d == 0)
    order = []
    while ready:
        nid = ready.pop(0)
        order.append(st.nodes[nid])
        for e in st.edges:
            if e.src.nid == nid:
                indeg[e.dst.nid] -= 1
                if indeg[e.dst.nid] == 0:
                    ready.append(e.dst.nid)
        ready.sort()
    if len(order) != len(st.nodes):
        raise ValueError("cycle")
    return order


def per_node_reachability(st: State) -> dict:
    """The reference reachability: one scan of every edge per node."""
    reach = {nid: set() for nid in st.nodes}
    for node in reversed(quadratic_topological(st)):
        for e in st.out_edges(node):
            reach[node.nid].add(e.dst.nid)
            reach[node.nid] |= reach[e.dst.nid]
    return reach


def _outcome(order_fn, st: State):
    try:
        return [n.nid for n in order_fn(st)]
    except ValueError:
        return "cycle"


@hst.composite
def random_multigraphs(draw):
    """Node ids with gaps, edges that respect a random rank order (repeats
    allowed), and sometimes a few edges that may close a cycle."""
    n = draw(hst.integers(1, 12))
    st = State("r")
    nodes = [st.add(AccessNode("A")) for _ in range(n)]
    rank = draw(hst.permutations(range(n)))
    pairs = hst.tuples(hst.integers(0, n - 1), hst.integers(0, n - 1))
    for a, b in draw(hst.lists(pairs, max_size=30)):
        if rank[a] < rank[b]:
            st.add_edge(nodes[a], nodes[b])
            if draw(hst.booleans()):
                st.add_edge(nodes[a], nodes[b])  # a parallel edge
    for a, b in draw(hst.lists(pairs, max_size=2)):
        st.add_edge(nodes[a], nodes[b])
    for i in draw(hst.sets(hst.integers(0, n - 1), max_size=n // 2)):
        st.remove_node(nodes[i])
    return st


class TestQueries:
    @given(random_multigraphs())
    @settings(max_examples=300, deadline=None)
    def test_topological_matches_quadratic_reference(self, st):
        order = _outcome(State.topological, st)
        assert order == _outcome(quadratic_topological, st)
        if order != "cycle":
            assert dict(st.facts().reach) == per_node_reachability(st)

    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_scopes_match_parent_filter(self, name):
        g = compile_kernel(name)
        for stage in ("compiled", "optimized"):
            if stage == "optimized":
                auto_optimize(g)
            for st in g.states:
                parents = st.scope_parents()
                order = st.topological()
                scopes = st.facts().scopes
                keys = [None] + [n for n in st.nodes.values() if isinstance(n, MapEntry)]
                assert list(scopes) == keys
                for key in keys:
                    assert list(scopes[key]) == [n for n in order if parents[n.nid] is key]

    def test_auto_optimize_topological_calls_bounded(self, monkeypatch):
        # machine-independent guard against re-deriving the order in a loop:
        # each snapshot derives it once, and adi takes 168 calls; 612 before
        # the fusion searches passed their snapshots on, 822 after the
        # linear-time rewrite and 13068 before
        g = compile_kernel("adi")
        calls = count_calls(monkeypatch, "topological")
        auto_optimize(g)
        assert len(calls) <= 168

    def test_auto_optimize_scope_parents_calls_bounded(self, monkeypatch):
        # one derivation per snapshot that asks for scopes: adi takes 120;
        # it made 336 scope_parents calls when every query derived its own
        g = compile_kernel("adi")
        calls = count_derivations(monkeypatch, "parents")
        auto_optimize(g)
        assert len(calls) <= 120

    def test_auto_optimize_reachability_calls_bounded(self, monkeypatch):
        # adi takes 114 derivations; it made 261 reachability calls when each
        # fusion candidate and each race check derived its own
        g = compile_kernel("adi")
        calls = count_derivations(monkeypatch, "reach")
        auto_optimize(g)
        assert len(calls) <= 114

    def test_validate_derives_the_order_once_per_state(self, monkeypatch):
        # 45 calls on jacobi_2d's 15 states before validate took one snapshot
        g = compile_kernel("jacobi_2d")
        calls = count_calls(monkeypatch, "topological")
        assert [d for d in validate(g) if d.severity == "error"] == []
        assert len(calls) == len(g.states) == 15


def count_calls(monkeypatch, method: str) -> list:
    """Record every call of the ``State`` method ``method``."""
    calls = []
    original = getattr(State, method)
    monkeypatch.setattr(State, method, lambda self: calls.append(1) or original(self))
    return calls


def count_derivations(monkeypatch, field: str) -> list:
    """Record every derivation of the lazy snapshot field ``field``."""
    prop = StateFacts.__dict__[field]
    derive = prop.func
    calls = []
    monkeypatch.setattr(prop, "func", lambda facts: calls.append(1) or derive(facts))
    return calls


def reference_parents(st: State) -> dict:
    """Scope parents by definition, over the reference order and edge scans:
    a node shares the scope of its predecessors (an entry opens its own
    scope to its successors, an exit closes it), and an exit shares its
    entry's scope."""
    parent = {}
    for node in quadratic_topological(st):
        scopes = set()
        for e in st.in_edges(node):
            if isinstance(e.src, MapEntry):
                scopes.add(e.src)
            elif isinstance(e.src, MapExit):
                scopes.add(parent[e.src.entry.nid])
            else:
                scopes.add(parent[e.src.nid])
        if isinstance(node, MapExit):
            parent[node.nid] = parent[node.entry.nid]
        else:
            assert len(scopes) <= 1
            parent[node.nid] = scopes.pop() if scopes else None
    return parent


class TestFacts:
    @pytest.mark.parametrize("stage", ["plain", "optimized", "lowered"])
    @pytest.mark.parametrize("source", ALL_KERNELS)
    def test_snapshot_matches_reference_queries(self, source, stage):
        g = graph_at(source, stage)
        for st in g.states:
            facts = st.facts()
            assert facts.state is st
            order = quadratic_topological(st)
            assert list(facts.order) == order == st.topological()
            parents = reference_parents(st)
            assert list(facts.parents) == [n.nid for n in order]
            assert dict(facts.parents) == parents == st.scope_parents()
            entries = [n for n in st.nodes.values() if isinstance(n, MapEntry)]
            assert list(facts.scopes) == [None] + entries
            for key, members in facts.scopes.items():
                assert list(members) == [n for n in order if parents[n.nid] is key]
            assert dict(facts.reach) == per_node_reachability(st)
            for n in st.nodes.values():
                assert list(facts.ins[n.nid]) == st.in_edges(n)
                assert list(facts.outs[n.nid]) == st.out_edges(n)
            for entry in entries:
                assert facts.exits[entry] is st.exit_of(entry)
                inside = [n for n in st.sorted_nodes() if entry in enclosing(parents, n)]
                assert st.scope_children(entry) == inside

    @pytest.mark.parametrize("build, code, message", [
        (build_cycle, "state-cycle", "cycle in state 's0'"),
        (build_scope_join, "scope-structure", "node 1 in state 's0' joins different map scopes"),
    ], ids=["cycle", "scope_join"])
    def test_malformed_state_raises_what_validate_reports(self, build, code, message):
        g = build()
        with pytest.raises(ValueError) as raised:
            g.states[0].facts().parents
        assert str(raised.value) == message
        assert [(d.code, d.message) for d in g.validate()] == [(code, message)]

    def test_snapshot_is_read_only(self):
        facts = compile_kernel("gemm").states[0].facts()
        with pytest.raises(AttributeError):
            facts.order = ()
        with pytest.raises(TypeError):
            facts.ins[0] = ()
        with pytest.raises(TypeError):
            facts.parents[0] = None


def enclosing(parents: dict, node: Node) -> list:
    """The map entries whose scopes hold ``node``, innermost first."""
    out = []
    p = parents[node.nid]
    while p is not None:
        out.append(p)
        p = parents[p.nid]
    return out


def graph_at(source: str, stage: str) -> Sdfg:
    """A corpus kernel (or the nested-graph program) plain, after
    ``auto_optimize``, or as ``emit_c`` lowers it."""
    from sdfgkit.cemit import lowered
    from test_interp_paths import CALLS

    if source == "nested":
        g, _ = frontend.compile_source(CALLS)
    else:
        g = compile_kernel(source)
    if stage != "plain":
        auto_optimize(g)
    return lowered(g) if stage == "lowered" else g


def mutate_everything(g: Sdfg) -> None:
    """Change every mutable part of ``g`` that a rewrite may change."""
    for d in g.containers.values():
        d.shape = ()
    for t in g.transitions:
        t.assignments["mutated"] = Const(0)
    for st in g.states:
        for e in st.edges:
            if e.memlet is not None:
                e.memlet.subset = SubsetRange(())
        for n in st.nodes.values():
            if isinstance(n, MapEntry):
                n.params = ()
            elif isinstance(n, Tasklet):
                n.code = ()
            elif isinstance(n, LibraryNode):
                for v in n.attributes.values():
                    if isinstance(v, list):
                        v.append("mutated")
                n.attributes["mutated"] = True
            elif isinstance(n, NestedSdfg):
                n.symbol_map["mutated"] = Const(0)
                mutate_everything(n.sdfg)


def own_entries(g: Sdfg) -> bool:
    """Every map exit of ``g`` and of its nested graphs names an entry of
    its own state."""
    for st in g.states:
        for n in st.nodes.values():
            if isinstance(n, MapExit) and st.nodes.get(n.entry.nid) is not n.entry:
                return False
            if isinstance(n, NestedSdfg) and not own_entries(n.sdfg):
                return False
    return True


def scanned_children(st: State, entry: MapEntry, exit_node: MapExit) -> list:
    """The nodes ``entry``'s out edges reach before ``exit_node``, by a scan
    of the edge list at each step, in id order."""
    seen, pending = [], [entry]
    while pending:
        n = pending.pop()
        for e in st.edges:
            if e.src is n and e.dst is not exit_node and e.dst not in seen:
                seen.append(e.dst)
                pending.append(e.dst)
    return sorted(seen, key=lambda n: n.nid)


def assert_index_matches_scan(st: State) -> None:
    """Every query the state answers from its index equals a scan of its
    nodes and edges."""
    nodes = list(st.nodes.values())
    exits = {}
    for n in nodes:
        if isinstance(n, MapExit):
            exits.setdefault(n.entry, n)
    facts = st.facts()
    assert list(facts.ins) == list(facts.outs) == list(st.nodes)
    assert dict(facts.exits) == exits
    for n in nodes:
        ins = [e for e in st.edges if e.dst is n]
        outs = [e for e in st.edges if e.src is n]
        assert st.in_edges(n) == ins == list(facts.ins[n.nid])
        assert st.out_edges(n) == outs == list(facts.outs[n.nid])
        st.in_edges(n).append(None)  # a fresh list each call
        st.out_edges(n).clear()
        assert st.in_edges(n) == ins and st.out_edges(n) == outs
        if not isinstance(n, MapEntry):
            continue
        if n in exits:
            assert st.exit_of(n) is exits[n]
            assert st.scope_children(n) == scanned_children(st, n, exits[n])
        else:
            for query in (st.exit_of, st.scope_children):
                with pytest.raises(KeyError, match=f"map entry {n.nid} has no exit"):
                    query(n)


class TestIndex:
    @given(hst.data())
    @settings(max_examples=200, deadline=None)
    def test_edits_keep_the_index(self, data):
        """Random edits of a state and of its clones: after each, the index
        of every one of them equals a scan.  Edges run from lower to higher
        ids, so each state stays acyclic."""
        states = [State("s")]
        conns = hst.sampled_from([None, "IN_a", "OUT_a", "x"])
        for _ in range(data.draw(hst.integers(1, 40))):
            st = data.draw(hst.sampled_from(states))
            nodes = st.sorted_nodes()
            entries = [n for n in nodes if isinstance(n, MapEntry)]
            op = data.draw(hst.sampled_from(
                ["access", "map", "exit", "edge", "edge", "remove_edge", "remove_node",
                 "clone", "renumber"]))
            if op == "access":
                st.add(AccessNode("A"))
            elif op == "map":
                st.add(MapExit(st.add(MapEntry((("i", (Const(0), Const(3), Const(1))),)))))
            elif op == "exit" and entries:  # a second exit, as an invalid graph may hold
                st.add(MapExit(data.draw(hst.sampled_from(entries))))
            elif op == "edge" and len(nodes) > 1:
                a, b = sorted(data.draw(hst.lists(hst.sampled_from(nodes), min_size=2,
                                                  max_size=2, unique=True)),
                              key=lambda n: n.nid)
                st.add_edge(a, b, None, data.draw(conns), data.draw(conns))
            elif op == "remove_edge" and st.edges:
                st.remove_edge(data.draw(hst.sampled_from(st.edges)))
            elif op == "remove_node" and nodes:
                node = data.draw(hst.sampled_from(nodes))
                # an entry goes with its exits, which a clone could not re-link
                for n in [n for n in nodes if isinstance(n, MapExit) and n.entry is node]:
                    st.remove_node(n)
                st.remove_node(node)
            elif op == "clone":
                states.append(st.clone())
            elif op == "renumber":
                st.renumber()
            for each in states:
                assert_index_matches_scan(each)


class TestClone:
    @pytest.mark.parametrize("stage", ["plain", "optimized", "lowered"])
    @pytest.mark.parametrize("source", ALL_KERNELS + ["nested"])
    def test_copy_is_equal_and_independent(self, source, stage):
        from sdfgkit.serialize import serialize

        g = graph_at(source, stage)
        before = serialize(g)
        twin = g.copy()
        assert structural_eq(twin, g)
        assert own_entries(twin)
        mutate_everything(twin)
        assert serialize(g) == before

    def test_pipelines_make_no_graph_deepcopy(self, monkeypatch):
        import copy

        from sdfgkit.cemit import emit_c

        calls = []
        original = copy.deepcopy

        def counting(x, memo=None, _nil=[]):
            if isinstance(x, (Sdfg, State, Node)):
                calls.append(type(x).__name__)
            return original(x, memo, _nil)

        monkeypatch.setattr(copy, "deepcopy", counting)
        auto_optimize(compile_kernel("adi"))
        emit_c(compile_kernel("gemm"))
        assert calls == []


class TestStreams:
    def test_streams_serialize_but_never_execute(self):
        import numpy as np
        from sdfgkit.interp import ExecContext, InterpreterError, interpret
        from sdfgkit.serialize import deserialize, from_dict, serialize
        from sdfgkit.texpr import TRef

        g = Sdfg("fifo")
        g.add_symbol("N", 1)
        g.add_container(DataDescriptor("q", DType.F64, (Sym("N"),),
                                       DataKind.STREAM, transient=True))
        g.add_scalar("x", DType.F64)
        st = g.add_state("s0")
        xin = st.add(AccessNode("x"))
        t = st.add(Tasklet("push", ("v",), ("out",), (("out", TRef("v")),)))
        qn = st.add(AccessNode("q"))
        st.add_edge(xin, t, Memlet("x", SubsetRange(())), dst_conn="v")
        st.add_edge(t, qn, Memlet("q", SubsetRange.make([(0, 0, 1)])), src_conn="out")
        assert [d for d in g.validate() if d.severity == "error"] == []
        assert structural_eq(deserialize(__import__("sdfgkit.serialize", fromlist=["serialize"]).serialize(g)), g)
        ctx = ExecContext(bindings={"N": 4}).bind_inputs({"x": 1.0})
        with pytest.raises(InterpreterError, match="stream"):
            interpret(g, ctx)


def range_diagnostics(g: Sdfg) -> list[str]:
    return [d.message for d in g.validate() if d.code == "unknown-symbol"]


@pytest.mark.parametrize("text, names", [
    ("0:zz:1", ["zz"]), ("0:C:1", ["C"]), ("0:i:1", ["i"]), ("zz:yy:xx", ["xx", "yy", "zz"]),
    ("0:NI - 2:1", []), ("1:NJ:2", []),
], ids=["undeclared", "container", "own-parameter", "sorted", "declared", "stride"])
def test_map_range_names_only_symbols(text, names):
    """A map range may name declared symbols, symbols a transition assigns
    and the parameters of enclosing maps; wcr_sum with its range set to
    ``0:zz:1`` validated, and failed only after optimizing."""
    doc = json.loads(serialize(compile_kernel("wcr_sum")))
    i, j, node = next((i, j, n) for i, st in enumerate(doc["states"])
                      for j, n in enumerate(st["nodes"]) if n["type"] == "map_entry")
    p = node["params"][0][0]
    node["params"][0][1] = text
    b, e, s = (str(x) for x in from_dict(doc).states[i].nodes[j].params[0][1])
    assert range_diagnostics(from_dict(doc)) == [
        f"range {b}:{e}:{s} of map parameter '{p}' uses undeclared name '{name}'"
        for name in names]


def test_map_range_names_an_assigned_symbol():
    """``u``, which no graph symbol declares, is bound by a transition."""
    g = compile_kernel("jacobi_1d")
    entry = next(n for st in g.states for n in st.nodes.values() if isinstance(n, MapEntry))
    (p, (b, _, s)), = entry.params
    entry.params = ((p, (b, Sym("u"), s)),)
    assert range_diagnostics(g) == [f"range {b}:u:{s} of map parameter '{p}' uses undeclared "
                                    "name 'u'"]
    g.transitions[0].assignments["u"] = Const(2)
    assert range_diagnostics(g) == []


def test_inner_map_range_names_the_outer_parameter():
    """An inner map over ``j`` in ``0..i`` may name the enclosing map's
    ``i``; the outer map may not name ``j``."""
    def graph(outer_end, inner_end) -> Sdfg:
        g = Sdfg("triangle")
        g.add_symbol("N", 1)
        g.add_array("A", DType.F64, (Sym("N"), Sym("N")))
        st = g.add_state("s0", start=True)
        outer = st.add(MapEntry((("i", (Const(0), outer_end, Const(1))),)))
        inner = st.add(MapEntry((("j", (Const(0), inner_end, Const(1))),)))
        t = st.add(Tasklet("one", (), ("out",), (("out", TNum(1.0)),)))
        inner_exit, outer_exit = st.add(MapExit(inner)), st.add(MapExit(outer))
        st.add_edge(outer, inner)
        st.add_edge(inner, t)
        st.add_edge(t, inner_exit, Memlet("A", SubsetRange.point([Sym("i"), Sym("j")])),
                    "out", "IN_A")
        whole = g.containers["A"].full_subset()
        st.add_edge(inner_exit, outer_exit, Memlet("A", whole), "OUT_A", "IN_A")
        st.add_edge(outer_exit, st.add(AccessNode("A")), Memlet("A", whole), "OUT_A")
        return g

    assert range_diagnostics(graph(Sym("N") - 1, Sym("i"))) == []
    assert range_diagnostics(graph(Sym("j"), Sym("i"))) == [
        "range 0:j:1 of map parameter 'i' uses undeclared name 'j'"]
