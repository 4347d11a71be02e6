import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from sdfgkit import frontend
from sdfgkit.autoopt import auto_optimize
from sdfgkit.ir import (
    AccessNode, DataDescriptor, DataKind, DType, LibKind, LibraryNode, MapEntry,
    MapExit, Memlet, NestedSdfg, Node, Schedule, Sdfg, State, StateFacts, Tasklet, Wcr,
    race_free, structural_eq, validate,
)
from sdfgkit.symbolic import Const, SubsetRange, Sym
from sdfgkit.texpr import TBin, TNum, TRef

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


@pytest.mark.parametrize("build, legal", [
    (lambda: build_shift_map("B"), True),
    (build_cycle, False),
    (build_scope_join, False),
    (build_race_graph, False),
    (lambda: build_shift_map("A"), False),
], ids=["clean", "cycle", "scope_join", "unordered_writes", "cross_iteration"])
def test_race_free_predicate(build, legal):
    g = build()
    assert race_free(g.states[0], g.assumptions()) is legal


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
            assert st.reachability() == per_node_reachability(st)

    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_scopes_match_parent_filter(self, name):
        g = compile_kernel(name)
        for stage in ("compiled", "optimized"):
            if stage == "optimized":
                auto_optimize(g)
            for st in g.states:
                parents = st.scope_parents()
                order = st.topological()
                scopes = st.scopes()
                keys = [None] + [n for n in st.nodes.values() if isinstance(n, MapEntry)]
                assert list(scopes) == keys
                for key in keys:
                    assert scopes[key] == [n for n in order if parents[n.nid] is key]

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
            assert {k: list(v) for k, v in facts.scopes.items()} == st.scopes()
            assert dict(facts.reach) == per_node_reachability(st) == st.reachability()
            for n in st.nodes.values():
                assert list(facts.ins[n.nid]) == st.in_edges(n)
                assert list(facts.outs[n.nid]) == st.out_edges(n)
            for entry in entries:
                assert facts.exits[entry] is st.exit_of(entry)
                inside = [n for n in st.sorted_nodes() if entry in enclosing(parents, n)]
                assert facts.scope_children(entry) == inside == st.scope_children(entry)

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
        from sdfgkit.serialize import deserialize, serialize
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
