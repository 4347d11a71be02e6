import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from sdfgkit import autoopt, frontend, passes, symbolic
from sdfgkit.autoopt import subgraph_fusion
from sdfgkit.interp import ExecContext, InterpOptions, interpret
from sdfgkit.ir import (
    AccessNode, DataKind, DType, MapEntry, MapExit, Memlet, NestedSdfg, Schedule, Sdfg, State,
    StateFacts, Tasklet, Ternary, Wcr, content_key, race_free, structural_eq,
)
from sdfgkit.passes import (
    PassReport, coarsen, find_loops, graph_measure, inline_nested, loop_to_map,
    redundant_copy_removal, reversed_loop_clone, state_fusion, to_fixed_point,
)
from sdfgkit.serialize import deserialize, serialize
from sdfgkit.symbolic import Const, SubsetRange, Sym
from sdfgkit.texpr import TBin, TRef

from conftest import (
    ALL_KERNELS, KERNEL_SYMBOLS, compile_kernel, corpus_source, make_inputs,
    rel_err, run_graph, run_oracle,
)
from test_interp_paths import CALLS
from test_optimizer_pin import LOWERING_PROGRAMS


def outputs_of(g, name, syms, seed=3):
    prog = frontend.parse(corpus_source(name))
    inputs = make_inputs(prog, syms, seed=seed)
    out, _ = run_graph(g, syms, {k: (np.array(v) if hasattr(v, "shape") else v)
                                 for k, v in inputs.items()})
    return out


class TestStateFusion:
    def test_gemm_first_pair(self):
        """tmp0 = alpha*A and tmp1 = tmp0@B merge, sharing the tmp0 node."""
        g = compile_kernel("gemm")
        s0, s1 = g.states[0].label, g.states[1].label
        assert state_fusion(g, s0, s1)
        st = g.states[0]
        tmp0_nodes = [n for n in st.nodes.values()
                      if isinstance(n, AccessNode) and n.container == "tmp0"]
        assert len(tmp0_nodes) == 1
        assert st.in_edges(tmp0_nodes[0]) and st.out_edges(tmp0_nodes[0])

    def test_disjoint_containers_side_by_side(self):
        src = ("def f(A: f64[N], B: f64[N], C: f64[N], D: f64[N]):\n"
               "    B[:] = A + 1.0\n"
               "    D[:] = C + 2.0\n")
        g, _ = frontend.compile_source(src)
        assert state_fusion(g, g.states[0].label, g.states[1].label)
        assert len(g.states) == 1

    def test_second_predecessor_refuses(self):
        src = ("def f(x: f64, A: f64[N], B: f64[N]):\n"
               "    if x > 0.0:\n"
               "        A[0] = 1.0\n"
               "    B[:] = A + 1.0\n")
        g, _ = frontend.compile_source(src)
        # the join state has two predecessors; no fusion may apply to it
        for t in list(g.transitions):
            if t.condition is None:
                assert not state_fusion(g, t.src, t.dst) or \
                    len(g.in_transitions(t.dst)) == 1

    def test_invalid_ids_raise(self):
        g = compile_kernel("gemm")
        with pytest.raises(ValueError):
            state_fusion(g, "nope", "s0")

    def test_semantics_preserved_per_application(self):
        name = "gemm"
        syms = KERNEL_SYMBOLS[name]
        g = compile_kernel(name)
        ref = outputs_of(g.copy(), name, syms)
        while True:
            fused = False
            for t in list(g.transitions):
                before = g.copy()
                if state_fusion(g, t.src, t.dst):
                    out = outputs_of(g.copy(), name, syms)
                    for k in ref:
                        assert np.array_equal(out[k], ref[k])
                    fused = True
                    break
            if not fused:
                break


def build_copy_chain() -> Sdfg:
    """A -> T1 -> T2 -> tasklet reads T2[1:N-2]."""
    g = Sdfg("copies")
    g.add_symbol("N", 4)
    g.add_array("A", DType.F64, (Sym("N"),))
    g.add_array("T1", DType.F64, (Sym("N"),), transient=True)
    g.add_array("T2", DType.F64, (Sym("N"),), transient=True)
    g.add_array("out", DType.F64, (Sym("N"),))
    st = g.add_state("s0")
    full = SubsetRange.make([(0, Sym("N") - 1, 1)])
    a = st.add(AccessNode("A"))
    t1 = st.add(AccessNode("T1"))
    t2 = st.add(AccessNode("T2"))
    st.add_edge(a, t1, Memlet("A", full))
    st.add_edge(t1, t2, Memlet("T1", full))
    k = st.add(Tasklet("read", ("v",), ("o",), (("o", TRef("v")),)))
    o = st.add(AccessNode("out"))
    st.add_edge(t2, k, Memlet("T2", SubsetRange.make([(1, 1, 1)])), dst_conn="v")
    st.add_edge(k, o, Memlet("out", SubsetRange.make([(0, 0, 1)])), src_conn="o")
    return g


class TestRedundantCopyRemoval:
    def test_subset_composition(self):
        g = Sdfg("c")
        g.add_symbol("N", 4)
        g.add_array("A", DType.F64, (Sym("N"),))
        g.add_array("T", DType.F64, (Sym("N"),), transient=True)
        g.add_array("out", DType.F64, (1,))
        st = g.add_state("s0")
        a = st.add(AccessNode("A"))
        t = st.add(AccessNode("T"))
        st.add_edge(a, t, Memlet("A", SubsetRange.make([(0, Sym("N") - 1, 1)])))
        k = st.add(Tasklet("read", ("v",), ("o",), (("o", TRef("v")),)))
        o = st.add(AccessNode("out"))
        st.add_edge(t, k, Memlet("T", SubsetRange.make([(1, 1, 1)])), dst_conn="v")
        st.add_edge(k, o, Memlet("out", SubsetRange.make([(0, 0, 1)])), src_conn="o")
        assert redundant_copy_removal(g)
        assert "T" not in g.containers
        reads = [e.memlet for e in st.edges if e.dst_conn == "v"]
        assert str(reads[0]) == "A[1:1:1]"

    def test_chain_collapses_in_two(self):
        g = build_copy_chain()
        count = 0
        while redundant_copy_removal(g):
            count += 1
        assert count == 2
        assert "T1" not in g.containers and "T2" not in g.containers

    def test_written_elsewhere_not_applied(self):
        g = build_copy_chain()
        # write T1 from a second state: no longer a pure copy target
        st2 = g.add_state("s1")
        g.add_transition("s0", "s1")
        x = st2.add(Tasklet("w", (), ("o",), (("o", TRef("N")),)))
        t1b = st2.add(AccessNode("T1"))
        st2.add_edge(x, t1b, Memlet("T1", SubsetRange.make([(0, 0, 1)])), src_conn="o")
        applied = 0
        while redundant_copy_removal(g):
            applied += 1
        assert applied == 1  # only T2 goes away


class TestInlineNested:
    def _nested_graph(self):
        src = ("def scale(X: f64[N], Y: f64[N]):\n"
               "    Y[:] = X * 2.0\n"
               "def main(A: f64[N], B: f64[N], C: f64[N]):\n"
               "    scale(A, B)\n"
               "    scale(B, C)\n")
        g, diags = frontend.compile_source(src)
        assert not diags
        return g

    def test_single_state_nested_inlined(self):
        g = self._nested_graph()
        n_before = sum(isinstance(n, NestedSdfg) for st in g.states
                       for n in st.nodes.values())
        assert n_before == 2
        assert inline_nested(g)
        n_after = sum(isinstance(n, NestedSdfg) for st in g.states
                      for n in st.nodes.values())
        assert n_after == n_before - 1

    def test_both_calls_inline_with_distinct_transients(self):
        g = self._nested_graph()
        while inline_nested(g):
            pass
        assert not any(isinstance(n, NestedSdfg) for st in g.states
                       for n in st.nodes.values())
        ctx = ExecContext(bindings={"N": 4})
        ctx.bind_inputs({"A": np.arange(4.0), "B": np.zeros(4), "C": np.zeros(4)})
        out = interpret(g, ctx)
        assert np.array_equal(out["C"], np.arange(4.0) * 4)

    def test_multi_state_nested_not_inlined(self):
        src = ("def loopy(X: f64[N]):\n"
               "    for i in range(N):\n"
               "        X[i] += 1.0\n"
               "def main(A: f64[N]):\n"
               "    loopy(A)\n")
        g, _ = frontend.compile_source(src)
        assert not inline_nested(g)


class TestLoopToMap:
    def test_fig4_applied(self):
        g = compile_kernel("fig4_loop")
        coarsen(g)
        loops = find_loops(g)
        assert len(loops) == 1
        rep = PassReport()
        assert loop_to_map(g, loops[0], rep)
        assert rep.loop_decisions == [("loop0_guard", True)]
        ctx = ExecContext(bindings={"NI": 5}).bind_inputs({"C": np.arange(5.0)})
        assert np.array_equal(interpret(g, ctx)["C"], np.arange(5.0) + 1)

    @pytest.mark.parametrize("name, state, edge, guard", [
        ("doitgen", 4, 0, "loop2_guard"), ("fig4_loop", 2, 1, "loop0_guard")])
    def test_body_edge_without_memlet_is_declined(self, name, state, edge, guard):
        """A loop whose body has an edge at an access node without a memlet
        is not converted: the conversion reroutes such an edge through the
        map's entry or exit by its memlet, and raised ``AttributeError`` on
        ``None``.  Without the deletion the same loop converts."""
        decisions = []
        for delete in (False, True):
            g = compile_kernel(name)
            if delete:
                g.states[state].edges[edge].memlet = None
            coarsen(g)
            rep = PassReport()
            loop_to_map(g, next(x for x in find_loops(g) if x.guard == guard), rep)
            decisions += rep.loop_decisions
        assert decisions == [(guard, True), (guard, False)]

    def test_jacobi_time_loop_refused(self):
        g = compile_kernel("jacobi_1d")
        coarsen(g)
        loops = find_loops(g)
        assert loops
        rep = PassReport()
        for loop in loops:
            assert not loop_to_map(g, loop, rep)

    def test_reduction_becomes_wcr_map(self):
        src = ("def f(s: f64, A: f64[N]):\n"
               "    for i in range(N):\n"
               "        s += A[i]\n")
        g, _ = frontend.compile_source(src)
        coarsen(g)
        assert loop_to_map(g, find_loops(g)[0], PassReport())
        wcr = [e for st in g.states for e in st.edges
               if e.memlet is not None and e.memlet.wcr is Wcr.ADD]
        assert wcr
        A = np.arange(6.0)
        ctx = ExecContext(bindings={"N": 6}).bind_inputs({"s": 1.0, "A": A})
        seq = 1.0 + A.sum()
        assert abs(interpret(g, ctx)["s"][()] - seq) < 1e-12

    def test_accepted_loops_pass_reversed_map_oracle(self):
        for name in ("fig4_loop", "doitgen"):
            g = compile_kernel(name)
            coarsen(g)
            rep = PassReport()
            changed = True
            while changed:
                changed = False
                for loop in find_loops(g):
                    if loop_to_map(g, loop, rep):
                        changed = True
                        break
            syms = KERNEL_SYMBOLS[name]
            prog = frontend.parse(corpus_source(name))
            inputs = make_inputs(prog, syms, seed=9)
            fwd, _ = run_graph(g.copy(), syms, {k: (np.array(v) if hasattr(v, "shape") else v)
                                                for k, v in inputs.items()})
            rev, _ = run_graph(g.copy(), syms,
                               {k: (np.array(v) if hasattr(v, "shape") else v)
                                for k, v in inputs.items()},
                               options=InterpOptions(reverse_maps=True))
            for k in fwd:
                assert rel_err(rev[k], fwd[k]) <= 1e-9

    def test_reversed_loop_clone_detects_order_sensitivity(self):
        src = ("def prefix(A: f64[N]):\n"
               "    for i in range(1, N):\n"
               "        A[i] = A[i] + A[i - 1]\n")
        g, _ = frontend.compile_source(src)
        coarsen(g)
        probe, _ = frontend.compile_source(src)
        coarsen(probe)
        assert not loop_to_map(probe, find_loops(probe)[0], PassReport())
        loop = find_loops(g)[0]
        inputs = {"A": np.arange(1.0, 7.0)}
        fwd, _ = run_graph(g.copy(), {"N": 6}, {k: np.array(v) for k, v in inputs.items()})
        rev_g = reversed_loop_clone(g, loop.guard)
        rev, _ = run_graph(rev_g, {"N": 6}, {k: np.array(v) for k, v in inputs.items()})
        assert rel_err(rev["A"], fwd["A"]) > 1e-6


class TestCoarsen:
    def test_gemm_to_single_state(self):
        g = compile_kernel("gemm")
        assert len(g.states) >= 4
        rep = coarsen(g)
        assert len(g.states) == 1
        assert rep.applications.get("state_fusion", 0) >= 3

    def test_idempotent(self):
        g = compile_kernel("gemm")
        coarsen(g)
        assert coarsen(g).total == 0

    def test_termination_budget(self):
        # every application removes at least one node or state
        for name in ALL_KERNELS:
            g = compile_kernel(name)
            budget = len(g.states) + sum(len(s.nodes) for s in g.states)
            rep = coarsen(g)
            assert rep.total <= budget

    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_corpus_semantics_preserved(self, name):
        syms = KERNEL_SYMBOLS[name]
        g = compile_kernel(name)
        coarsen(g)
        assert [d for d in g.validate() if d.severity == "error"] == []
        prog = frontend.parse(corpus_source(name))
        inputs = make_inputs(prog, syms, seed=17)
        out, _ = run_graph(g, syms, {k: (np.array(v) if hasattr(v, "shape") else v)
                                     for k, v in inputs.items()})
        ref = run_oracle(name, syms, inputs)
        for k in ref:
            assert np.array_equal(out[k], ref[k]), f"{name}: {k} differs"


# ---------------------------------------------------------------------------
# Reference coarsening: state fusion one pair at a time, each time the first
# transition (by the places of its states) whose pair fuses, every merge on
# fresh copies with its own race check.


def _reference_merge(f1: StateFacts, s2: State) -> State | None:
    a, b = f1.state.clone(), s2.clone()
    a_nodes, b_nodes = a.sorted_nodes(), b.sorted_nodes()
    b_edges = [(e.src, e.dst, e.memlet, e.src_conn, e.dst_conn) for e in b.edges]
    b_written = {id(e.dst) for e in b.edges}
    b_sources = {id(n) for n in b_nodes if isinstance(n, AccessNode) and id(n) not in b_written}
    reach = f1.reach
    occs: dict[str, list[AccessNode]] = {}
    for n in a_nodes:
        if isinstance(n, AccessNode):
            occs.setdefault(n.container, []).append(n)
    terminals = {
        cont: [u for u in nodes if not any(v is not u and v.nid in reach[u.nid] for v in nodes)]
        for cont, nodes in occs.items()
    }
    written = {n.container for n in a_nodes if isinstance(n, AccessNode) and f1.ins[n.nid]}
    merged = State(a.label)
    for n in a_nodes:
        n.nid = -1
        merged.add(n)
    for e in a.edges:
        merged.add_edge(e.src, e.dst, e.memlet, e.src_conn, e.dst_conn)
    fuse_map: dict[int, AccessNode] = {}
    for n in b_nodes:
        if id(n) in b_sources and n.container in written:
            cands = terminals.get(n.container, [])
            if len(cands) > 1:
                return None
            if len(cands) == 1:
                fuse_map[id(n)] = cands[0]
    for n in b_nodes:
        if id(n) not in fuse_map:
            n.nid = -1
            merged.add(n)
    for src, dst, m, sc, dc in b_edges:
        merged.add_edge(fuse_map.get(id(src), src), fuse_map.get(id(dst), dst), m, sc, dc)
    return merged


def _reference_fusion(g: Sdfg, s1_label: str, s2_label: str) -> bool:
    if s1_label == s2_label:
        return False
    s1, s2 = g.state(s1_label), g.state(s2_label)
    between = [t for t in g.transitions if t.src == s1_label and t.dst == s2_label]
    if len(between) != 1:
        return False
    t = between[0]
    if t.condition is not None or t.assignments:
        return False
    if len(g.out_transitions(s1_label)) != 1 or len(g.in_transitions(s2_label)) != 1:
        return False
    merged = _reference_merge(s1.facts(), s2)
    if merged is None or not race_free(merged, g.assumptions()):
        return False
    g.states[g.states.index(s1)] = merged
    g.states.remove(s2)
    g.transitions.remove(t)
    for tr in g.transitions:
        if tr.src == s2_label:
            tr.src = s1_label
        if tr.dst == s2_label:
            tr.dst = s1_label
    return True


def reference_coarsen(g: Sdfg) -> PassReport:
    report = PassReport()
    report.before_states = len(g.states)
    report.before_nodes = sum(len(s.nodes) for s in g.states)

    def fuse_first_transition() -> bool:
        order = [s.label for s in g.states]
        return any(_reference_fusion(g, t.src, t.dst) for t in sorted(
            g.transitions, key=lambda t: (order.index(t.src), order.index(t.dst))))

    for name, n in to_fixed_point({
        "state_fusion": fuse_first_transition,
        "redundant_copy_removal": lambda: redundant_copy_removal(g),
        "inline_nested": lambda: inline_nested(g),
    }):
        report.count(name, n)
    report.after_states = len(g.states)
    report.after_nodes = sum(len(s.nodes) for s in g.states)
    return report


def assert_coarsens_as_reference(g: Sdfg) -> PassReport:
    """``coarsen`` gives the reference's graph, node ids included, and its
    pass report."""
    ref = g.copy()
    want = reference_coarsen(ref)
    got = coarsen(g)
    assert structural_eq(g, ref)
    assert content_key(g) == content_key(ref)
    assert got.to_json() == want.to_json()
    return got


# Hand-built chains of one-tasklet states over four arrays.  A state is a
# list of writes ``(container, index, reads)``; each read and write gets its
# own access node, except that the containers in ``shared`` have a current
# node in each state: reads use it, and each write makes a new one.


def chain_graph(states: list[list[tuple]], order: list[int] | None = None,
                shared: tuple[str, ...] = (), conditional: tuple[int, ...] = (),
                ring: bool = False) -> Sdfg:
    """States ``s0 -> s1 -> ...`` (``sK -> s0`` too for a ring), listed in
    ``order``; the links out of the states in ``conditional`` carry a
    condition."""
    g = Sdfg("chain")
    g.add_symbol("N", 8)
    for name in "ABCD":
        g.add_array(name, DType.F64, (Sym("N"),))
    for i in list(range(len(states))) if order is None else order:
        st = g.add_state(f"s{i}", start=i == 0)
        current: dict[str, AccessNode] = {}

        def read(cont):
            if cont not in shared:
                return st.add(AccessNode(cont))
            if cont not in current:
                current[cont] = st.add(AccessNode(cont))
            return current[cont]

        def write(cont):
            current[cont] = st.add(AccessNode(cont))
            return current[cont]

        for k, (cont, idx, reads) in enumerate(states[i]):
            ins = tuple(f"v{j}" for j in range(len(reads)))
            code = TRef(ins[0]) if ins else TRef("N")
            for conn in ins[1:]:
                code = TBin("+", code, TRef(conn))
            t = st.add(Tasklet(f"t{i}_{k}", ins, ("o",), (("o", code),)))
            for conn, (rc, ri) in zip(ins, reads):
                st.add_edge(read(rc), t, Memlet(rc, SubsetRange.make([(ri, ri, 1)])),
                            dst_conn=conn)
            st.add_edge(t, write(cont), Memlet(cont, SubsetRange.make([(idx, idx, 1)])),
                        src_conn="o")
    n = len(states)
    for i in range(n if ring else n - 1):
        cond = TBin("<", TRef("N"), TRef("N")) if i in conditional else None
        g.add_transition(f"s{i}", f"s{(i + 1) % n}", cond)
    return g


class TestChainFusion:
    """Coarsening fuses a chain of states in one application with one race
    check, and gives what fusing one pair at a time gives."""

    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_corpus_as_reference(self, name):
        assert_coarsens_as_reference(compile_kernel(name))

    @pytest.mark.parametrize("source", [CALLS, *LOWERING_PROGRAMS.values()],
                             ids=["calls", *LOWERING_PROGRAMS])
    def test_programs_as_reference(self, source):
        g, _ = frontend.compile_source(source)
        if g is not None:
            assert_coarsens_as_reference(g)

    def test_racy_middle_link(self):
        # s1 and s2 write C[0] from unordered nodes: only s0+s1 and s2+s3 fuse
        g = chain_graph([
            [("A", 0, [("B", 0)])],
            [("C", 0, [("B", 1)])],
            [("C", 0, [("D", 0)])],
            [("D", 1, [("A", 0)])],
        ])
        rep = assert_coarsens_as_reference(g)
        assert rep.applications == {"state_fusion": 2}
        assert [s.label for s in g.states] == ["s0", "s2"]

    def test_ambiguous_link(self):
        # s1 leaves two live C nodes, so s2's read of C has no one to fuse with
        g = chain_graph([
            [("A", 0, [("B", 0)])],
            [("C", 0, [("B", 0)]), ("C", 1, [("B", 1)])],
            [("D", 0, [("C", 0)])],
            [("B", 2, [("D", 0)])],
        ])
        rep = assert_coarsens_as_reference(g)
        assert rep.applications == {"state_fusion": 2}
        assert [s.label for s in g.states] == ["s0", "s2"]

    def test_out_of_chain_order(self):
        # listed s1, s2, s0: s1+s2 fuse first, and s0 then joins them
        g = chain_graph([
            [("A", 0, [("B", 0)])],
            [("C", 0, [("A", 0)])],
            [("D", 0, [("C", 0)])],
        ], order=[1, 2, 0], shared=("A", "C"))
        rep = assert_coarsens_as_reference(g)
        assert rep.applications == {"state_fusion": 2}
        assert [s.label for s in g.states] == ["s0"]

    def test_out_of_chain_order_partial(self):
        # s0 and s1 each leave a live C node; s2 reads C[0], which only
        # s1+s2 can match, and s0 must not join them: one fusion
        g = chain_graph([
            [("C", 0, [("B", 0)])],
            [("C", 1, [("B", 1)])],
            [("D", 0, [("C", 0)])],
        ], order=[1, 2, 0])
        rep = assert_coarsens_as_reference(g)
        assert rep.applications == {"state_fusion": 1}
        assert [s.label for s in g.states] == ["s1", "s0"]

    def test_conditional_link_breaks_chain(self):
        g = chain_graph([
            [("A", 0, [("B", 0)])],
            [("B", 1, [("A", 0)])],
            [("C", 0, [("B", 1)])],
            [("D", 0, [("C", 0)])],
        ], shared=("A", "B", "C"), conditional=(0,))
        rep = assert_coarsens_as_reference(g)
        assert rep.applications == {"state_fusion": 2}
        assert [s.label for s in g.states] == ["s0", "s1"]

    def test_ring(self):
        g = chain_graph([
            [("A", 0, [("B", 0)])],
            [("C", 0, [("A", 0)])],
            [("D", 0, [("C", 0)])],
        ], order=[1, 0, 2], shared=("A", "C"), ring=True)
        rep = assert_coarsens_as_reference(g)
        assert rep.applications == {"state_fusion": 2}
        assert len(g.states) == 1

    @settings(max_examples=150, deadline=None)
    @given(hst.data())
    def test_random_chains_as_reference(self, data):
        access = hst.tuples(hst.sampled_from("ABCD"), hst.integers(0, 2))
        write = hst.tuples(hst.sampled_from("ABCD"), hst.integers(0, 2),
                           hst.lists(access, max_size=2))
        states = data.draw(hst.lists(hst.lists(write, min_size=1, max_size=3),
                                     min_size=2, max_size=5))
        order = data.draw(hst.permutations(range(len(states))))
        shared = data.draw(hst.sets(hst.sampled_from("ABCD")))
        conditional = data.draw(hst.sets(hst.integers(0, len(states) - 1)))
        g = chain_graph(states, order, tuple(sorted(shared)), tuple(sorted(conditional)),
                        ring=data.draw(hst.booleans()))
        assert_coarsens_as_reference(g)

    def test_adi_one_check_per_chain(self, monkeypatch):
        """adi's 48 fusions come in 7 chains: one race check per chain and
        one copy of each of the 55 states in them, where pair by pair took
        48 checks and two copies a merge."""
        calls = {"race_free": 0, "clone": 0}

        def counted(name, fn):
            def wrapper(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)
            return wrapper

        g = compile_kernel("adi")
        monkeypatch.setattr(passes, "race_free", counted("race_free", passes.race_free))
        monkeypatch.setattr(State, "clone", counted("clone", State.clone))
        rep = coarsen(g)
        assert rep.applications["state_fusion"] == 48
        assert calls["race_free"] <= 7
        assert calls["clone"] <= 48 + 7


# ---------------------------------------------------------------------------
# Reference subgraph fusion: one pair of maps at a time, each time the first
# legal pair of top-level parallel maps (more dimensions first, then in
# topological order), every fusion on a copy of the state with its own race
# check, the search starting again from the first pair after each fusion.


def _reference_children(facts: StateFacts, entry: MapEntry) -> list:
    """Every node inside ``entry``'s scope, at any depth, by node id, from
    the snapshot's scope tree."""
    out, pending = [], [entry]
    while pending:
        for n in facts.scopes.get(pending.pop(), ()):
            out.append(n)
            if isinstance(n, MapEntry):
                pending.append(n)
    return sorted(out, key=lambda n: n.nid)


def _reference_intermediates(facts: StateFacts, m1: MapEntry, m2: MapEntry):
    consumers = {e.dst.nid: e.dst for e in facts.outs[facts.exits[m1].nid]}
    mids = {
        nid: n for nid, n in consumers.items()
        if isinstance(n, AccessNode) and any(e.dst is m2 for e in facts.outs[nid])
    }
    reach = facts.reach
    inside = {c.nid for m in (m1, m2) for c in _reference_children(facts, m)}
    for nid in consumers:
        if nid not in mids and nid not in inside and m2.nid in reach[nid]:
            return None
    return mids


def _reference_fresh(st: State, node, name: str) -> str:
    """``name``, or ``name`` with the first numeric suffix, that no edge
    into ``node`` names."""
    taken = {autoopt._strip(e.dst_conn) for e in st.in_edges(node)}
    fresh, k = name, 0
    while fresh in taken:
        k += 1
        fresh = f"{name}_{k}"
    return fresh


def _reference_apply_fusion(st: State, m1: MapEntry, m2: MapEntry, m2_children,
                            mapping, mids) -> None:
    x1, x2 = st.exit_of(m1), st.exit_of(m2)
    autoopt._rename_in_scope(st, m2, m2_children, {k: Sym(v) for k, v in mapping.items()})
    strip = autoopt._strip
    for n in mids:
        for e in list(st.in_edges(n)):
            if e.src is x1:
                inner = [pe for pe in st.in_edges(x1)
                         if pe.dst_conn == "IN_" + strip(e.src_conn) and pe.memlet is not None]
                for pe in inner:
                    st.add_edge(pe.src, n, pe.memlet, pe.src_conn, None)
                    st.remove_edge(pe)
                st.remove_edge(e)
        for e in list(st.out_edges(n)):
            if e.dst is m2:
                conn = strip(e.dst_conn)
                for ce in list(st.out_edges(m2)):
                    if strip(ce.src_conn) == conn:
                        st.add_edge(n, ce.dst, ce.memlet, None, ce.dst_conn)
                        st.remove_edge(ce)
                st.remove_edge(e)
    for e in list(st.in_edges(m2)):
        if e.memlet is None:
            st.remove_edge(e)
            continue
        conn = strip(e.dst_conn)
        for ce in list(st.out_edges(m2)):
            if strip(ce.src_conn) == conn:
                fresh = _reference_fresh(st, m1, f"F{m2.nid}_{conn}")
                st.add_edge(e.src, m1, e.memlet, e.src_conn, f"IN_{fresh}")
                st.add_edge(m1, ce.dst, ce.memlet, f"OUT_{fresh}", ce.dst_conn)
                st.remove_edge(ce)
        st.remove_edge(e)
    for e in list(st.out_edges(m2)):
        if e.memlet is None:
            st.add_edge(m1, e.dst)
        st.remove_edge(e)
    for e in list(st.in_edges(x2)):
        conn = strip(e.dst_conn)
        for ce in list(st.out_edges(x2)):
            if strip(ce.src_conn) == conn:
                fresh = _reference_fresh(st, x1, f"F{m2.nid}_{conn}")
                st.add_edge(e.src, x1, e.memlet, e.src_conn, f"IN_{fresh}")
                st.add_edge(x1, ce.dst, ce.memlet, f"OUT_{fresh}", ce.dst_conn)
                st.remove_edge(ce)
        st.remove_edge(e)
    st.remove_node(m2)
    st.remove_node(x2)


def _reference_try_fuse(g: Sdfg, facts: StateFacts, m1: MapEntry, m2: MapEntry):
    mapping = autoopt._align_params(m1, m2)
    if mapping is None:
        return None
    mids = _reference_intermediates(facts, m1, m2)
    if mids is None:
        return None
    if not mids:
        in1 = {e.memlet.container for e in facts.ins[m1.nid] if e.memlet}
        in2 = {e.memlet.container for e in facts.ins[m2.nid] if e.memlet}
        if not (in1 & in2):
            return None
    w1 = autoopt._by_container(facts.ins[facts.exits[m1].nid])
    r2 = autoopt._by_container(facts.outs[m2.nid])
    rename = {k: Sym(v) for k, v in mapping.items()}
    asm = g.assumptions()
    for p, _ in m1.params:
        asm = asm.with_bound(p, 0)
    for n in mids.values():
        reads = [e.memlet.subset.substitute(rename) for e in r2.get(n.container, [])]
        writes = [e.memlet.subset for e in w1.get(n.container, [])]
        for r in reads:
            if not any(symbolic.covers(w, r, asm) is Ternary.TRUE for w in writes):
                return None
    cand = facts.state.clone()
    scope = cand.nodes[m1.nid]
    cand_mids = [cand.nodes[nid] for nid in mids]
    m2_children = [cand.nodes[c.nid] for c in _reference_children(facts, m2)]
    _reference_apply_fusion(cand, scope, cand.nodes[m2.nid], m2_children, mapping, cand_mids)
    try:
        cand_facts = cand.facts()
    except ValueError:
        return None
    if not race_free(cand, g.assumptions(), cand_facts):
        return None
    return cand_facts, scope, cand_mids


def _reference_scalarize(g: Sdfg, facts: StateFacts, acc: AccessNode, scope: MapEntry) -> None:
    cont = acc.container
    desc = g.containers.get(cont)
    if desc is None or not desc.transient or desc.kind is not DataKind.ARRAY:
        return
    occs = [(s2, n) for s2 in g.states for n in s2.nodes.values()
            if isinstance(n, AccessNode) and n.container == cont]
    edges = [e for s2, _ in occs for e in s2.edges
             if e.memlet is not None and e.memlet.container == cont]
    in_scope = {id(c) for c in _reference_children(facts, scope)}
    if any(id(n) not in in_scope for _, n in occs):
        return
    subsets = {str(e.memlet.subset) for e in edges}
    if len(subsets) != 1:
        return
    sub = next(iter(edges)).memlet.subset
    if any(str(b) != str(e) for b, e, _ in sub.dims):
        return
    for e in edges:
        e.memlet.subset = SubsetRange(())
        e.memlet.volume = Const(1)
    desc.shape = ()
    desc.kind = DataKind.SCALAR


def reference_subgraph_fusion(g: Sdfg) -> PassReport:
    report = PassReport()
    for i in range(len(g.states)):
        facts = g.states[i].facts()
        while True:
            maps = [n for n in facts.scopes[None]
                    if isinstance(n, MapEntry) and n.schedule is Schedule.PARALLEL]
            order = {n.nid: k for k, n in enumerate(maps)}
            maps.sort(key=lambda m: -len(m.params))
            fused = next((f for m1 in maps for m2 in maps
                          if m1 is not m2 and order[m1.nid] <= order[m2.nid]
                          and autoopt._space_sig(m1) == autoopt._space_sig(m2)
                          and (f := _reference_try_fuse(g, facts, m1, m2)) is not None), None)
            if fused is None:
                break
            facts, scope, mids = fused
            g.states[i] = facts.state
            for n in mids:
                _reference_scalarize(g, facts, n, scope)
            report.count("subgraph_fusion")
    return report


def assert_fuses_as_reference(g: Sdfg) -> PassReport:
    """``subgraph_fusion`` gives the reference's graph, node ids and
    descriptors included, and its pass report."""
    ref = g.copy()
    want = reference_subgraph_fusion(ref)
    got = subgraph_fusion(g)
    assert structural_eq(g, ref)
    assert content_key(g) == content_key(ref)
    assert got.to_json() == want.to_json()
    return got


# Hand-built groups of one-tasklet maps in one state over arrays of length N.
# A map is ``(param, hi, write, reads)``: parameter ``param`` runs over
# 0..N - hi, the map writes ``write = (container, offset)`` at ``param +
# offset`` and reads each ``(container, offset)`` of ``reads`` likewise.
# Each container has a current access node: reads use it (a fresh node when
# there is none), so that a map reads what an earlier map wrote through the
# same node, and each write makes a new one.  T and U are transient.


def group_graph(maps: list[tuple]) -> Sdfg:
    g = Sdfg("group")
    g.add_symbol("N", 8)
    for name in "ABCD":
        g.add_array(name, DType.F64, (Sym("N"),))
    for name in "TU":
        g.add_array(name, DType.F64, (Sym("N"),), transient=True)
    st = g.add_state("s0", start=True)
    current: dict[str, AccessNode] = {}
    for k, (param, hi, (wc, wo), reads) in enumerate(maps):
        i = Sym(param)
        entry = st.add(MapEntry(((param, (Const(0), Sym("N") - hi, Const(1))),),
                                Schedule.PARALLEL))
        exit_ = st.add(MapExit(entry))
        ins = tuple(f"v{j}" for j in range(len(reads)))
        code = TRef(ins[0]) if ins else TRef("N")
        for conn in ins[1:]:
            code = TBin("+", code, TRef(conn))
        t = st.add(Tasklet(f"t{k}", ins, ("o",), (("o", code),)))
        if not reads:
            st.add_edge(entry, t)
        for conn, (rc, ro) in zip(ins, reads):
            if rc not in current:
                current[rc] = st.add(AccessNode(rc))
            st.add_edge(current[rc], entry,
                        Memlet(rc, SubsetRange.make([(ro, Sym("N") - hi + ro, 1)])),
                        dst_conn=f"IN_{conn}")
            st.add_edge(entry, t, Memlet(rc, SubsetRange.point([i + ro])),
                        src_conn=f"OUT_{conn}", dst_conn=conn)
        st.add_edge(t, exit_, Memlet(wc, SubsetRange.point([i + wo])),
                    src_conn="o", dst_conn="IN_o")
        current[wc] = st.add(AccessNode(wc))
        st.add_edge(exit_, current[wc],
                    Memlet(wc, SubsetRange.make([(wo, Sym("N") - hi + wo, 1)])),
                    src_conn="OUT_o")
    return g


def draw_group(data) -> list[tuple]:
    """2 to 6 maps that mostly read A, B or what an earlier map wrote and
    write a container no map wrote before; now and then a map reads or
    writes any container, which makes the state race."""
    maps, written = [], []

    def pick(usual: list[str], any_of: str) -> str:
        usual = usual or list(any_of)
        return data.draw(hst.sampled_from(usual if data.draw(hst.integers(0, 5)) else any_of))

    for _ in range(data.draw(hst.integers(2, 6))):
        reads = [(pick(["A", "B", *written], "ABCDTU"), data.draw(hst.integers(0, 2)))
                 for _ in range(data.draw(hst.integers(0, 2)))]
        write = (pick([c for c in "CDTU" if c not in written], "CDTU"),
                 data.draw(hst.integers(0, 2)))
        maps.append((data.draw(hst.sampled_from("ij")), data.draw(hst.sampled_from([2, 2, 3])),
                     write, reads))
        written.append(write[0])
    return maps


def counting(monkeypatch, calls: dict) -> None:
    """Count the calls of ``race_free`` from subgraph fusion, of
    ``State.clone``, and the runs of each kind of state fusion (a fold with
    deferred checks, or pair by pair)."""
    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kw)
        return wrapper

    run = autoopt._MapFusion.run

    def counted_run(self):
        calls[self.deferred] = calls.get(self.deferred, 0) + 1
        return run(self)

    monkeypatch.setattr(autoopt, "race_free", counted("race_free", autoopt.race_free))
    monkeypatch.setattr(State, "clone", counted("clone", State.clone))
    monkeypatch.setattr(autoopt._MapFusion, "run", counted_run)


class TestGroupFusion:
    """Subgraph fusion folds each state's fusions on one copy with deferred
    race checks, and gives what fusing one pair at a time gives."""

    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_corpus_as_reference(self, name):
        g = compile_kernel(name)
        coarsen(g)
        autoopt.cleanup_maps(g)
        assert_fuses_as_reference(g)

    @pytest.mark.parametrize("source", [CALLS, *LOWERING_PROGRAMS.values()],
                             ids=["calls", *LOWERING_PROGRAMS])
    def test_programs_as_reference(self, source):
        g, _ = frontend.compile_source(source)
        if g is not None:
            coarsen(g)
            autoopt.cleanup_maps(g)
            assert_fuses_as_reference(g)

    def test_chain_folds_with_one_copy(self, monkeypatch):
        # C = A, T = C + B, D = T, U = D + B: three fusions through C, T, D
        g = group_graph([("i", 2, ("C", 0), [("A", 0)]),
                         ("j", 2, ("T", 0), [("C", 0), ("B", 1)]),
                         ("i", 2, ("D", 0), [("T", 0)]),
                         ("j", 2, ("U", 0), [("D", 0), ("B", 0)])])
        assert_fuses_as_reference(g.copy())
        calls: dict = {}
        counting(monkeypatch, calls)
        rep = subgraph_fusion(g)
        assert rep.applications == {"subgraph_fusion": 3}
        # the reference takes a copy and a check per fusion; the fold one
        # copy, and checks the state before and after
        assert calls == {True: 1, "clone": 1, "race_free": 2}
        assert g.containers["T"].kind is DataKind.SCALAR

    def test_racy_fold_falls_back(self, monkeypatch):
        # the first two maps fuse, but folding in the third races (it
        # writes C at j + 2 and the first map reads C at i + 1): the state
        # fuses pair by pair, and only the first fusion stays
        g = group_graph([("i", 2, ("D", 2), [("A", 0)]),
                         ("i", 2, ("T", 2), [("C", 1), ("A", 1)]),
                         ("j", 2, ("C", 2), [("T", 2)])])
        assert_fuses_as_reference(g.copy())
        calls: dict = {}
        counting(monkeypatch, calls)
        rep = subgraph_fusion(g)
        assert rep.applications == {"subgraph_fusion": 1}
        assert calls[True] == 1 and calls[False] == 1

    def test_conflict_hidden_by_a_later_fusion(self, monkeypatch):
        # fusing the T[i + 1] reader with the T[i] writer races across
        # iterations; folding the reader of that T[i] in next would move the
        # write inside the scope, where the check of the folded state no
        # longer sees it, so the fold stops at that fusion and falls back
        g = group_graph([("i", 2, ("T", 0), [("A", 0)]),
                         ("i", 2, ("C", 0), [("T", 1)]),
                         ("i", 2, ("T", 0), [("C", 0)]),
                         ("i", 2, ("D", 0), [("T", 0)])])
        assert race_free(g.states[0], g.assumptions())
        assert_fuses_as_reference(g.copy())
        calls: dict = {}
        counting(monkeypatch, calls)
        subgraph_fusion(g)
        assert calls[True] == 1 and calls[False] == 1

    def test_racy_state_fuses_as_reference(self):
        # two unordered whole writes of C race before any fusion
        g = group_graph([("i", 2, ("C", 0), [("A", 0)]),
                         ("i", 2, ("C", 1), [("A", 0)]),
                         ("i", 2, ("D", 0), [("A", 1)])])
        assert not race_free(g.states[0], g.assumptions())
        assert_fuses_as_reference(g)

    def test_second_reader_fuses_pair_by_pair(self, monkeypatch):
        # T has a second reader, so fusing its writer with its first reader
        # keeps T outside the scope: the fold takes no such fusion, and the
        # state fuses pair by pair
        g = group_graph([("i", 2, ("T", 0), [("A", 0)]),
                         ("i", 2, ("C", 0), [("T", 0)]),
                         ("i", 2, ("D", 0), [("T", 0), ("B", 0)])])
        assert_fuses_as_reference(g.copy())
        calls: dict = {}
        counting(monkeypatch, calls)
        assert subgraph_fusion(g).total
        assert calls[True] == 1 and calls[False] == 1

    def test_fused_connectors_stay_apart(self):
        # three maps reading A: the two fused into the first each bring an
        # input v0 and an output o, which join the first map's own
        g = group_graph([("i", 2, ("C", 0), [("A", 0)]),
                         ("i", 2, ("D", 0), [("A", 0)]),
                         ("i", 2, ("T", 0), [("A", 0)])])
        assert subgraph_fusion(g).applications == {"subgraph_fusion": 2}
        assert [d for d in g.validate() if d.severity == "error"] == []
        st = g.states[0]
        assert {type(n).__name__: sorted(e.dst_conn for e in st.in_edges(n))
                for n in st.nodes.values() if isinstance(n, (MapEntry, MapExit))} == {
            "MapEntry": ["IN_F5_v0", "IN_F9_v0", "IN_v0"],
            "MapExit": ["IN_F5_o", "IN_F9_o", "IN_o"]}

    @settings(max_examples=150, deadline=None)
    @given(hst.data())
    def test_random_groups_as_reference(self, data):
        assert_fuses_as_reference(group_graph(draw_group(data)))

    @settings(max_examples=200, deadline=None)
    @given(hst.data())
    def test_random_groups_keep_connectors_apart(self, data):
        g = group_graph(draw_group(data))
        subgraph_fusion(g)
        assert not [d for d in g.validate() if d.code in ("scope-connector", "access-container")]

    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_reoptimized_document_validates(self, name):
        # connector names are taken from node ids, which a document renumbers
        g = compile_kernel(name)
        autoopt.auto_optimize(g)
        again = deserialize(serialize(g))
        autoopt.auto_optimize(again)  # raises unless the result validates

    def test_adi_copies_and_checks(self, monkeypatch):
        """adi's 32 fusions fold on 6 working copies, one per state that
        fuses, with at most two race checks each; pair by pair took 42
        copies and 42 race checks."""
        g = compile_kernel("adi")
        coarsen(g)
        autoopt.cleanup_maps(g)
        calls: dict = {}
        counting(monkeypatch, calls)
        rep = subgraph_fusion(g)
        assert rep.applications["subgraph_fusion"] == 32
        assert False not in calls
        assert calls["clone"] <= 6
        assert calls["race_free"] <= 10
