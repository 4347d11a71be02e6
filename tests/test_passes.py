import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from sdfgkit import frontend, passes
from sdfgkit.interp import ExecContext, InterpOptions, interpret
from sdfgkit.ir import (
    AccessNode, DType, MapEntry, Memlet, NestedSdfg, Sdfg, State, StateFacts, Tasklet, Wcr,
    content_key, race_free, structural_eq,
)
from sdfgkit.passes import (
    PassReport, coarsen, find_loops, graph_measure, inline_nested, loop_to_map,
    redundant_copy_removal, reversed_loop_clone, state_fusion, to_fixed_point,
)
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
