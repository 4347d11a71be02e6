import copy

import numpy as np
import pytest

from sdfgkit import frontend, passes
from sdfgkit.interp import ExecContext, InterpOptions, interpret
from sdfgkit.ir import (
    AccessNode, DType, MapEntry, Memlet, NestedSdfg, Sdfg, Tasklet, Wcr,
)
from sdfgkit.passes import (
    PassReport, coarsen, find_loops, graph_measure, inline_nested, loop_to_map,
    redundant_copy_removal, reversed_loop_clone, state_fusion,
)
from sdfgkit.symbolic import Const, SubsetRange, Sym
from sdfgkit.texpr import TBin, TRef

from conftest import (
    ALL_KERNELS, KERNEL_SYMBOLS, compile_kernel, corpus_source, make_inputs,
    rel_err, run_graph, run_oracle,
)


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
