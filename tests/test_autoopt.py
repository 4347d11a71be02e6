import numpy as np
import pytest

from sdfgkit import autoopt, frontend, ir, passes
from sdfgkit.frontend import oracle
from sdfgkit.autoopt import (
    Device, auto_optimize, cleanup_maps, cpu_registry, expand_library, needs_specialization,
    pipeline_stages, specialization_stages, subgraph_fusion, tile_wcr, transient_mitigation,
)
from sdfgkit.cemit import emit_c, lowered
from sdfgkit.interp import ExecContext, InterpOptions, interpret
from sdfgkit.ir import (
    DataKind, DType, LibKind, LibraryNode, Lifetime, MapEntry, Sdfg, Storage,
    structural_eq,
)
from sdfgkit.serialize import deserialize, serialize
from sdfgkit.symbolic import Sym

from conftest import (
    ALL_KERNELS, KERNEL_SYMBOLS, compile_kernel, corpus_source, make_inputs,
    rel_err, run_graph, run_oracle,
)


def map_entries(g):
    return [n for st in g.states for n in st.nodes.values() if isinstance(n, MapEntry)]


def libnodes(g):
    return [n for st in g.states for n in st.nodes.values()
            if isinstance(n, LibraryNode)]


# A map reads B between the map that writes it and the map that updates it
# in place; fusing must keep the read before the update.
READ_THEN_OVERWRITE = """
def f(A: f64[N, M], B: f64[N, M], w: f64[M], s: f64):
    for i, j in map[0:N, 0:M]:
        B[i, j] = A[i, j] * s
    for i, j in map[0:N, 0:M]:
        w[j] += B[i, j]
    for i, j in map[0:N, 0:M]:
        B[i, j] += A[i, j]
"""


@pytest.mark.parametrize("optimized", [False, True])
@pytest.mark.parametrize("reverse", [False, True])
def test_read_then_overwrite_matches_oracle(optimized, reverse):
    g, diags = frontend.compile_source(READ_THEN_OVERWRITE)
    assert g is not None and not [d for d in diags if d.severity == "error"]
    if optimized:
        auto_optimize(g)
    symbols = {"N": 4, "M": 3}
    rng = np.random.default_rng(3)
    inputs = {"A": rng.uniform(-1, 1, (4, 3)), "B": rng.uniform(-1, 1, (4, 3)),
              "w": rng.uniform(-1, 1, 3), "s": 1.25}
    want = oracle.evaluate_program(frontend.parse(READ_THEN_OVERWRITE), symbols,
                                   {k: np.array(v, copy=True) for k, v in inputs.items()})
    out, _ = run_graph(g, symbols, inputs, options=InterpOptions(reverse_maps=reverse))
    for name, ref in want.items():
        assert rel_err(out[name], ref) <= 1e-12, name


class TestCleanupMaps:
    def test_degenerate_dimension_removed(self):
        src = ("def f(A: f64[N], B: f64[N]):\n"
               "    for i, j in map[0:1, 0:N]:\n"
               "        A[j] = B[j] + 1.0\n")
        g, _ = frontend.compile_source(src)
        rep = cleanup_maps(g)
        assert rep.applications.get("degenerate_map") == 1
        assert all(len(m.params) == 1 for m in map_entries(g))
        ctx = ExecContext(bindings={"N": 4}).bind_inputs(
            {"A": np.zeros(4), "B": np.arange(4.0)})
        assert np.array_equal(interpret(g, ctx)["A"], np.arange(4.0) + 1)

    # a one-point map dissolves into its body; a one-point dimension of a
    # two-dimensional map is dropped and the other dimension stays
    @pytest.mark.parametrize("src, maps_left", [
        ("def f(A: f64[N], B: f64[N]):\n    for i in map[0:1]:\n        A[i] = B[i] + 1.0\n", 0),
        ("def f(A: f64[N], B: f64[N]):\n    for i in range(0, 1):\n        A[i] = B[i] + 1.0\n",
         0),
        ("def f(A: f64[N, M], B: f64[N, M]):\n"
         "    for i, j in map[0:1, 0:M]:\n        A[i, j] = B[i, j] + 1.0\n", 1),
    ], ids=["map", "range", "map_2d"])
    def test_degenerate_map_matches_oracle(self, src, maps_left):
        g, diags = frontend.compile_source(src)
        assert not diags
        rep = auto_optimize(g)
        assert rep.applications.get("degenerate_map") == 1
        assert all(m.params for m in map_entries(g))
        assert len(map_entries(g)) == maps_left
        prog = frontend.parse(src)
        syms = {"N": 4, "M": 3}
        inputs = make_inputs(prog, syms, seed=5)
        out, _ = run_graph(g, syms, inputs)
        ref = oracle.evaluate_program(prog, syms, {k: v.copy() for k, v in inputs.items()})
        for k in ref:
            assert np.array_equal(out[k], ref[k]), k

    def test_doitgen_loops_become_3d_map(self):
        g = compile_kernel("doitgen")
        passes.coarsen(g)
        rep = cleanup_maps(g)
        assert rep.applications.get("loop_to_map") == 3
        assert rep.applications.get("map_collapse") == 2
        top = [m for m in map_entries(g) if len(m.params) == 3]
        assert len(top) == 1
        assert [p for p, _ in top[0].params] == ["r", "q", "p"]
        syms = KERNEL_SYMBOLS["doitgen"]
        prog = frontend.parse(corpus_source("doitgen"))
        inputs = make_inputs(prog, syms, seed=2)
        out, _ = run_graph(g, syms, {k: np.array(v) for k, v in inputs.items()})
        ref = run_oracle("doitgen", syms, inputs)
        assert max(rel_err(out[k], ref[k]) for k in ref) == 0.0


class TestSubgraphFusion:
    def _jacobi_body_maps(self, g):
        body = [s for s in g.states if s.label == "s1"][0]
        return [n for n in body.nodes.values() if isinstance(n, MapEntry)]

    def test_jacobi_halfstep_fuses_to_one_map(self):
        g = compile_kernel("jacobi_1d")
        passes.coarsen(g)
        cleanup_maps(g)
        before = len(self._jacobi_body_maps(g))
        assert before >= 3
        rep = subgraph_fusion(g)
        after = len(self._jacobi_body_maps(g))
        assert after == 2  # one fused map per half step
        assert rep.applications["subgraph_fusion"] == before - after
        # intermediates shrink to per-iteration scalars
        scalars = [n for n, d in g.containers.items()
                   if d.transient and d.kind is DataKind.SCALAR]
        assert len(scalars) >= 6
        syms = KERNEL_SYMBOLS["jacobi_1d"]
        prog = frontend.parse(corpus_source("jacobi_1d"))
        inputs = make_inputs(prog, syms, seed=4)
        out, _ = run_graph(g, syms, {k: np.array(v) for k, v in inputs.items()})
        ref = run_oracle("jacobi_1d", syms, inputs)
        assert max(rel_err(out[k], ref[k]) for k in ref) == 0.0

    def test_disjoint_spaces_not_fused(self):
        src = ("def f(A: f64[N], B: f64[N], C: f64[M], D: f64[M]):\n"
               "    B[:] = A + 1.0\n"
               "    D[:] = C + 1.0\n")
        g, _ = frontend.compile_source(src)
        passes.coarsen(g)
        assert subgraph_fusion(g).total == 0

    def test_producer_not_covering_consumer_not_fused(self):
        src = ("def f(A: f64[N], B: f64[N]):\n"
               "    T = zeros(N)\n"
               "    T[0:N - 1] = A[0:N - 1] * 2.0\n"
               "    B[0:N - 1] = T[1:N] + 1.0\n")
        g, diags = frontend.compile_source(src)
        assert g is not None
        passes.coarsen(g)
        subgraph_fusion(g)
        # the shifted consumer must stay in its own map scope
        assert len(map_entries(g)) == 2

    # fusing the shifted read into the write would race across iterations
    SHIFTED_UPDATE = "def f(A: f64[N]):\n    A[0:N - 1] = (A[1:N] * 2.0) + 1.0\n"
    SHIFTED_VIA_B = ("def f(A: f64[N], B: f64[N]):\n"
                     "    B[0:N - 1] = A[1:N] * 2.0\n"
                     "    A[0:N - 1] = B[0:N - 1] + 1.0\n")

    @pytest.mark.parametrize("src", [SHIFTED_UPDATE, SHIFTED_VIA_B],
                             ids=["one_statement", "through_B"])
    def test_shifted_update_optimizes_to_oracle(self, src):
        g, diags = frontend.compile_source(src)
        assert not diags
        auto_optimize(g)
        assert [d for d in g.validate() if d.severity == "error"] == []
        prog = frontend.parse(src)
        syms = {"N": 8}
        inputs = make_inputs(prog, syms, seed=6)
        out, _ = run_graph(g, syms, inputs)
        ref = oracle.evaluate_program(prog, syms, {k: v.copy() for k, v in inputs.items()})
        for k in ref:
            assert np.array_equal(out[k], ref[k]), k

    def test_adi_keeps_its_map_order(self, monkeypatch):
        """Each search for a pair orders the top-level maps by one
        topological order of the working state: one order per search, and
        the rest are those of the state snapshots, one per state before its
        fusions and one per check of a folded state."""
        g = compile_kernel("adi")
        passes.coarsen(g)
        cleanup_maps(g)
        calls = []
        original = ir.State.topological

        def counting(st):
            calls.append(st)
            return original(st)

        monkeypatch.setattr(ir.State, "topological", counting)
        assert subgraph_fusion(g).applications["subgraph_fusion"] == 32
        assert len(calls) <= 50

    def test_rejected_candidate_leaves_graph_unchanged(self):
        g, _ = frontend.compile_source("def f(A: f64[N]):\n    A[0:N - 1] = A[1:N] * 2.0\n")
        passes.coarsen(g)
        cleanup_maps(g)
        assert len(map_entries(g)) == 2  # the only candidate pair
        before = g.copy()
        assert subgraph_fusion(g).total == 0
        assert structural_eq(g, before)


class TestTileWcr:
    def _reduction(self, n):
        src = ("def red(s: f64, A: f64[N]):\n"
               "    for i in map[0:N]:\n"
               "        s += A[i]\n")
        g, _ = frontend.compile_source(src)
        return g

    def test_length_64_tile_16_gives_4_commits(self):
        g = self._reduction(64)
        rep = tile_wcr(g, 16)
        assert rep.applications.get("tile_wcr") == 1
        A = np.arange(64.0)
        ctx = ExecContext(bindings={"N": 64}).bind_inputs({"s": 0.0, "A": A})
        out = interpret(g, ctx)
        assert abs(out["s"][()] - A.sum()) < 1e-9
        assert ctx.counters.wcr_commits == 4

    def test_untiled_would_commit_per_element(self):
        g = self._reduction(64)
        ctx = ExecContext(bindings={"N": 64}).bind_inputs(
            {"s": 0.0, "A": np.arange(64.0)})
        interpret(g, ctx)
        assert ctx.counters.wcr_commits == 64

    def test_map_without_wcr_unchanged(self):
        g = compile_kernel("fig4_loop")
        passes.coarsen(g)
        cleanup_maps(g)
        assert tile_wcr(g, 16).total == 0

    def test_partial_tile_boundary(self):
        g = self._reduction(10)
        tile_wcr(g, 16)
        A = np.arange(10.0)
        ctx = ExecContext(bindings={"N": 10}).bind_inputs({"s": 0.0, "A": A})
        out = interpret(g, ctx)
        assert abs(out["s"][()] - A.sum()) < 1e-12
        assert ctx.counters.wcr_commits == 1

    def test_bad_tile_size(self):
        g = self._reduction(8)
        with pytest.raises(ValueError):
            tile_wcr(g, 0)


class TestTransientMitigation:
    def test_small_constant_to_stack(self):
        g = Sdfg("t")
        g.add_array("small", DType.F64, (8,), transient=True)
        g.add_state("s0")
        rep = transient_mitigation(g)
        assert g.containers["small"].storage is Storage.STACK
        assert rep.applications.get("stack_placement") == 1

    def test_symbol_shaped_to_persistent(self):
        g = Sdfg("t")
        g.add_symbol("N", 1)
        g.add_array("buf", DType.F64, (Sym("N"), Sym("N")), transient=True)
        g.add_state("s0")
        transient_mitigation(g)
        assert g.containers["buf"].lifetime is Lifetime.PERSISTENT

    def test_loop_dependent_shape_untouched(self):
        g = Sdfg("t")
        g.add_symbol("N", 1)
        g.add_symbol("i", 0)
        g.add_array("dyn", DType.F64, (Sym("i"),), transient=True)
        s0 = g.add_state("s0")
        g.add_state("s1")
        g.add_transition("s0", "s1", None, {"i": Sym("i") + 1})
        transient_mitigation(g)
        d = g.containers["dyn"]
        assert d.storage is Storage.HEAP and d.lifetime is Lifetime.SCOPE

    def test_large_constant_stays_heap(self):
        g = Sdfg("t")
        g.add_array("big", DType.F64, (4096,), transient=True)
        g.add_state("s0")
        transient_mitigation(g, stack_limit_bytes=4096)
        assert g.containers["big"].storage is Storage.HEAP


class TestExpandLibrary:
    @pytest.mark.parametrize("impl", ["native", "blocked_native"])
    def test_matmul_against_brute_force(self, impl, rng):
        for trial in range(20):
            m, k, n = rng.integers(1, 9, size=3)
            src = ("def mm(A: f64[M, K], B: f64[K, N], C: f64[M, N]):\n"
                   "    C[:] = A @ B\n")
            g, _ = frontend.compile_source(src)
            expand_library(g, pinned={"matmul": impl})
            assert not libnodes(g)
            A = rng.uniform(-1, 1, (m, k))
            B = rng.uniform(-1, 1, (k, n))
            ctx = ExecContext(bindings={"M": int(m), "K": int(k), "N": int(n)})
            ctx.bind_inputs({"A": A, "B": B, "C": np.zeros((m, n))})
            out = interpret(g, ctx)
            brute = np.zeros((m, n))
            for i in range(m):
                for j in range(n):
                    for kk in range(k):
                        brute[i, j] += A[i, kk] * B[kk, j]
            assert rel_err(out["C"], brute) <= 1e-12

    def test_reduce_axis(self):
        src = ("def f(A: f64[N, M], out: f64[M]):\n"
               "    out[:] = sum(A, 0)\n")
        g, diags = frontend.compile_source(src)
        assert not diags
        expand_library(g)
        ctx = ExecContext(bindings={"N": 3, "M": 4})
        ctx.bind_inputs({"A": np.ones((3, 4)), "out": np.zeros(4)})
        out = interpret(g, ctx)
        assert np.allclose(out["out"], np.full(4, 3.0))

    def test_post_expansion_no_expandable_nodes(self):
        # auto_optimize keeps the library nodes; the graph emit_c lowers has none
        for name in ("gemm", "k3mm", "doitgen", "gesummv"):
            g = compile_kernel(name)
            auto_optimize(g)
            assert {n.kind for n in libnodes(g)} & autoopt.CPU_EXPANDABLE
            kinds = {n.kind for n in libnodes(lowered(g))}
            assert not (kinds & autoopt.CPU_EXPANDABLE)

    def test_priority_order(self):
        reg = cpu_registry()
        names = [x.name for x in reg.by_kind[LibKind.MATMUL]]
        assert names == ["blocked_native", "native"]
        assert [x.name for x in reg.by_kind[LibKind.REDUCE]] == ["tiled_native", "native"]

    def test_unsupported_backend(self):
        with pytest.raises(ValueError, match="unsupported backend"):
            Device.parse("gpu")


class TestAutoOptimizePipeline:
    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_corpus_outputs_preserved(self, name):
        # the optimized graph and the one emit_c lowers both match the oracle
        syms = KERNEL_SYMBOLS[name]
        g = compile_kernel(name)
        auto_optimize(g)
        prog = frontend.parse(corpus_source(name))
        inputs = make_inputs(prog, syms, seed=23)
        ref = run_oracle(name, syms, inputs)
        for graph in (g, lowered(g)):
            out, _ = run_graph(graph, syms, {k: (np.array(v) if hasattr(v, "shape") else v)
                                             for k, v in inputs.items()})
            worst = max(rel_err(out[k], ref[k]) for k in ref)
            assert worst <= 1e-6, f"{name}: {worst}"

    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_optimized_moves_no_more_bytes(self, name):
        """At test scale the optimized graph moves no more bytes than the
        plain one (map iterations may rise: doitgen's do)."""
        syms = KERNEL_SYMBOLS[name]
        inputs = make_inputs(frontend.parse(corpus_source(name)), syms, seed=0)
        g = compile_kernel(name)
        _, plain = run_graph(g, syms, inputs)
        auto_optimize(g)
        _, optimized = run_graph(g, syms, inputs)
        assert optimized.counters.bytes_moved <= plain.counters.bytes_moved

    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_library_nodes_and_wcr_maps_left_for_emission(self, name):
        """auto_optimize neither expands nor tiles; emit_c of its output,
        in memory or after a JSON round trip, equals emit_c of the graph
        that also ran the specialization stages in their place in the
        pipeline."""
        g = compile_kernel(name)
        plain = sorted(n.kind.value for n in libnodes(g))
        auto_optimize(g)
        assert sorted(n.kind.value for n in libnodes(g)) == plain
        assert not any(m.tiled for m in map_entries(g))
        # needs_specialization says whether emit_c has to lower a copy
        assert needs_specialization(g) == (serialize(lowered(g)) != serialize(g))
        assert not needs_specialization(lowered(g))
        staged = compile_kernel(name)
        stages = {**pipeline_stages(staged), **specialization_stages(staged)}
        for stage in ("coarsen", "cleanup_maps", "subgraph_fusion", "tile_wcr",
                      "transient_mitigation", "expand_library"):
            stages[stage]()
        assert emit_c(g) == emit_c(staged)
        # expansions are named by node position, which the JSON form keeps
        assert emit_c(deserialize(serialize(g))) == emit_c(g)

    def test_gemm_single_state_with_expanded_product(self):
        # the product is expanded only for C; auto_optimize keeps the matmul node
        g = compile_kernel("gemm")
        auto_optimize(g)
        assert len(g.states) == 1
        assert [n.kind for n in libnodes(g)] == [LibKind.MATMUL]
        assert len(lowered(g).states) == 1 and not libnodes(lowered(g))

    def test_report_level_idempotence(self):
        for name in ("gemm", "jacobi_1d", "mvt", "doitgen"):
            g = compile_kernel(name)
            auto_optimize(g)
            rep2 = auto_optimize(g)
            structural = {k: v for k, v in rep2.applications.items()
                          if not k.startswith("expand_")}
            assert not structural, f"{name}: {structural}"


class TestExpansionErrors:
    def test_inner_dim_mismatch_at_expansion(self):
        from sdfgkit.ir import AccessNode, DType, LibKind, LibraryNode, Memlet, Sdfg
        from sdfgkit.symbolic import SubsetRange

        g = Sdfg("bad_mm")
        g.add_array("A", DType.F64, (4, 3))
        g.add_array("B", DType.F64, (5, 4))
        g.add_array("C", DType.F64, (4, 4))
        st = g.add_state("s0")
        a = st.add(AccessNode("A"))
        b = st.add(AccessNode("B"))
        mm = st.add(LibraryNode(LibKind.MATMUL, "matmul"))
        c = st.add(AccessNode("C"))
        st.add_edge(a, mm, Memlet("A", SubsetRange.full((4, 3))), dst_conn="a")
        st.add_edge(b, mm, Memlet("B", SubsetRange.full((5, 4))), dst_conn="b")
        st.add_edge(mm, c, Memlet("C", SubsetRange.full((4, 4))), src_conn="out")
        with pytest.raises(ValueError, match="inner dimensions"):
            expand_library(g)


class TestPipelineSoak:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("name", ["gemm", "jacobi_2d", "doitgen"])
    def test_many_seeds(self, name, seed):
        syms = KERNEL_SYMBOLS[name]
        g = compile_kernel(name)
        auto_optimize(g)
        prog = frontend.parse(corpus_source(name))
        inputs = make_inputs(prog, syms, seed=seed)
        out, _ = run_graph(g, syms, {k: (np.array(v) if hasattr(v, "shape") else v)
                                     for k, v in inputs.items()})
        ref = run_oracle(name, syms, inputs)
        assert max(rel_err(out[k], ref[k]) for k in ref) <= 1e-6
