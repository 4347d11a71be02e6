import numpy as np
import pytest

from sdfgkit import frontend, ir, passes
from sdfgkit.dist import (
    DeadlockError, Distribution, ProcessGrid, RankSim, distribute,
    distribution_pipeline, remove_redundant_comm, sim_run,
)
from sdfgkit.dist.benchmark import JACOBI2D_LOCAL_VIEW, build_graph, rank_bindings, run
from sdfgkit.dist.layout import SCHEME_BLOCK, SCHEME_BLOCK_CYCLIC, block_indices
from sdfgkit.interp import ExecContext, clear_programs
from sdfgkit.ir import LibKind, LibraryNode

from conftest import (
    compile_kernel, corpus_source, make_inputs, rel_err, run_oracle,
)

# desk-scale extents divisible by every tested rank count
DIST_SYMBOLS = {
    "atax": {"M": 8, "N": 4},
    "bicg": {"N": 8, "M": 4},
    "doitgen": {"NR": 4, "NQ": 4, "NP": 8},
    "gemm": {"NI": 4, "NJ": 8, "NK": 8},
    "gemver": {"N": 8},
    "gesummv": {"N": 8},
    "jacobi_1d": {"N": 10, "TSTEPS": 4},
    "jacobi_2d": {"N": 6, "TSTEPS": 4},
    "k2mm": {"NI": 4, "NJ": 8, "NK": 8, "NL": 4},
    "k3mm": {"NI": 4, "NJ": 8, "NK": 8, "NM": 4, "NL": 8},
    "mvt": {"N": 8},
}

GRIDS = [(1, 1), (2, 1), (2, 2)]


def _dist_graph(name, grid):
    g = compile_kernel(name)
    distribution_pipeline(g, grid)
    return g


def _run_dist(name, grid_dims, syms=None, seed=31, rank_order=None):
    syms = syms or DIST_SYMBOLS[name]
    grid = ProcessGrid(grid_dims)
    g = _dist_graph(name, grid)
    prog = frontend.parse(corpus_source(name))
    inputs = make_inputs(prog, syms, seed=seed)
    ctx = ExecContext(bindings=syms).bind_inputs(
        {k: (np.array(v) if hasattr(v, "shape") else v) for k, v in inputs.items()})
    out, instr = sim_run(g, grid, ctx, rank_order=rank_order)
    ref = run_oracle(name, syms, inputs)
    return out, ref, instr


def test_ranks_validate_the_graph_once(monkeypatch):
    """The rank machines of one simulation share one validation (and the
    snapshots of the states) instead of each validating the graph.  The
    table of programs starts empty, as for the graph's first run."""
    clear_programs()
    syms, grid = DIST_SYMBOLS["gemm"], ProcessGrid((2, 2))
    g = _dist_graph("gemm", grid)
    inputs = make_inputs(frontend.parse(corpus_source("gemm")), syms, seed=31)
    ctx = ExecContext(bindings=syms).bind_inputs(inputs)
    validated = []
    validate = ir.validate

    def counting(graph, facts=None):
        validated.append(graph)
        return validate(graph, facts)

    monkeypatch.setattr(ir, "validate", counting)
    out, _ = sim_run(g, grid, ctx)
    assert validated == [g]
    ref = run_oracle("gemm", syms, inputs)
    assert rel_err(out["C"], ref["C"]) < 1e-12


class TestCollectives:
    def test_flat_scatter_chunks(self):
        src = ("def f(A: f64[N], B: f64[N]):\n    B[:] = A + 0.0\n")
        g, _ = frontend.compile_source(src)
        grid = ProcessGrid((4, 1))
        distribution_pipeline(g, grid)
        A = np.arange(8.0)
        ctx = ExecContext(bindings={"N": 8}).bind_inputs({"A": A, "B": np.zeros(8)})
        out, _ = sim_run(g, grid, ctx)
        assert np.array_equal(out["B"], A)

    @pytest.mark.parametrize("gdims", [(1, 1), (2, 1), (2, 2)])
    @pytest.mark.parametrize("scheme_block", [1, 2, None])
    def test_block_gather_scatter_roundtrip(self, gdims, scheme_block, rng):
        grid = ProcessGrid(gdims)
        extent = 4
        a = rng.uniform(-1, 1, (extent, extent))
        scheme = SCHEME_BLOCK_CYCLIC if scheme_block is not None else SCHEME_BLOCK
        blocks = [scheme_block or -(-extent // d) for d in (gdims if len(gdims) == 2 else (grid.size, 1))]
        # round-trip at the index level: ownership covers every cell exactly once
        dims = gdims
        owned = np.zeros((extent, extent), dtype=int)
        for r in range(grid.size):
            i, j = grid.coords(r) if len(gdims) == 2 else (r, 0)
            rows = block_indices(extent, dims[0], i, blocks[0])
            cols = block_indices(extent, dims[1], j, blocks[1]) if len(dims) == 2 else list(range(extent))
            for x in rows:
                for y in cols:
                    owned[x, y] += 1
        assert np.all(owned == 1)

    def test_block_roundtrip_through_program(self, rng):
        # scatter + gather with no compute in between must reproduce the input
        for gdims in GRIDS:
            grid = ProcessGrid(gdims)
            out, instr = run(8, 2, grid, rng.uniform(-1, 1, (8, 8)), np.zeros((8, 8)))
            # one time step executed: outputs must still be finite and shaped
            assert out["A"].shape == (8, 8)

    def test_uneven_block_extent_fails(self):
        src = ("def f(A: f64[N], B: f64[N]):\n    B[:] = A + 0.0\n")
        g, _ = frontend.compile_source(src)
        grid = ProcessGrid((4, 1))
        distribution_pipeline(g, grid)
        ctx = ExecContext(bindings={"N": 6}).bind_inputs(
            {"A": np.zeros(6), "B": np.zeros(6)})
        with pytest.raises(Exception, match="divisible|covered"):
            sim_run(g, grid, ctx)


HALO_PAIR = """
def exchange(A: f64[lNx + 2, lNy + 2], peer: i32, me: i32):
    buf = zeros(lNx + 2, lNy + 2)
    got = zeros(lNx + 2, lNy + 2)
    for i, j in map[0:lNx + 2, 0:lNy + 2]:
        buf[i, j] = me * 100.0 + i * 10.0 + j
    req = requests(2)
    comm_isend(buf[1:-1, -2], peer, 7, req[0])
    comm_irecv(got[1:-1, -1], peer, 7, req[1])
    comm_waitall(req)
"""


class TestP2P:
    def _column_graph(self):
        g, diags = frontend.compile_source(HALO_PAIR)
        assert not [d for d in diags if d.severity == "error"]
        return g

    def test_column_exchange_between_two_ranks(self):
        g = self._column_graph()
        grid = ProcessGrid((2, 1))
        lnx = lny = 4
        ctx = ExecContext(bindings={"lNx": lnx, "lNy": lny})
        ctx.bind_inputs({"A": np.zeros((lnx + 2, lny + 2))})
        bindings = [{"peer": 1, "me": 0}, {"peer": 0, "me": 1}]
        sim = RankSim(g, grid, ctx, bindings)
        sim.run()
        # each rank received exactly the strided column its peer sent
        for r, peer in ((0, 1), (1, 0)):
            m = sim.ranks[r].machine
            sent_by_peer = sim.ranks[peer].machine.store["buf"][1:-1, -2]
            assert np.array_equal(m.store["got"][1:-1, -1], sent_by_peer)
            # a column of lNx doubles moves exactly lNx * 8 bytes each way
            assert m.ctx.counters.comm_bytes == 2 * lnx * 8  # send + receive
            assert m.ctx.counters.messages_posted == 1
            assert m.ctx.counters.messages_delivered == 1

    def test_unmatched_send_is_deadlock(self):
        src = ("def f(A: f64[lNx + 2, lNy + 2], peer: i32):\n"
               "    req = requests(1)\n"
               "    comm_isend(A[1:-1, 1], peer, 3, req[0])\n"
               "    comm_waitall(req)\n")
        g, _ = frontend.compile_source(src)
        grid = ProcessGrid((2, 1))
        ctx = ExecContext(bindings={"lNx": 2, "lNy": 2})
        ctx.bind_inputs({"A": np.zeros((4, 4))})
        with pytest.raises(DeadlockError, match="unmatched message"):
            sim_run(g, grid, ctx, [{"peer": 1}, {"peer": 0}])

    def test_missing_send_blocks_receiver(self):
        src = ("def f(A: f64[lNx + 2, lNy + 2], peer: i32):\n"
               "    req = requests(1)\n"
               "    comm_irecv(A[1:-1, 0], peer, 3, req[0])\n"
               "    comm_waitall(req)\n")
        g, _ = frontend.compile_source(src)
        grid = ProcessGrid((2, 1))
        ctx = ExecContext(bindings={"lNx": 2, "lNy": 2})
        ctx.bind_inputs({"A": np.zeros((4, 4))})
        with pytest.raises(DeadlockError, match="waitall pending"):
            sim_run(g, grid, ctx, [{"peer": 1}, {"peer": 0}])

    def test_overlapping_receives_race_diagnostic(self):
        src = ("def f(A: f64[lNx + 2, lNy + 2], peer: i32):\n"
               "    buf = zeros(lNx + 2, lNy + 2)\n"
               "    req = requests(2)\n"
               "    comm_irecv(buf[1:-1, 0], peer, 3, req[0])\n"
               "    comm_irecv(buf[1:-1, 0], peer, 4, req[1])\n"
               "    comm_waitall(req)\n")
        g, _ = frontend.compile_source(src)
        grid = ProcessGrid((2, 1))
        ctx = ExecContext(bindings={"lNx": 2, "lNy": 2})
        ctx.bind_inputs({"A": np.zeros((4, 4))})
        from sdfgkit.dist import SimError
        with pytest.raises(SimError, match="overlapping"):
            sim_run(g, grid, ctx, [{"peer": 1}, {"peer": 0}])

    def test_waitall_on_empty_requests_is_noop(self):
        src = ("def f(A: f64[N]):\n"
               "    req = requests(4)\n"
               "    comm_waitall(req)\n"
               "    A[0] = 1.0\n")
        g, _ = frontend.compile_source(src)
        grid = ProcessGrid((2, 1))
        ctx = ExecContext(bindings={"N": 4}).bind_inputs({"A": np.zeros(4)})
        out, _ = sim_run(g, grid, ctx)
        assert out["A"][0] == 1.0


class TestDistributionSoundness:
    @pytest.mark.parametrize("name", sorted(DIST_SYMBOLS))
    @pytest.mark.parametrize("gdims", GRIDS)
    def test_kernel(self, name, gdims):
        out, ref, _ = _run_dist(name, gdims)
        worst = max(rel_err(out[k], ref[k]) for k in ref)
        assert worst <= 1e-6, f"{name} on {gdims}: {worst}"

    def test_single_rank_sends_no_messages(self):
        out, ref, instr = _run_dist("gemm", (1, 1))
        for counters in instr["per_rank"].values():
            assert counters["messages_posted"] == 0

    def test_scheduler_order_independence(self):
        for order in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]):
            out, ref, _ = _run_dist("gemm", (2, 2), rank_order=order)
            base, _, _ = _run_dist("gemm", (2, 2))
            for k in base:
                assert np.array_equal(out[k], base[k])


class TestRedundantComm:
    def test_gemm_exactly_two_pairs(self):
        grid = ProcessGrid((2, 2))
        g = compile_kernel("gemm")
        passes.coarsen(g)
        distribute(g, grid)
        before = _count_collective_nodes(g)
        rep = remove_redundant_comm(g)
        after = _count_collective_nodes(g)
        assert rep.applications.get("remove_redundant_comm") == 2
        assert before - after == 4  # two gathers and two scatters

    def test_collective_call_counter_drops_by_four(self):
        syms = DIST_SYMBOLS["gemm"]
        grid = ProcessGrid((2, 2))
        prog = frontend.parse(corpus_source("gemm"))
        inputs = make_inputs(prog, syms, seed=31)

        def run_one(reduced: bool):
            g = compile_kernel("gemm")
            passes.coarsen(g)
            distribute(g, grid)
            if reduced:
                remove_redundant_comm(g)
            ctx = ExecContext(bindings=syms).bind_inputs(
                {k: (np.array(v) if hasattr(v, "shape") else v)
                 for k, v in inputs.items()})
            return sim_run(g, grid, ctx)

        out_full, instr_full = run_one(False)
        out_red, instr_red = run_one(True)
        assert instr_full["collective_ops"] - instr_red["collective_ops"] == 4
        for k in out_full:
            assert np.array_equal(out_full[k], out_red[k])  # bitwise unchanged

    def test_mismatched_distributions_not_removed(self):
        # the flat-scattered first operation never matches the 2-D product
        grid = ProcessGrid((2, 2))
        g = compile_kernel("gemm")
        passes.coarsen(g)
        distribute(g, grid)
        remove_redundant_comm(g)
        kinds = [n.kind for st in g.states for n in st.nodes.values()
                 if isinstance(n, LibraryNode)]
        assert LibKind.GATHER in kinds and LibKind.BLOCK_SCATTER in kinds

    def test_global_read_elsewhere_not_removed(self):
        src = ("def f(A: f64[N], B: f64[N], C: f64[N]):\n"
               "    T = zeros(N)\n"
               "    T[:] = A + 1.0\n"
               "    B[:] = T * 2.0\n"
               "    C[:] = T + 3.0\n")
        g, _ = frontend.compile_source(src)
        grid = ProcessGrid((2, 1))
        passes.coarsen(g)
        distribute(g, grid)
        rep = remove_redundant_comm(g)
        # T is re-scattered twice; removing either pair would break the other
        assert rep.applications.get("remove_redundant_comm", 0) == 0


def _count_collective_nodes(g):
    return sum(
        1
        for st in g.states
        for n in st.nodes.values()
        if isinstance(n, LibraryNode) and n.kind in (
            LibKind.SCATTER, LibKind.GATHER, LibKind.BCAST,
            LibKind.BLOCK_SCATTER, LibKind.BLOCK_GATHER,
        )
    )


class TestLocalViewBenchmark:
    def test_matches_global_view(self, rng):
        n, tsteps = 8, 4
        a = rng.uniform(-1, 1, (n, n))
        b = rng.uniform(-1, 1, (n, n))
        ref = run_oracle("jacobi_2d", {"N": n, "TSTEPS": tsteps},
                         {"A": a.copy(), "B": b.copy()})
        for gdims in GRIDS:
            out, _ = run(n, tsteps, ProcessGrid(gdims), a.copy(), b.copy())
            assert rel_err(out["A"], ref["A"]) <= 1e-12
            assert rel_err(out["B"], ref["B"]) <= 1e-12

    def test_exactly_eight_posted_sends_per_rank_per_step(self, rng):
        n, tsteps = 8, 4
        out, instr = run(n, tsteps, ProcessGrid((2, 2)),
                         rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, (n, n)))
        steps = tsteps - 1
        for counters in instr["per_rank"].values():
            assert counters["messages_posted"] == 8 * steps


class TestCollectiveOrder:
    def test_rank_divergent_collectives_detected(self):
        src = ("def f(A: f64[N], B: f64[N], C: f64[N], me: i32):\n"
               "    la = zeros(N // 2)\n"
               "    if me < 1:\n"
               "        la[:] = block_scatter(A)\n"
               "    else:\n"
               "        la[:] = block_scatter(B)\n"
               "    C[0:N // 2] = block_gather(la)\n")
        g, diags = frontend.compile_source(src)
        assert not [d for d in diags if d.severity == "error"]
        grid = ProcessGrid((2, 1))
        ctx = ExecContext(bindings={"N": 8})
        ctx.bind_inputs({"A": np.arange(8.0), "B": np.arange(8.0), "C": np.zeros(8)})
        from sdfgkit.dist import CollectiveOrderError
        with pytest.raises(CollectiveOrderError):
            sim_run(g, grid, ctx, [{"me": 0}, {"me": 1}])


class TestBlockCyclic:
    @pytest.mark.parametrize("gdims", [(1, 1), (2, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("bs", [1, 2, 4])
    def test_roundtrip_through_engine(self, gdims, bs, rng):
        """block_gather(block_scatter(A)) == A for block-cyclic layouts with
        block sizes 1, 2, and the whole extent."""
        from sdfgkit.dist.layout import block_indices
        from sdfgkit.ir import (AccessNode, DType, LibKind, LibraryNode, Memlet, Sdfg)
        from sdfgkit.symbolic import Sym, SubsetRange

        extent = 4
        grid = ProcessGrid(gdims)
        dims = gdims
        g = Sdfg("cyc")
        g.add_symbol("lr", 0)
        g.add_symbol("lc", 0)
        g.add_array("A", DType.F64, (extent, extent))
        g.add_array("B", DType.F64, (extent, extent))
        from sdfgkit.ir import Storage
        g.add_array("L", DType.F64, (Sym("lr"), Sym("lc")), transient=True,
                    storage=Storage.DISTRIBUTED_LOCAL)
        st = g.add_state("s0")
        dist_attr = {"grid": list(dims), "block": [str(bs), str(bs)],
                     "scheme": "block_cyclic"}
        a = st.add(AccessNode("A"))
        sc = st.add(LibraryNode(LibKind.BLOCK_SCATTER, "scatter", {"dist": dist_attr}))
        l1 = st.add(AccessNode("L"))
        ga = st.add(LibraryNode(LibKind.BLOCK_GATHER, "gather", {"dist": dist_attr}))
        b = st.add(AccessNode("B"))
        full = SubsetRange.full((extent, extent))
        lfull = SubsetRange.full((Sym("lr"), Sym("lc")))
        st.add_edge(a, sc, Memlet("A", full), dst_conn="a")
        st.add_edge(sc, l1, Memlet("L", lfull), src_conn="out")
        st.add_edge(l1, ga, Memlet("L", lfull), dst_conn="a")
        st.add_edge(ga, b, Memlet("B", full), src_conn="out")

        bindings = []
        for r in range(grid.size):
            coords = grid.coords(r)
            i = coords[0]
            j = coords[1] if len(coords) == 2 else 0
            bindings.append({
                "lr": len(block_indices(extent, dims[0], i, bs)),
                "lc": len(block_indices(extent, dims[1], j, bs)),
            })
        A = rng.uniform(-1, 1, (extent, extent))
        ctx = ExecContext(bindings={}).bind_inputs({"A": A, "B": np.zeros_like(A)})
        out, _ = sim_run(g, grid, ctx, bindings)
        assert np.array_equal(out["B"], A)
