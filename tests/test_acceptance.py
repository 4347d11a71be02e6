"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Tolerances are pinned here and nowhere else."""

import random
import sys
import time

import numpy as np
import pytest

from sdfgkit import autoopt, frontend, passes, symbolic
from sdfgkit.autoopt import auto_optimize, cleanup_maps, expand_library, subgraph_fusion, \
    tile_wcr
from sdfgkit.cemit import emit_c, lowered
from sdfgkit.dist import ProcessGrid, distribute, distribution_pipeline, \
    remove_redundant_comm, sim_run
from sdfgkit.dist.benchmark import run as run_halo
from sdfgkit.dot import to_dot
from sdfgkit.interp import ExecContext, InterpOptions, interpret
from sdfgkit.ir import LibraryNode, MapEntry, structural_eq
from sdfgkit.passes import PassReport, coarsen, find_loops, loop_to_map, \
    reversed_loop_clone
from sdfgkit.serialize import deserialize, serialize
from sdfgkit.symbolic import Assumptions, Const, SubsetRange, Sym, Ternary

from conftest import (
    ALL_KERNELS, KERNEL_SYMBOLS, compile_kernel, corpus_source, make_inputs,
    rel_err, run_graph, run_oracle,
)


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""),
          file=sys.stderr, flush=True)
    assert ok, f"{criterion}: {detail}"


def _inputs_for(name, syms, seed=100):
    prog = frontend.parse(corpus_source(name))
    return make_inputs(prog, syms, seed=seed)


def _as_arrays(inputs):
    return {k: (np.array(v) if hasattr(v, "shape") else v) for k, v in inputs.items()}


def test_criterion_01_frontend_oracle_suite():
    t0 = time.monotonic()
    worst = 0.0
    for name in ALL_KERNELS:
        syms = KERNEL_SYMBOLS[name]
        g = compile_kernel(name)
        inputs = _inputs_for(name, syms)
        out, _ = run_graph(g, syms, _as_arrays(inputs))
        ref = run_oracle(name, syms, inputs)
        for k in ref:
            worst = max(worst, rel_err(out[k], ref[k]))
    elapsed = time.monotonic() - t0
    report("criterion 1: frontend oracle suite on the corpus",
           worst <= 1e-15 and elapsed < 10.0,
           f"{len(ALL_KERNELS)} kernels, worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_gemm_coarsening():
    name = "gemm"
    syms = KERNEL_SYMBOLS[name]
    g = compile_kernel(name)
    states_before = len(g.states)
    inputs = _inputs_for(name, syms)
    ref, _ = run_graph(g.copy(), syms, _as_arrays(inputs))
    coarsen(g)
    out, _ = run_graph(g.copy(), syms, _as_arrays(inputs))
    unchanged = max(rel_err(out[k], ref[k]) for k in ref) <= 1e-15
    second = coarsen(g).total
    report("criterion 2: gemm coarsens to one state, idempotently",
           states_before >= 4 and len(g.states) == 1 and unchanged and second == 0,
           f"{states_before} -> {len(g.states)} states, 2nd run {second} apps")


def _loop_decisions_with_oracle():
    """Replay every loop decision across the corpus, checking accepted loops
    against the reversed-iteration-order oracle."""
    decisions = 0
    accepts = 0
    false_accepts = 0
    for name in ALL_KERNELS:
        syms = KERNEL_SYMBOLS[name]
        inputs = _as_arrays(_inputs_for(name, syms, seed=5))
        g = compile_kernel(name)
        coarsen(g)
        while True:
            progressed = False
            for loop in find_loops(g):
                pre = g.copy()
                rep = PassReport()
                applied = loop_to_map(g, loop, rep)
                decisions += 1
                if not applied:
                    continue
                accepts += 1
                fwd, _ = run_graph(pre.copy(), syms, dict(inputs))
                rev_clone = reversed_loop_clone(pre, loop.guard)
                rev, _ = run_graph(rev_clone, syms, dict(inputs))
                if any(rel_err(rev[k], fwd[k]) > 1e-6 for k in fwd):
                    false_accepts += 1
                # the converted map must also be order-insensitive
                fm, _ = run_graph(g.copy(), syms, dict(inputs))
                rm, _ = run_graph(g.copy(), syms, dict(inputs),
                                  options=InterpOptions(reverse_maps=True))
                if any(rel_err(rm[k], fm[k]) > 1e-6 for k in fm):
                    false_accepts += 1
                progressed = True
                break
            if not progressed:
                break
    return decisions, accepts, false_accepts


def test_criterion_03_loop_to_map_safety():
    g = compile_kernel("fig4_loop")
    coarsen(g)
    fig4_applied = loop_to_map(g, find_loops(g)[0], PassReport())

    g = compile_kernel("jacobi_1d")
    coarsen(g)
    jacobi_refused = all(
        not loop_to_map(g, loop, PassReport()) for loop in find_loops(g)
    )

    decisions, accepts, false_accepts = _loop_decisions_with_oracle()
    report("criterion 3: loop auto-parallelization safety",
           fig4_applied and jacobi_refused and false_accepts == 0 and decisions > 0,
           f"{decisions} corpus loop decisions, {accepts} accepted, "
           f"{false_accepts} false accepts")


def test_criterion_04_auto_optimization_pipeline():
    worst_plain = 0.0
    worst_reassoc = 0.0
    reassoc = {"gemm", "k2mm", "k3mm", "atax", "bicg", "mvt", "gesummv",
               "gemver", "doitgen", "wcr_sum"}
    for name in ALL_KERNELS:
        syms = KERNEL_SYMBOLS[name]
        g = compile_kernel(name)
        auto_optimize(g)
        inputs = _inputs_for(name, syms, seed=42)
        out, _ = run_graph(g, syms, _as_arrays(inputs))
        ref = run_oracle(name, syms, inputs)
        err = max(rel_err(out[k], ref[k]) for k in ref)
        if name in reassoc:
            worst_reassoc = max(worst_reassoc, err)
        else:
            worst_plain = max(worst_plain, err)

    # jacobi_1d: the half-step maps fuse from 3+ down to 1 each
    g = compile_kernel("jacobi_1d")
    coarsen(g)
    cleanup_maps(g)
    body = g.state("s1")
    before = sum(1 for n in body.nodes.values() if isinstance(n, MapEntry))
    per_half_before = before / 2
    subgraph_fusion(g)
    body = g.state("s1")
    after = sum(1 for n in body.nodes.values() if isinstance(n, MapEntry))

    # tile size 16 on a length-64 reduction commits exactly 4 times
    src = ("def red(s: f64, A: f64[N]):\n"
           "    for i in map[0:N]:\n"
           "        s += A[i]\n")
    gr, _ = frontend.compile_source(src)
    tile_wcr(gr, 16)
    ctx = ExecContext(bindings={"N": 64}).bind_inputs(
        {"s": 0.0, "A": np.arange(64.0)})
    interpret(gr, ctx)

    report("criterion 4: auto-optimization pipeline",
           worst_plain <= 1e-12 and worst_reassoc <= 1e-6
           and per_half_before >= 3 and after == 2
           and ctx.counters.wcr_commits == 4,
           f"plain {worst_plain:.1e}, reassoc {worst_reassoc:.1e}, "
           f"half-step maps {per_half_before:.0f}->1, wcr commits "
           f"{ctx.counters.wcr_commits}")


def test_criterion_05_library_expansion():
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(20):
        m, k, n = (int(x) for x in rng.integers(1, 9, size=3))
        A = rng.uniform(-1, 1, (m, k))
        B = rng.uniform(-1, 1, (k, n))
        brute = np.zeros((m, n))
        for i in range(m):
            for j in range(n):
                for kk in range(k):
                    brute[i, j] += A[i, kk] * B[kk, j]
        for impl in ("native", "blocked_native"):
            g, _ = frontend.compile_source(
                "def mm(A: f64[M, K], B: f64[K, N], C: f64[M, N]):\n"
                "    C[:] = A @ B\n")
            expand_library(g, pinned={"matmul": impl})
            ctx = ExecContext(bindings={"M": m, "K": k, "N": n})
            ctx.bind_inputs({"A": A, "B": B, "C": np.zeros((m, n))})
            out = interpret(g, ctx)
            worst = max(worst, rel_err(out["C"], brute))
    # auto_optimize keeps every library node for the interpreter; the graph
    # that emit_c lowers has none left
    kept, leftovers = 0, 0
    for name in ALL_KERNELS:
        g = compile_kernel(name)
        plain = expandable(g)
        auto_optimize(g)
        kept += expandable(g) == plain
        leftovers += expandable(lowered(g))
    report("criterion 5: library expansion",
           worst <= 1e-12 and kept == len(ALL_KERNELS) and leftovers == 0,
           f"20 random instances, worst {worst:.1e}; {kept} of {len(ALL_KERNELS)} kernels "
           f"keep their library nodes, {leftovers} left in the emitted graphs")


def expandable(g) -> int:
    return sum(1 for st in g.states for nd in st.nodes.values()
               if isinstance(nd, LibraryNode) and nd.kind in autoopt.CPU_EXPANDABLE)


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

_ELEMENTWISE_ONLY = {"jacobi_1d", "jacobi_2d"}


def test_criterion_06_distribution_soundness():
    t0 = time.monotonic()
    failures = []
    for name, syms in DIST_SYMBOLS.items():
        inputs = _inputs_for(name, syms, seed=8)
        ref = run_oracle(name, syms, inputs)
        tol = 1e-12 if name in _ELEMENTWISE_ONLY else 1e-6
        for gdims in ((1, 1), (2, 1), (2, 2)):
            grid = ProcessGrid(gdims)
            g = compile_kernel(name)
            distribution_pipeline(g, grid)
            ctx = ExecContext(bindings=syms).bind_inputs(_as_arrays(inputs))
            out, _ = sim_run(g, grid, ctx)
            err = max(rel_err(out[k], ref[k]) for k in ref)
            if err > tol:
                failures.append(f"{name}@{gdims}: {err:.1e}")
    elapsed = time.monotonic() - t0
    report("criterion 6: distribution soundness on 11 kernels x 3 grids",
           not failures and elapsed < 60.0,
           f"{elapsed:.1f}s" + (f"; {failures}" if failures else ""))


def test_criterion_07_redundant_communication():
    name, syms = "gemm", DIST_SYMBOLS["gemm"]
    grid = ProcessGrid((2, 2))
    inputs = _inputs_for(name, syms, seed=9)

    def build(reduced):
        g = compile_kernel(name)
        coarsen(g)
        distribute(g, grid)
        rep = remove_redundant_comm(g) if reduced else None
        return g, rep

    g_full, _ = build(False)
    g_red, rep = build(True)
    pairs = rep.applications.get("remove_redundant_comm", 0)

    def run_one(g):
        ctx = ExecContext(bindings=syms).bind_inputs(_as_arrays(inputs))
        return sim_run(g, grid, ctx)

    out_full, instr_full = run_one(g_full)
    out_red, instr_red = run_one(g_red)
    drop = instr_full["collective_ops"] - instr_red["collective_ops"]
    bitwise = all(np.array_equal(out_full[k], out_red[k]) for k in out_full)
    report("criterion 7: redundant gather-scatter removal on distributed gemm",
           pairs == 2 and drop == 4 and bitwise,
           f"{pairs} pairs removed, collective calls -{drop}, bitwise={bitwise}")


def test_criterion_08_explicit_halo_program():
    n, tsteps = 8, 4
    rng = np.random.default_rng(13)
    a = rng.uniform(-1, 1, (n, n))
    b = rng.uniform(-1, 1, (n, n))
    ref = run_oracle("jacobi_2d", {"N": n, "TSTEPS": tsteps},
                     {"A": a.copy(), "B": b.copy()})
    grid = ProcessGrid((2, 2))
    out, instr = run_halo(n, tsteps, grid, a.copy(), b.copy())
    err = max(rel_err(out[k], ref[k]) for k in ("A", "B"))
    steps = tsteps - 1
    sends_ok = all(c["messages_posted"] == 8 * steps
                   for c in instr["per_rank"].values())

    # column transfer moves exactly lNx * 8 bytes
    from test_dist import HALO_PAIR
    from sdfgkit.dist import RankSim

    gp, _ = frontend.compile_source(HALO_PAIR)
    lnx = 4
    ctx = ExecContext(bindings={"lNx": lnx, "lNy": lnx})
    ctx.bind_inputs({"A": np.zeros((lnx + 2, lnx + 2))})
    sim = RankSim(gp, ProcessGrid((2, 1)), ctx, [{"peer": 1, "me": 0},
                                                 {"peer": 0, "me": 1}])
    sim.run()
    sent = sim.ranks[0].machine.ctx.counters.comm_bytes // 2  # send half
    report("criterion 8: explicit halo program",
           err <= 1e-12 and sends_ok and sent == lnx * 8,
           f"err {err:.1e}, 8 posted sends/rank/step={sends_ok}, "
           f"column bytes {sent} == {lnx * 8}")


def test_criterion_09_symbolic_soundness():
    rng = random.Random(123)
    wrong = 0
    cases = 0
    while cases < 1000:
        lb = rng.randint(0, 2)
        a = Assumptions({"N": lb})
        def rand_dim():
            b = rng.randint(0, 3)
            off = rng.randint(-1, 3)
            s = rng.randint(1, 3)
            if rng.random() < 0.3:
                return (Const(b), Const(b + rng.randint(0, 6)), Const(s)), None
            return (Const(b), Sym("N") + off, Const(s)), off
        (d1, _), (d2, _) = rand_dim(), rand_dim()
        s1 = SubsetRange.make([d1])
        s2 = SubsetRange.make([d2])
        cv = symbolic.covers(s1, s2, a)
        dj = symbolic.disjoint(s1, s2, a)
        cases += 1
        for n in range(lb, lb + 9):
            binding = {"N": n}
            p1 = set(s1.evaluate(binding)[0])
            p2 = set(s2.evaluate(binding)[0])
            if cv is Ternary.TRUE and not (p2 <= p1):
                wrong += 1
            if cv is Ternary.FALSE and (p2 <= p1):
                wrong += 1
            if dj is Ternary.TRUE and (p1 & p2):
                wrong += 1
            if dj is Ternary.FALSE and not (p1 & p2):
                wrong += 1
        lhs = Sym("N") * rng.randint(-2, 3) + rng.randint(-3, 3)
        rhs = Sym("N") * rng.randint(-2, 3) + rng.randint(-3, 3)
        cmp = symbolic.compare(lhs, rhs, a)
        for n in range(lb, lb + 9):
            lv, rv = lhs.evaluate({"N": n}), rhs.evaluate({"N": n})
            if cmp is Ternary.TRUE and not lv <= rv:
                wrong += 1
            if cmp is Ternary.FALSE and lv <= rv:
                wrong += 1

    # simplify value preservation on 1000 random expressions
    from test_symbolic import _rand_expr, _names
    preserved = True
    rng2 = random.Random(321)
    for _ in range(1000):
        e = _rand_expr(rng2)
        s = symbolic.simplify(e)
        binding = {nm: rng2.randint(-5, 12) for nm in _names}
        if e.evaluate(binding) != s.evaluate(binding):
            preserved = False
    report("criterion 9: symbolic soundness",
           wrong == 0 and preserved,
           f"1000 decision cases, {wrong} unsound verdicts; "
           f"simplify preserves values={preserved}")


def test_criterion_10_roundtrip_and_goldens():
    rt_ok = True
    for name in ALL_KERNELS:
        g = compile_kernel(name)
        if not structural_eq(deserialize(serialize(g)), g):
            rt_ok = False
    g1 = compile_kernel("gemm")
    auto_optimize(g1)
    g2 = compile_kernel("gemm")
    auto_optimize(g2)
    dot_stable = to_dot(g1) == to_dot(g2)
    c_stable = emit_c(g1) == emit_c(g2)
    report("criterion 10: round-trip identity and golden stability",
           rt_ok and dot_stable and c_stable,
           f"roundtrip={rt_ok}, dot stable={dot_stable}, C stable={c_stable}")
