import copy

import numpy as np
import pytest

from sdfgkit import frontend
from sdfgkit.interp import (
    ExecContext, InterpOptions, InterpreterError, OutOfBoundsError, TensorValue,
    interpret,
)
from sdfgkit.symbolic import Sym

from conftest import (
    ALL_KERNELS, KERNEL_SYMBOLS, compile_kernel, corpus_source, make_inputs,
    rel_err, run_graph, run_oracle,
)


class TestExamples:
    def test_gemm_identity(self):
        g = compile_kernel("gemm")
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        ctx = ExecContext(bindings={"NI": 2, "NJ": 2, "NK": 2})
        ctx.bind_inputs({"A": A, "B": np.eye(2), "C": np.zeros((2, 2)),
                         "alpha": 1.0, "beta": 0.0})
        out = interpret(g, ctx)
        assert np.array_equal(out["C"], A)

    def test_jacobi_first_half_step(self):
        g = compile_kernel("jacobi_1d")
        ctx = ExecContext(bindings={"N": 4, "TSTEPS": 2})
        ctx.bind_inputs({"A": np.array([0.0, 3.0, 0.0, 3.0]), "B": np.zeros(4)})
        out = interpret(g, ctx)
        # 0.33333 * (0+3+0) and 0.33333 * (3+0+3): the inexact coefficient
        assert np.allclose(out["B"], [0.0, 0.99999, 1.99998, 0.0], atol=0, rtol=0)

    def test_wcr_sum_of_ones(self):
        g = compile_kernel("wcr_sum")
        ctx = ExecContext(bindings={"NI": 2, "NJ": 2})
        ctx.bind_inputs({"alpha": 0.0, "C": np.ones((2, 2))})
        out = interpret(g, ctx)
        assert out["alpha"][()] == 4.0
        assert ctx.counters.wcr_commits == 4


def run_twice_determinism(g, ctx: ExecContext) -> bool:
    """Two interpretations with identical contexts are bitwise identical."""
    out1 = interpret(g, copy.deepcopy(ctx))
    out2 = interpret(g, copy.deepcopy(ctx))
    if set(out1) != set(out2):
        return False
    return all(np.array_equal(out1[k], out2[k]) for k in out1)


class TestDeterminism:
    @pytest.mark.parametrize("name", ["gemm", "jacobi_2d"])
    def test_run_twice(self, name):
        g = compile_kernel(name)
        syms = KERNEL_SYMBOLS[name]
        prog = frontend.parse(corpus_source(name))
        ctx = ExecContext(bindings=syms).bind_inputs(make_inputs(prog, syms, seed=3))
        assert run_twice_determinism(g, ctx)

    def test_tiled_reduction_deterministic(self):
        from sdfgkit import autoopt

        src = ("def red(s: f64, A: f64[N]):\n"
               "    for i in map[0:N]:\n"
               "        s += A[i]\n")
        g, _ = frontend.compile_source(src)
        autoopt.tile_wcr(g, 16)
        ctx = ExecContext(bindings={"N": 64})
        ctx.bind_inputs({"s": 0.0, "A": np.arange(64.0)})
        assert run_twice_determinism(g, ctx)


class TestErrors:
    def test_missing_binding(self):
        g = compile_kernel("gemm")
        ctx = ExecContext(bindings={"NI": 2, "NJ": 2})
        with pytest.raises(Exception, match="missing symbol"):
            interpret(g, ctx)

    def test_out_of_bounds_is_hard_error(self):
        src = ("def f(A: f64[N], B: f64[N], K: i64):\n"
               "    B[0] = A[K]\n")
        g, diags = frontend.compile_source(src)
        assert g is not None
        ctx = ExecContext(bindings={"N": 4, "K": 9})
        ctx.bind_inputs({"A": np.zeros(4), "B": np.zeros(4)})
        with pytest.raises(OutOfBoundsError) as exc:
            interpret(g, ctx)
        assert "9" in str(exc.value)

    def test_shape_mismatch_rejected(self):
        g = compile_kernel("gemm")
        ctx = ExecContext(bindings={"NI": 2, "NJ": 2, "NK": 2})
        ctx.bind_inputs({"A": np.zeros((3, 3)), "B": np.eye(2),
                         "C": np.zeros((2, 2)), "alpha": 1.0, "beta": 0.0})
        with pytest.raises(Exception, match="shape"):
            interpret(g, ctx)

    def test_transient_sized_by_loop_counter_is_an_interpreter_error(self):
        # the frontend refuses a temporary sized by the loop counter `i`
        # (`B[0:i] = A[0:i] * 2.0`), so the graph gets one by hand: `i` has
        # no value before the loop, when containers are sized
        src = ("def f(A: f64[N], B: f64[N]):\n"
               "    for i in range(1, N):\n"
               "        B[0:N - 1] = A[0:N - 1] * 2.0\n")
        g, diags = frontend.compile_source(src)
        assert g is not None and not diags
        g.containers["tmp0"].shape = (Sym("i"),)
        ctx = ExecContext(bindings={"N": 8})
        ctx.bind_inputs({"A": np.ones(8), "B": np.zeros(8)})
        with pytest.raises(InterpreterError) as exc:
            interpret(g, ctx)
        sized = [n for n, d in g.containers.items() if "i" in str(d.shape)]
        assert sized and f"'{sized[0]}'" in str(exc.value)
        assert "'i'" in str(exc.value)


class TestInstrumentation:
    def test_bytes_additive_over_states(self):
        g = compile_kernel("bicg")  # two independent statements
        syms = KERNEL_SYMBOLS["bicg"]
        prog = frontend.parse(corpus_source("bicg"))
        inputs = make_inputs(prog, syms, seed=3)
        _, ctx = run_graph(g, syms, inputs)
        total = ctx.counters.bytes_moved
        assert total > 0
        # splitting the program in two halves moves the same bytes in total
        src = corpus_source("bicg").strip().split("\n")
        head = "\n".join(src[:-1]) + "\n"
        tail = src[0] + "\n" + src[-1] + "\n"
        parts = 0
        for piece in (head, tail):
            gp, _ = frontend.compile_source(piece)
            ctxp = ExecContext(bindings=syms).bind_inputs(
                {k: np.array(v) if hasattr(v, "shape") else v for k, v in inputs.items()})
            interpret(gp, ctxp)
            parts += ctxp.counters.bytes_moved
        assert parts == total

    def test_map_iterations_counted(self):
        g = compile_kernel("wcr_sum")
        ctx = ExecContext(bindings={"NI": 3, "NJ": 5})
        ctx.bind_inputs({"alpha": 0.0, "C": np.ones((3, 5))})
        interpret(g, ctx)
        assert ctx.counters.map_iterations == 15


class TestConstantFieldFixpoint:
    def test_jacobi_1d_constant_field(self):
        g = compile_kernel("jacobi_1d")
        c = 2.0
        ctx = ExecContext(bindings={"N": 6, "TSTEPS": 2})
        ctx.bind_inputs({"A": np.full(6, c), "B": np.full(6, c)})
        out = interpret(g, ctx)
        # interior becomes 0.99999 * c, reflecting the inexact coefficient
        assert np.allclose(out["B"][1:-1], 0.99999 * c, rtol=0, atol=1e-14)

    def test_jacobi_2d_constant_field(self):
        g = compile_kernel("jacobi_2d")
        c = 3.0
        ctx = ExecContext(bindings={"N": 6, "TSTEPS": 2})
        ctx.bind_inputs({"A": np.full((6, 6), c), "B": np.full((6, 6), c)})
        out = interpret(g, ctx)
        # the 0.2 coefficient is exact: a constant field is a fixed point
        assert np.allclose(out["B"][1:-1, 1:-1], c, rtol=0, atol=1e-14)


class TestTensorValue:
    def test_json_roundtrip(self, tmp_path):
        t = TensorValue.of(np.arange(6.0).reshape(2, 3))
        p = tmp_path / "t.json"
        t.save(p)
        t2 = TensorValue.load(p)
        assert t2.dtype is t.dtype
        assert np.array_equal(t2.array, t.array)
