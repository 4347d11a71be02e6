import re

import numpy as np
import pytest

from sdfgkit import autoopt, frontend
from sdfgkit.cemit import EmitError, emit_c
from sdfgkit.dist import ProcessGrid, distribution_pipeline
from sdfgkit.interp import ExecContext, interpret
from sdfgkit.ir import AccessNode, DType, Memlet, NestedSdfg, Sdfg
from sdfgkit.serialize import deserialize, serialize
from sdfgkit.symbolic import Const, SubsetRange

from conftest import GOLDEN, compile_kernel
from test_interp_paths import CALLS


class TestGolden:
    def test_single_tasklet(self):
        g, _ = frontend.compile_source("def inc(a: f64, b: f64):\n    b = a + 1.0\n")
        assert emit_c(g) == (GOLDEN / "single_tasklet.c").read_text()

    def test_loop_graph(self):
        g = compile_kernel("fig4_loop")
        text = emit_c(g)
        assert text == (GOLDEN / "fig4_loop.c").read_text()
        assert "loop0_guard:" in text
        assert "if ((i < NI)) { goto" in text

    def test_gemm_optimized(self):
        g = compile_kernel("gemm")
        autoopt.auto_optimize(g)
        text = emit_c(g)
        assert text == (GOLDEN / "gemm_optimized.c").read_text()
        assert "/* parallel-for */" in text
        assert "static double *" in text  # persistent transients hoisted


class TestNestedGraphs:
    """A call becomes one static function for the callee and one call of it."""

    def _check(self, g, callee: str, call: str):
        text = emit_c(g)
        assert text.count(f"static void nested_{callee}(") == 1
        assert text.count(call) == 1
        assert emit_c(deserialize(serialize(g))) == text

    def test_optimized_callee_with_loop(self):
        # the loop keeps the callee a nested graph through auto_optimize
        g, _ = frontend.compile_source(
            "def scale(X: f64[N], s: f64):\n"
            "    for k in range(N):\n"
            "        X[k] = X[k] * s\n"
            "\n"
            "def main(A: f64[N], s: f64):\n"
            "    scale(A, s)\n")
        autoopt.auto_optimize(g)
        assert any(isinstance(n, NestedSdfg) for st in g.states for n in st.nodes.values())
        self._check(g, "scale", "nested_scale(N, A, s);")

    def test_unoptimized_calls_graph(self):
        g, _ = frontend.compile_source(CALLS)
        self._check(g, "axpy", "nested_axpy(N, y, y, s);")


class TestStability:
    def test_two_consecutive_runs_identical(self):
        g1 = compile_kernel("gemm")
        autoopt.auto_optimize(g1)
        g2 = compile_kernel("gemm")
        autoopt.auto_optimize(g2)
        assert emit_c(g1) == emit_c(g2)


class TestErrors:
    def test_unexpanded_library_node_rejected(self):
        # emit_c expands MATMUL/REDUCE/TRANSPOSE itself, on a copy
        g = compile_kernel("gemm")
        before = serialize(g)
        assert "for (int64_t" in emit_c(g)
        assert serialize(g) == before
        # communication nodes have no C lowering
        distribution_pipeline(g, ProcessGrid.parse("2x2"))
        with pytest.raises(EmitError, match="no C lowering"):
            emit_c(g)


class TestCopy:
    """Access-to-access copies, which graphs built with ``ir`` or loaded from
    JSON can hold: the memlet's subset indexes the container it names, loop
    counters index the other side."""

    @pytest.mark.parametrize("on_source", [True, False], ids=["source", "destination"])
    def test_copy_indices(self, on_source):
        big, small = (Const(4), Const(6)), (Const(2), Const(3))
        g = Sdfg("copy")
        g.add_array("A", DType.F64, big if on_source else small)
        g.add_array("B", DType.F64, small if on_source else big)
        st = g.add_state("s0", start=True)
        a, b = st.add(AccessNode("A")), st.add(AccessNode("B"))
        st.add_edge(a, b, Memlet("A" if on_source else "B",
                                 SubsetRange.make([(1, 2, 1), (0, 4, 2)])))
        text = emit_c(g)
        strided, counters = "(1 + _c1 * 1) * 6 + (0 + _c2 * 2)", "(_c1) * 3 + (_c2)"
        dst, src = (counters, strided) if on_source else (strided, counters)
        assert "for (int64_t _c1 = 0; _c1 <= 1; _c1++) {" in text
        assert "for (int64_t _c2 = 0; _c2 <= 2; _c2++) {" in text
        assert f"B[{dst}] = A[{src}];" in text

        # the emitted loop nest, run on flat arrays, copies what the interpreter copies
        a_in = np.arange(1.0, 25.0 if on_source else 7.0)
        b_out = np.zeros(6 if on_source else 24)
        (dst_ix, src_ix), = re.findall(r"B\[(.*)\] = A\[(.*)\];", text)
        for c1 in range(2):
            for c2 in range(3):
                env = {"_c1": c1, "_c2": c2}
                b_out[eval(dst_ix, env)] = a_in[eval(src_ix, env)]
        shape_a, shape_b = ((4, 6), (2, 3)) if on_source else ((2, 3), (4, 6))
        ctx = ExecContext().bind_inputs({"A": a_in.reshape(shape_a), "B": np.zeros(shape_b)})
        assert np.array_equal(interpret(g, ctx)["B"].ravel(), b_out)
