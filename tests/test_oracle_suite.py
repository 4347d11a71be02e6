"""Frontend oracle suite: the freshly lowered graph, interpreted, must agree
elementwise with direct big-step evaluation of the AST for the whole corpus,
across sizes and random inputs."""

import ast
import pathlib
import sys

import numpy as np
import pytest

from sdfgkit import frontend
from sdfgkit.frontend import oracle

from conftest import (
    ALL_KERNELS, KERNEL_SYMBOLS, compile_kernel, corpus_source, make_inputs,
    rel_err, run_graph, run_oracle,
)

SIZE_VARIANTS = {
    "gemm": [{"NI": 4, "NJ": 6, "NK": 8}, {"NI": 8, "NJ": 4, "NK": 6}],
    "jacobi_1d": [{"N": 8, "TSTEPS": 4}, {"N": 6, "TSTEPS": 2}],
    "jacobi_2d": [{"N": 6, "TSTEPS": 4}, {"N": 8, "TSTEPS": 2}],
    "atax": [{"M": 6, "N": 4}, {"M": 4, "N": 8}],
    "bicg": [{"N": 6, "M": 4}],
    "mvt": [{"N": 6}, {"N": 8}],
    "gesummv": [{"N": 4}, {"N": 8}],
    "gemver": [{"N": 6}],
    "k2mm": [{"NI": 4, "NJ": 6, "NK": 8, "NL": 4}],
    "k3mm": [{"NI": 4, "NJ": 6, "NK": 8, "NM": 4, "NL": 6}],
    "doitgen": [{"NR": 4, "NQ": 4, "NP": 8}, {"NR": 6, "NQ": 4, "NP": 6}],
    "adi": [{"N": 8, "TSTEPS": 2}, {"N": 6, "TSTEPS": 4}],
    "fig4_loop": [{"NI": 4}, {"NI": 8}],
    "wcr_sum": [{"NI": 4, "NJ": 6}],
}


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_lowered_graph_matches_big_step_oracle(name):
    prog = frontend.parse(corpus_source(name))
    g = compile_kernel(name)
    for variant, syms in enumerate(SIZE_VARIANTS[name]):
        for seed in (0, 1):
            inputs = make_inputs(prog, syms, seed=seed)
            out, _ = run_graph(g, syms, {k: (np.array(v) if hasattr(v, "shape") else v)
                                         for k, v in inputs.items()})
            ref = run_oracle(name, syms, inputs)
            for k in ref:
                err = rel_err(out[k], ref[k])
                assert err <= 1e-15, f"{name} {syms} seed={seed} {k}: {err}"
                # identical operation order: integer data would be 0 ulp; for
                # floats the runs are in fact bitwise equal
                assert np.array_equal(out[k], ref[k])


def test_oracle_imports_only_the_ast():
    """The oracle stays an independent reference: besides numpy and the
    standard library it imports only the DSL's AST, nothing of the graph IR,
    the symbolic engine, the tasklet expressions or the interpreter."""
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            modules += [a.name for a in node.names]
    assert ".dsl_ast" in modules
    for module in modules:
        top = module.split(".")[0]
        if module.startswith(".") or top == "sdfgkit":
            assert module in (".dsl_ast", "sdfgkit.frontend.dsl_ast"), module
        else:
            assert top == "numpy" or top in sys.stdlib_module_names, module


SEMANTICS = """
def g(Y: f64[N], c: f64):
    Y[0] = c
    c = 7.0

def f(A: f64[N], x: f64, y: f64):
    for i in range(N):
        A[i] = i
    return
    g(A, x)
    y = x > 0.0 and 3.0
"""


def test_oracle_keeps_python_semantics():
    """``return`` does nothing, a callee writes arrays by reference and its
    own copy of a scalar, ``and`` gives a bool, and a scalar parameter's
    box is updated in place."""
    program = frontend.parse(SEMANTICS)
    out = oracle.evaluate_program(program, {"N": 3}, {"A": np.zeros(3), "x": 0.5, "y": 0.0})
    assert out["A"].tolist() == [0.5, 1.0, 2.0]
    assert out["x"] == 0.5 and out["y"] == 1.0


@pytest.mark.parametrize("kind", ["range(N)", "map[0:N]"])
def test_loop_variable_is_unbound_after_its_loop(kind):
    program = frontend.parse(
        f"def f(A: f64[N]):\n    for i in {kind}:\n        A[i] = 1.0\n    A[0] = i\n")
    with pytest.raises(oracle.OracleError, match="unbound name 'i'"):
        oracle.evaluate_program(program, {"N": 3}, {"A": np.zeros(3)})
    out = oracle.evaluate_program(program, {"N": 3, "i": 2}, {"A": np.zeros(3)})
    assert out["A"].tolist() == [2.0, 1.0, 1.0]


def test_subscripts_with_variable_slices():
    """Each slice of a subscript keeps its own bounds."""
    program = frontend.parse(
        "def f(A: f64[N, N], B: f64[N, N]):\n"
        "    for i in range(N - 1):\n"
        "        B[i:i + 2, 1:N - i] = A[0:2, i:N - 1] + B[i:i + 2, 1:N - i]\n")
    rng = np.random.default_rng(2)
    a, b = rng.uniform(-1, 1, (4, 4)), rng.uniform(-1, 1, (4, 4))
    out = oracle.evaluate_program(program, {"N": 4}, {"A": a, "B": b})
    want = b.copy()
    for i in range(3):
        want[i:i + 2, 1:4 - i] = a[0:2, i:3] + want[i:i + 2, 1:4 - i]
    assert np.array_equal(out["B"], want)
