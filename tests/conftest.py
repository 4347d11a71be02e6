import operator
import pathlib

import numpy as np
import pytest

from sdfgkit import frontend
from sdfgkit.frontend import oracle
from sdfgkit.frontend.dsl_ast import EBin, EName, ENum
from sdfgkit.interp import ExecContext, interpret

CORPUS = pathlib.Path(__file__).parent / "corpus"
GOLDEN = pathlib.Path(__file__).parent / "golden"

# Symbol bindings at desk scale (extents 4..8, short time loops).
KERNEL_SYMBOLS = {
    "gemm": {"NI": 4, "NJ": 6, "NK": 8},
    "jacobi_1d": {"N": 8, "TSTEPS": 4},
    "jacobi_2d": {"N": 6, "TSTEPS": 4},
    "atax": {"M": 6, "N": 4},
    "bicg": {"N": 6, "M": 4},
    "mvt": {"N": 6},
    "gesummv": {"N": 6},
    "gemver": {"N": 6},
    "k2mm": {"NI": 4, "NJ": 6, "NK": 8, "NL": 4},
    "k3mm": {"NI": 4, "NJ": 6, "NK": 8, "NM": 4, "NL": 6},
    "doitgen": {"NR": 4, "NQ": 4, "NP": 8},
    "adi": {"N": 8, "TSTEPS": 2},
    "fig4_loop": {"NI": 8},
    "wcr_sum": {"NI": 4, "NJ": 6},
}

ALL_KERNELS = sorted(KERNEL_SYMBOLS)


def corpus_source(name: str) -> str:
    return (CORPUS / f"{name}.dpy").read_text()


def make_inputs(program, symbols: dict[str, int], seed: int = 0):
    """Random, well-scaled inputs for every parameter of the entry function."""
    rng = np.random.default_rng(seed)
    f = program.entry
    inputs = {}
    for p in f.params:
        if p.shape:
            shape = tuple(_eval_shape(d, symbols) for d in p.shape)
            inputs[p.name] = rng.uniform(-1.0, 1.0, size=shape)
        elif p.dtype == "f64":
            inputs[p.name] = float(rng.uniform(0.5, 1.5))
    return inputs


_SHAPE_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "//": operator.floordiv}


def _eval_shape(expr, symbols):
    """An extent: integer literals and symbols under + - * //."""
    if isinstance(expr, ENum):
        return int(expr.value)
    if isinstance(expr, EName):
        return int(symbols[expr.id])
    if isinstance(expr, EBin) and expr.op in _SHAPE_OPS:
        return _SHAPE_OPS[expr.op](_eval_shape(expr.left, symbols),
                                   _eval_shape(expr.right, symbols))
    raise ValueError(f"unsupported shape expression {expr!r}")


def compile_kernel(name: str):
    src = corpus_source(name)
    g, diags = frontend.compile_source(src)
    errors = [d for d in diags if d.severity == "error"]
    assert g is not None and not errors, f"{name}: {[str(d) for d in errors]}"
    return g


def run_graph(g, symbols, inputs, **kw):
    ctx = ExecContext(bindings=dict(symbols))
    ctx.bind_inputs({k: np.array(v) if hasattr(v, "shape") else v for k, v in inputs.items()})
    out = interpret(g, ctx, **kw)
    return out, ctx


def run_oracle(name: str, symbols, inputs):
    program = frontend.parse(corpus_source(name))
    return oracle.evaluate_program(program, symbols, {
        k: (np.array(v, copy=True) if hasattr(v, "shape") else v) for k, v in inputs.items()
    })


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.abs(b), 1.0)
    if a.shape != b.shape:
        return np.inf
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b) / denom))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
