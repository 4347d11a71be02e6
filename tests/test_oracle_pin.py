"""Pin the AST oracle's outputs and error messages.

Each ``OUTPUTS`` digest is a sha256 over every output of
``oracle.evaluate_program`` in name order: the name, the dtype, the shape and
the raw bytes.  The cases are the corpus kernels at test scale and at the
extents of the benchmark's ``medium-execute`` and ``timestep-control``
workloads (inputs from ``conftest.make_inputs``, seed 0), the nested-call
program of ``test_interp_paths`` and the compiling programs of the lowering
pin in ``test_optimizer_pin`` with the seeds that test uses.  ``ERRORS``
holds the exact ``OracleError`` messages of programs and inputs the oracle
refuses.  A rewrite of the oracle must leave every digest and message
unchanged; a change that means to alter them regenerates the tables with

    PYTHONPATH=src python tests/test_oracle_pin.py
"""

import hashlib

import numpy as np
import pytest

from conftest import ALL_KERNELS, KERNEL_SYMBOLS, corpus_source, make_inputs
from sdfgkit import frontend
from sdfgkit.frontend import oracle
from test_interp_paths import CALLS
from test_optimizer_pin import LOWERING_PROGRAMS, LOWERING_SYMBOLS

# The extents of bench/workloads.py, copied so that the pin does not move
# when the benchmark does.
MEDIUM_EXECUTE = {
    "gemm": {"NI": 20, "NJ": 20, "NK": 20},
    "k3mm": {"NI": 12, "NJ": 12, "NK": 12, "NM": 12, "NL": 12},
    "atax": {"M": 48, "N": 48},
    "wcr_sum": {"NI": 48, "NJ": 48},
    "doitgen": {"NR": 6, "NQ": 8, "NP": 12},
    "jacobi_2d": {"N": 24, "TSTEPS": 4},
}
TIMESTEP_CONTROL = {
    "jacobi_1d": {"N": 8, "TSTEPS": 60},
    "jacobi_2d": {"N": 6, "TSTEPS": 30},
}


def _cases() -> dict:
    """name -> (source, symbols, inputs)"""
    cases = {}
    for scale, table in (("test", KERNEL_SYMBOLS), ("medium", MEDIUM_EXECUTE),
                         ("timestep", TIMESTEP_CONTROL)):
        for name in sorted(table):
            src = corpus_source(name)
            symbols = table[name]
            cases[f"{name}@{scale}"] = (
                src, symbols, make_inputs(frontend.parse(src), symbols, seed=0))
    rng = np.random.default_rng(7)
    cases["calls"] = (CALLS, {"N": 5, "M": 3}, {
        "A": rng.uniform(-1, 1, (5, 3)), "x": rng.uniform(-1, 1, 3),
        "y": rng.uniform(-1, 1, 5), "s": 1.5})
    for name in sorted(LOWERING_SYMBOLS):
        symbols = LOWERING_SYMBOLS[name]
        src = LOWERING_PROGRAMS[name]
        program = frontend.parse(src)
        for seed in range(9):
            rng = np.random.default_rng(seed)
            cases[f"{name}/{seed}"] = (src, symbols, {
                p.name: (rng.uniform(0.5, 1.5, tuple(symbols[d.id] for d in p.shape))
                         if p.shape else float(rng.uniform(-1.0, 1.0)))
                for p in program.entry.params})
    return cases


CASES = _cases()


def output_digest(name: str) -> str:
    src, symbols, inputs = CASES[name]
    out = oracle.evaluate_program(frontend.parse(src), symbols, {
        k: np.array(v, copy=True) if hasattr(v, "shape") else v for k, v in inputs.items()})
    h = hashlib.sha256()
    for k in sorted(out):
        v = out[k]
        h.update(f"{k}:{v.dtype.str}:{v.shape}:".encode())
        h.update(np.ascontiguousarray(v).tobytes())
    return h.hexdigest()


OUTPUTS = {
    "adi@test": "9bc57d7ff5d716a728cdd21cd5646caacb9bff0d3f1ae7f9c0a9ed77bc94b37e",
    "atax@medium": "16bb5ef84d9843dbeaec4612aef040eab9a1c4850cf05e85613d51c4ea8c6d6e",
    "atax@test": "38864d11c4da1fe65164afabe5c8bdab7015b72739a5187315a6422ae3871fa2",
    "bicg@test": "22c7aa7ef9f671d73f513dc23248b885a0bd1b8833c13f3ff2d176d8377940ab",
    "branches/0": "dedaccd025b11f15352b441f41a5abe73fd95efdb6936b7bd2d258f138998e04",
    "branches/1": "157ef52904de82d2712c4e45e87f2eef0061b88e9b4449b9c4b678fc1cb30795",
    "branches/2": "7fcf1da76e1a58046ca529ffaafd4c7e7d4e7b95d5bd877bad9c21554ed84b77",
    "branches/3": "3d4a6f468ab191c2b9b7e740392dfc364d35610a266f0b4f07c60599f6f7483e",
    "branches/4": "93b2128bc4efd84e7e340fe91ce2d08dd1b45dafab8741f63cfb116c99c247e9",
    "branches/5": "c517a1544abd43374d52c4199d33da9c3c09a77741d52564627d8e8b161d58fe",
    "branches/6": "e9cd58cb4d982a88532dcf060e7dd2ad628221a090c1d6c10d71327a66883051",
    "branches/7": "cfeea53be2203ac8a76844b24536fe642722ec5accc8f2fab5154f0833564205",
    "branches/8": "363c6ed0cd8a013afa6f459f8a3de7b3fb024f51490812c27fa2890119367c06",
    "calls": "9836b5ed41d66d3eeeccf375bafb2f45a4fffce6ad50116ba1026208117c453f",
    "doitgen@medium": "9aa762af29fb00445d86d76d3f5b3af8cd1079255f86daeb6a973fe1d2b9b2b4",
    "doitgen@test": "e4603d49af8be07b98c1993ad3014cc0f6496d3876f64bec950231c437278e6f",
    "fig4_loop@test": "81b36d50f9b909408a41f0725298cb3cbac3b6b6c2b07c334cb577852a7652b4",
    "gemm@medium": "8cb62d327f9be5c246362d06920a3de3af9dcb3db97b4c7c540f7bc9ee27b2aa",
    "gemm@test": "f53ff29df2bfd1710fb2b8bcf737c0fb6dc0bd0d653733fd04ff716e218ddf8e",
    "gemver@test": "71639e0d28aef83ac15789eaa33befe366878803d9b61e1497c0169cf35de21d",
    "gesummv@test": "759a590d2c2ef332a04824c8802eca71ce50f856297b0e68af640e65b45a60f1",
    "jacobi_1d@test": "fcefc6b090047f425e7c83b1e82688e67c834b50453c8b7c5b96597620ea3db9",
    "jacobi_1d@timestep": "9b0854c4a8dcbd981efb4d4d3543ad0275fbe8ecd548043f74a3b2a83da63e30",
    "jacobi_2d@medium": "cc7e8f6f479562ce0190a16a8f76c8987da4dd54c67620e10e81b9b5af4efe47",
    "jacobi_2d@test": "cc704a4bc6f67a21e7981c524e924b5f6f899fbd102e10f696f366235001fbfb",
    "jacobi_2d@timestep": "623c3e7dbc6da6c452f105b67e9cc1679b6960145040cd793e4e760a5b3dfb03",
    "k2mm@test": "b53104b14b4777192998d9c0d51e7db05234215683d5117fd7828c5e19682377",
    "k3mm@medium": "8ffce03bcdb1809113eefe40f2297ab5131b66f9c504c93435cbd8eca568a003",
    "k3mm@test": "f0098f8ebeb109c3a638c28862afe15fa33506458079b4ac9fc2013c52f9c39f",
    "map_body/0": "62a0bcf71945191eec55389030a103bf1f8865d3f0147554283c8df9b933fb40",
    "map_body/1": "d17957ff0e45e86c5c8ded8a7954ddb02bd2b607cbd175358bd83f1a23cce57d",
    "map_body/2": "1d625949734bdc527633750379665c23ec6fe32cb2d78bb38cb5595fd4349ff6",
    "map_body/3": "ed1c51f44de356708a32374ff84520de8a13cb1ab869e428eae2b1d86a816398",
    "map_body/4": "146d1dc4d0ae31aedb6eeea209f7dde8e9ed060177ee36dc63294e3f50eed0c7",
    "map_body/5": "88ab5f580e9b74af6218917e9c758d39a4f52a59df275c564d69965392c67a4b",
    "map_body/6": "dfa39485cd871fa23d6d150980d1cd1bcbbb84b5c51d5f3a2e19cde5d2de05ff",
    "map_body/7": "13a3ddd45de03a624738931ec553660dae20f80d8b7a4ea25d40362faf31213d",
    "map_body/8": "b9edbb757f7462a63d32f38a2545223d15edeb248400291777006e8323ffaa84",
    "mvt@test": "0ca00b7f15fd445b43ade9e0227457a2077d5eed859bd07d9ab46d06c7425435",
    "wcr_sum@medium": "cecd3f02f1a890a5c6716641d078f9d9d54eb3f8093f2d121da1f1ddd36bc310",
    "wcr_sum@test": "9a013ba757f1fe0b767ec8c34fa16830c4d19efffbd2985856548072c0a5f5d5",
}


ONE_D = "def f(A: f64[N], x: f64):\n    A[0] = x\n"

# name -> (source, symbols, inputs)
REFUSED = {
    "missing_input": (ONE_D, {"N": 4}, {"x": 1.0}),
    "wrong_shape": (ONE_D, {"N": 4}, {"A": np.zeros(3), "x": 1.0}),
    "missing_scalar": (ONE_D, {"N": 4}, {"A": np.zeros(4)}),
    "missing_integer": ("def f(A: f64[N], n: i64):\n    A[0] = n\n",
                        {"N": 4}, {"A": np.zeros(4)}),
    "unbound_name": ("def f(A: f64[N]):\n    A[0] = q\n", {"N": 4}, {"A": np.zeros(4)}),
    "comm_statement": ("def f(A: f64[N]):\n    comm_waitall(A)\n",
                       {"N": 4}, {"A": np.zeros(4)}),
    "comm_expression": ("def f(A: f64[N], B: f64[N]):\n    B[:] = block_gather(A)\n",
                        {"N": 4}, {"A": np.zeros(4), "B": np.zeros(4)}),
    "unknown_function": ("def f(A: f64[N]):\n    A[0] = foo(1.0)\n",
                         {"N": 4}, {"A": np.zeros(4)}),
    "subscript_of_scalar": ("def f(A: f64[N]):\n    t = 1.0\n    t[0] = 2.0\n",
                            {"N": 4}, {"A": np.zeros(4)}),
    "scalar_argument": ("def g(B: f64[N]):\n    B[0] = 1.0\n\n"
                        "def f(A: f64[N], x: f64):\n    g(x)\n",
                        {"N": 4}, {"A": np.zeros(4), "x": 1.0}),
}


def error_message(name: str) -> str:
    src, symbols, inputs = REFUSED[name]
    with pytest.raises(oracle.OracleError) as info:
        oracle.evaluate_program(frontend.parse(src), symbols, inputs)
    return str(info.value)


ERRORS = {
    "comm_expression": 'communication has no shared-memory oracle',
    "comm_statement": 'communication statements have no shared-memory oracle',
    "missing_input": "missing input array 'A'",
    "missing_integer": "missing integer binding 'n'",
    "missing_scalar": "missing scalar input 'x'",
    "scalar_argument": "argument 'B' must be an array",
    "subscript_of_scalar": "'t' is not an array",
    "unbound_name": "unbound name 'q'",
    "unknown_function": "unknown function 'foo'",
    "wrong_shape": "input 'A' has shape (3,), want (4,)",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_pinned(name):
    assert output_digest(name) == OUTPUTS[name]


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_error_message_pinned(name):
    assert error_message(name) == ERRORS[name]


def test_every_kernel_and_workload_extent_is_pinned():
    assert {n.split("@")[0] for n in CASES if "@test" in n} == set(ALL_KERNELS)
    assert set(OUTPUTS) == set(CASES) and set(ERRORS) == set(REFUSED)


if __name__ == "__main__":
    print("OUTPUTS = {")
    for name in sorted(CASES):
        print(f'    "{name}": "{output_digest(name)}",')
    print("}\n")
    print("ERRORS = {")
    for name in sorted(REFUSED):
        print(f'    "{name}": {error_message(name)!r},')
    print("}")
