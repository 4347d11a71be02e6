"""Pin the interpreter's outputs and counters per corpus kernel.

For every corpus kernel at test scale, six runs are hashed into one sha256:
the plain graph, the ``auto_optimize``d graph and its JSON round trip, each
with ``reverse_maps`` False and True.  Where CPU specialization changes the
optimized graph (library expansion, write-conflict tiling), two runs of the
specialized graph follow, so the native expansions stay pinned too.  Each
run contributes the name, dtype, shape and raw bytes of every output
container, and ``Counters.as_dict()`` as sorted-key JSON.  Changes to the interpreter must leave every digest
unchanged; a change that means to alter outputs or counters regenerates the
table with

    PYTHONPATH=src python tests/test_interp_pin.py
"""

import copy
import hashlib
import json

import numpy as np
import pytest

from conftest import ALL_KERNELS, KERNEL_SYMBOLS, compile_kernel, corpus_source, make_inputs
from sdfgkit import frontend
from sdfgkit.autoopt import auto_optimize, needs_specialization, specialize
from sdfgkit.interp import ExecContext, InterpOptions, interpret
from sdfgkit.serialize import deserialize, serialize

PINNED = {
    "adi": "94e7b4465360897e7baa1da3e5aae2d32bd31ee24b7c9b71d6dfc14b124223c4",
    "atax": "7e81f025d0f9134b37a782335a5e1ad76ffe82d26067d42cc9b2940df581289c",
    "bicg": "80be6008bd80e9c22174cf9e427f95bd26e35f47f2aef59714ff2599f90315c6",
    "doitgen": "d3876cee19bef19dba095310e04d1a1ba14795825927bca909bb8c31754ddea8",
    "fig4_loop": "5cffc5623da6aaaaa4e5e4b4b91f66847631b90cb67b627a4c01354b2616732d",
    "gemm": "93af2970f3bd98eb9856763adec11e5eef538372441f1ca40dfaaee94ae5d71f",
    "gemver": "d1e9f4e62689b704f277f4cdbd33df41f49a81ca558a51ab0f647f576ba12c7d",
    "gesummv": "3f84b6151f311f40eb0a906eec160d36e2290f02f3915ede1994039a01e80b8d",
    "jacobi_1d": "25bfe4bd442343ecf7e677be83ca11da73ae41f4cff879aa3e06e199a618649b",
    "jacobi_2d": "286d0ac144b22edc6871f304c3198c7a4891d38c793de912d234c00fc0e3e0d8",
    "k2mm": "98c495a0dbadf59e5bc6ef0daa07c7babb824ab9797d35148043ccdcf7cd3668",
    "k3mm": "201cdd70b6d434d18b80fefef063699f734abc63713c45a0a3fc295e5879d7bf",
    "mvt": "89eff6af48ecadfd6462f88c4f2be62dc566a2c5843d5e4d88e75e5cb8f9fe7d",
    "wcr_sum": "a568400a60e70f1f01e4c0a4b1f637c97f7c7a6b8fbc2823dfb129712bd98e9e",
}


def _run_record(g, symbols, inputs, reverse: bool) -> bytes:
    ctx = ExecContext(bindings=dict(symbols))
    ctx.bind_inputs({k: copy.deepcopy(v) for k, v in inputs.items()})
    out = interpret(g, ctx, InterpOptions(reverse_maps=reverse))
    parts = []
    for name in sorted(out):
        arr = np.ascontiguousarray(out[name])
        parts.append(f"{name}:{arr.dtype.str}:{arr.shape}:".encode() + arr.tobytes())
    parts.append(json.dumps(ctx.counters.as_dict(), sort_keys=True).encode())
    return b"\n".join(parts)


def interp_digest(name: str) -> str:
    symbols = KERNEL_SYMBOLS[name]
    inputs = make_inputs(frontend.parse(corpus_source(name)), symbols, seed=0)
    plain = compile_kernel(name)
    optimized = compile_kernel(name)
    auto_optimize(optimized)
    graphs = [plain, optimized, deserialize(serialize(optimized))]
    if needs_specialization(optimized):
        specialized = optimized.copy()
        specialize(specialized)
        graphs.append(specialized)
    h = hashlib.sha256()
    for g in graphs:
        for reverse in (False, True):
            h.update(_run_record(g, symbols, inputs, reverse))
    return h.hexdigest()


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_interpreter_output_and_counters_pinned(name):
    assert interp_digest(name) == PINNED[name]


if __name__ == "__main__":
    print("PINNED = {")
    for name in ALL_KERNELS:
        print(f'    "{name}": "{interp_digest(name)}",')
    print("}")
