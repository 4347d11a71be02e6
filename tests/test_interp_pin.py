"""Pin the interpreter's outputs and counters per corpus kernel.

For every corpus kernel at test scale, six runs are hashed into one sha256:
the plain graph, the ``auto_optimize``d graph and its JSON round trip, each
with ``reverse_maps`` False and True.  Each run contributes the name, dtype,
shape and raw bytes of every output container, and ``Counters.as_dict()`` as
sorted-key JSON.  Changes to the interpreter must leave every digest
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
from sdfgkit.autoopt import auto_optimize
from sdfgkit.interp import ExecContext, InterpOptions, interpret
from sdfgkit.serialize import deserialize, serialize

PINNED = {
    "adi": "c8fcf4b54226fd5b4b31cafe91d8a3b03474bcf97b7af71a34d794ebcc426095",
    "atax": "6f15b45fe0e94e826703242a9f56b97b0c33a7c218da770ca26710a10ab59408",
    "bicg": "f47473802e4dcc9ef0edbe5e00edfea8fde0324cf95ccc355278a211176e3f83",
    "doitgen": "10afae374511f5fae808999da56ea6c5a23f930990dd1889ad429b98925d8f3a",
    "fig4_loop": "5cffc5623da6aaaaa4e5e4b4b91f66847631b90cb67b627a4c01354b2616732d",
    "gemm": "aef7c7abbe21db982f3b6f00ab3c69713b4dd6d129b4f35892d4648ffc6b9cc2",
    "gemver": "233990cc61bae52f713584ac114468e4df1fa6491fde9e2e8ac3716d13b508cf",
    "gesummv": "bb9fa4491ab40baa77bd41f952257adc10a8a88fd052e73a903172b6ae634058",
    "jacobi_1d": "25bfe4bd442343ecf7e677be83ca11da73ae41f4cff879aa3e06e199a618649b",
    "jacobi_2d": "286d0ac144b22edc6871f304c3198c7a4891d38c793de912d234c00fc0e3e0d8",
    "k2mm": "1bde6a43d92b96ccf890688cbd93783333420e207ffbdb86cd2b77a4be8b9263",
    "k3mm": "9124453bcd87383e51028385df11bf360562a35d6b0b76d1047a23f02670e2e4",
    "mvt": "f1450352d07ac213aae327ab8394705576b4145b445133e3ea0546454b3e0597",
    "wcr_sum": "ec4c3cdb70f2549dfef29ac5dbdbca6efaa423e6c4d7bd46a2372f7ec60cc42f",
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
    roundtrip = deserialize(serialize(optimized))
    h = hashlib.sha256()
    for g in (plain, optimized, roundtrip):
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
