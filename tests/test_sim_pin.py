"""Pin the rank simulator's outputs and counters.

For every kernel of the distribution acceptance test, the graph after
``distribution_pipeline`` is simulated on the grids 1x1, 2x1 and 2x2, each
with ``rank_order`` forward and reversed, and the six runs are hashed into one
sha256.  Each run contributes the name, dtype and raw bytes of every output of
rank 0, the ``per_rank`` counters and ``collective_ops`` as sorted-key JSON.
The local-view jacobi_2d stencil of :mod:`sdfgkit.dist.benchmark` is pinned
the same way on 2x2.  Changes to the interpreter or the simulator must leave
every digest unchanged; a change that means to alter outputs or counters
regenerates the table with

    PYTHONPATH=src python tests/test_sim_pin.py
"""

import hashlib
import json

import numpy as np
import pytest

from conftest import compile_kernel, corpus_source, make_inputs
from sdfgkit import frontend
from sdfgkit.dist import ProcessGrid, distribution_pipeline, sim_run
from sdfgkit.dist.benchmark import run as run_stencil
from sdfgkit.interp import ExecContext
from test_acceptance import DIST_SYMBOLS

GRIDS = ("1x1", "2x1", "2x2")

PINNED = {
    "atax": "811235f8737938154d27037a833d308d24cfdebb40f6d8750cb12920275c4744",
    "bicg": "db4d71cf8b82bdd355702f4f135311ee9b4178f911385d62426388f213d8f2eb",
    "doitgen": "e83888cb9ec7c69081fe10403e2047a1218be6e2fb86b7057e42adaf3bccad61",
    "gemm": "4191ab7d5fa6ec0471aa8b95217a10fac8161291a0c3f8d23b58191a1dc76038",
    "gemver": "b88ef8275af03b7b263a309c778ba9196c21e63a3c1b230c6e0e9de1efd66acb",
    "gesummv": "42cbc969418704fb4c0a8cc92f3aac150c38a40d0f978993df86f24c314ce612",
    "jacobi_1d": "9cd69ebbbec24d4d3e40d5417a1c7ebf3d09c1218849863f6568a82b1b770ee3",
    "jacobi_2d": "8ad6b5dc8f1d8a6d60d5b11b7d6599b6d023a17494f45bffba5d2a03081899c2",
    "k2mm": "ba0e8a227689feba1fa2849a85fdcc559628b307b9fdbfa755a032e45cf5cece",
    "k3mm": "10b05ec9bd4be621462accc24f871b9126af459c9e1794874d1f030e9fd150ba",
    "mvt": "f85849220e1ec0002026325a31d1abca8e65a7117aeb56682cbd83bd191448a6",
    "stencil_2x2": "4238d4c868b3bcc756fcb3196eb32e5b35de33e1191e7fd259b57dad7f3c3951",
}


def _record(out: dict, report: dict) -> bytes:
    parts = []
    for name in sorted(out):
        arr = np.ascontiguousarray(out[name])
        parts.append(f"{name}:{arr.dtype.str}:".encode() + arr.tobytes())
    parts.append(json.dumps(report, sort_keys=True).encode())
    return b"\n".join(parts)


def _kernel_runs(name: str):
    """``(grid, outputs, report)`` for every grid and rank order."""
    symbols = DIST_SYMBOLS[name]
    inputs = make_inputs(frontend.parse(corpus_source(name)), symbols, seed=0)
    for text in GRIDS:
        grid = ProcessGrid.parse(text)
        g = compile_kernel(name)
        distribution_pipeline(g, grid)
        for rev in (False, True):
            ctx = ExecContext(bindings=dict(symbols)).bind_inputs(
                {k: np.array(v, copy=True) for k, v in inputs.items()})
            order = list(range(grid.size))[::-1] if rev else None
            out, report = sim_run(g, grid, ctx, rank_order=order)
            yield text, out, report


def sim_digest(name: str) -> str:
    h = hashlib.sha256()
    if name == "stencil_2x2":
        rng = np.random.default_rng(0)
        a, b = rng.uniform(-1.0, 1.0, (2, 8, 8))
        h.update(_record(*run_stencil(8, 4, ProcessGrid.parse("2x2"), a, b)))
        return h.hexdigest()
    for _, out, report in _kernel_runs(name):
        h.update(_record(out, report))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_simulator_output_and_counters_pinned(name):
    assert sim_digest(name) == PINNED[name]


def test_root_only_steps_run_on_rank_zero_alone():
    """gemver on 2x2: the maps over root-resident data run on rank 0 only."""
    for grid, _, report in _kernel_runs("gemver"):
        if grid == "2x2":
            iters = [report["per_rank"][r]["map_iterations"] for r in range(4)]
            assert iters == [72, 8, 8, 8]


if __name__ == "__main__":
    print("PINNED = {")
    for name in sorted(PINNED):
        print(f'    "{name}": "{sim_digest(name)}",')
    print("}")
