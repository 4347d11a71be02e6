"""Pin the optimizer's and the distribution pipeline's output per corpus kernel.

Each ``OPTIMIZED`` digest is a sha256 over three texts, joined by newlines:
``serialize(g)`` after ``auto_optimize``, ``emit_c(g)``, and the pass report
as sorted-key JSON.  Each ``DISTRIBUTED`` digest is a sha256 over
``serialize(g)`` after ``distribution_pipeline`` on a 2x2 grid.  Refactors of
the graph queries, passes or emitter must leave every digest unchanged; a
change that means to alter the output regenerates the tables with

    PYTHONPATH=src python tests/test_optimizer_pin.py
"""

import hashlib
import json

import pytest

from conftest import ALL_KERNELS, compile_kernel
from sdfgkit.autoopt import auto_optimize
from sdfgkit.cemit import emit_c
from sdfgkit.dist import ProcessGrid, distribution_pipeline
from sdfgkit.serialize import serialize

OPTIMIZED = {
    "adi": "4aeead36bf3245a3fe10d833a3119a1d51e201875cb1c13c61a1c2f37ba16666",
    "atax": "da959df989c5eda5b33d114d7ccce59f4c99f9072d2bf154fde63909a78574e5",
    "bicg": "1cb0ac13051580233b89eaebf00847393a480ace4f417264a9bc42815938baaf",
    "doitgen": "251e2f02400303c6534e5955a40e604d5a8a08be13c0fc716842459c228638ec",
    "fig4_loop": "a343ad5b0e1b0546a8daad8023f3f883e23c7cc97cd20edfd4c5fcff860ee6ea",
    "gemm": "8d84f3a0c7ed07bbdbb203db5424f634cdbe6c87ce176cabc0ccc22c3c60a819",
    "gemver": "36f8598b59d9158383cbb37b235300039e9516a2e32132f9ef0480f312576193",
    "gesummv": "04dc30e596a9a74968ae0937ce17c3a909f32a2689b05692410ecd3a4036de94",
    "jacobi_1d": "9cb5fbb197128393e5215be175ac05cbafe7d02ac9ce912c9e3a33815f60143a",
    "jacobi_2d": "a20edb7db4680dd04513d70d01b4c071b44a8e13a2bc8908c2ebc813800152cb",
    "k2mm": "a90b9c2585b7309878e42831acff24d28416c7d2693a8214c78838b857a18d89",
    "k3mm": "aa8e50531e6e573f494e393f97756e3c4606bbea46834fd67097957cdaa9d608",
    "mvt": "86edf00757fb8f12ec6ce1b7d5b122d7db7694c1da70aa3a56040fd4b72f88fe",
    "wcr_sum": "e3d3cd90beb7b3ed7324d52a02e68efd8759583b03190de22d9988175033e352",
}

DISTRIBUTED = {
    "adi": "412cccd64fc8ce3049c4c4870298acba2d549dca3110b83e9991821974741347",
    "atax": "22e9bd1e3c1c8337b3f141f658ea8bea89e3b449285b7b669bc8521e7812c693",
    "bicg": "31167daa7f8c309c708cde165b1a0712feb6bb63d3e2ef36aae1a2463efa0be1",
    "doitgen": "f3c1d377440dda10e62b7d536414465367e256fd34ccc07200d98f0537941f04",
    "fig4_loop": "005e222b3684162db009752b31250469883765b432c293f3591d7c7b1fdd3b99",
    "gemm": "5ef7e4b656ebffaa504e14f2caa45f031fabe8add2b4354928535838d4348324",
    "gemver": "83fd6135b722fa630243c5eefbc94ed02ccaf3e8a4e633c7635dddefaf6a1a04",
    "gesummv": "23149479c2f9f138fb4f65e69067e72d7fa9480e922541478364cd10d533a721",
    "jacobi_1d": "7d172f1507c8c3ad41cdfeeb50fa1013017aa314143dce94c964e996f7542557",
    "jacobi_2d": "d111720018de37682b531fc22123a816ff3c3600943feabe4dc78232f709102e",
    "k2mm": "43d46b8de133ad007d63dc74750077d5c162e106ea269f0d247402768e6f9ed4",
    "k3mm": "f8d8fc6c51b39c055e81e024a4971a82561bb76f21c2e9c6e194c294e53c3650",
    "mvt": "64ae4629c443cca47aa0757f048bf4d6ecf1dba2ebf99e8a8e75bb5d61698aed",
    "wcr_sum": "b34b27a8df2773c651639e82bd44dfdbf83120b35b2cbdf579b5cc442b7de2d5",
}


def _sha(*texts: str) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def optimized_digest(name: str) -> str:
    g = compile_kernel(name)
    report = auto_optimize(g)
    return _sha(serialize(g), emit_c(g), json.dumps(report.to_json(), sort_keys=True))


def distributed_digest(name: str) -> str:
    g = compile_kernel(name)
    distribution_pipeline(g, ProcessGrid.parse("2x2"))
    return _sha(serialize(g))


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_optimized_output_pinned(name):
    assert optimized_digest(name) == OPTIMIZED[name]


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_distributed_output_pinned(name):
    assert distributed_digest(name) == DISTRIBUTED[name]


if __name__ == "__main__":
    for table, fn in (("OPTIMIZED", optimized_digest), ("DISTRIBUTED", distributed_digest)):
        print(f"{table} = {{")
        for name in ALL_KERNELS:
            print(f'    "{name}": "{fn(name)}",')
        print("}\n")
