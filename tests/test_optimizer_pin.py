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
    "atax": "2d67fb5f61297d0f89c4027c9bb3e25869fa2db3f5a59876840de083cd50d206",
    "bicg": "754f1cb1f4ee2294d7339103aaa9e493fd2428653bae8a3725153e68c68f10f2",
    "doitgen": "05aea944900278cc045f0deb4d75d3e1d0bc40f3fe993d93dc5dda039d1f730d",
    "fig4_loop": "a343ad5b0e1b0546a8daad8023f3f883e23c7cc97cd20edfd4c5fcff860ee6ea",
    "gemm": "d9aceb05b06a83268e9bdd12593aba1536defa55fe650216736de10aee85599b",
    "gemver": "9532dda2ca5f5d4c1ca8a97d2082ada36c5d054534545af4af5ceeef783c87f3",
    "gesummv": "77a3a54adb72cc9eccada77395f723c474ff40e591a2e9ccd662400f90c14031",
    "jacobi_1d": "9cb5fbb197128393e5215be175ac05cbafe7d02ac9ce912c9e3a33815f60143a",
    "jacobi_2d": "a20edb7db4680dd04513d70d01b4c071b44a8e13a2bc8908c2ebc813800152cb",
    "k2mm": "ad9147a744d401bdc309cbb24c95eb22c425d573ea401c7718468b698f220592",
    "k3mm": "2a8b7756c7c614ec9e3a3db1215110cfe019529bb18237e65a609b01834ae0a1",
    "mvt": "153a732defccd1040d5bfa0e985035409696a02bae1fd96c749a1b35347a8910",
    "wcr_sum": "6c0bf54b3375243030e8e7e092ff9afebbfcb40c01b1ae1b1da4c0ada2e0a676",
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
