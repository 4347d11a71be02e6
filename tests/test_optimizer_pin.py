"""Pin the frontend's, the optimizer's and the distribution pipeline's output.

Each ``LOWERED`` digest is a sha256 over ``serialize(g)`` of the graph
``frontend.compile_source`` returns (``no graph`` when it returns none) and
the sorted diagnostic strings, for every corpus kernel, the nested-call
program of ``test_interp_paths``, the local-view stencil and the programs of
``LOWERING_PROGRAMS``, which reach the lowering branches the others do not:
compound conditions, calls in tasklets, per-iteration locals and
write-conflict resolution in map bodies, reallocated locals, warnings, and
the rejections.  Each
``OPTIMIZED`` digest is a sha256 over three texts, joined by newlines:
``serialize(g)`` after ``auto_optimize``, ``emit_c(g)``, and the pass report
as sorted-key JSON.  Each ``DISTRIBUTED`` digest is a sha256 over
``serialize(g)`` after ``distribution_pipeline`` on a 2x2 grid.  Refactors of
the frontend, graph queries, passes or emitter must leave every digest unchanged; a
change that means to alter the output regenerates the tables with

    PYTHONPATH=src python tests/test_optimizer_pin.py
"""

import hashlib
import json

import numpy as np
import pytest

from conftest import ALL_KERNELS, compile_kernel, corpus_source
from sdfgkit import frontend
from sdfgkit.autoopt import auto_optimize
from sdfgkit.cemit import emit_c
from sdfgkit.dist import ProcessGrid, distribution_pipeline
from sdfgkit.dist.benchmark import JACOBI2D_LOCAL_VIEW
from sdfgkit.frontend import oracle
from sdfgkit.interp import ExecContext, InterpOptions, interpret
from sdfgkit.serialize import serialize
from test_interp_paths import CALLS

LOWERING_PROGRAMS = {
    "branches": """
def branches(A: f64[N], x: f64, y: f64, out: f64):
    if x > 0.5:
        if not y < 0.0:
            out = sqrt(x) + abs(y)
        else:
            out = -x
    else:
        out = pow(x, 2.0)
    if -x < sqrt(y * y) and (x < 0.9 or not y > 0.2):
        A[0] = exp(out) * max(x, y)
    out = min(out, pow(x, 2.0))
    A[1] += sqrt(abs(out))
""",
    "map_body": """
def map_body(A: f64[N, M], B: f64[N, M], v: f64[N], w: f64[M], s: f64):
    for i, j in map[0:N, 0:M]:
        t = A[i, j] * s
        t = t * A[i, j] + sqrt(abs(t))
        u = max(t, s) - exp(-t * t)
        B[i, j] = u - 2.0 * s + j
    for i, j in map[0:N, 0:M]:
        v[i] -= A[i, j]
    for i, j in map[0:N, 0:M]:
        w[j] *= A[i, j]
    for i, j in map[0:N, 0:M]:
        B[i, j] += A[i, j] * A[i, j] + s
    for i in map[0:N]:
        v[i] *= s
""",
    "condition_subscript": """
def f(A: f64[N], x: f64):
    if A[0] > x:
        x = 1.0
""",
    "condition_whole_array": """
def f(A: f64[N], B: f64[N], x: f64):
    if A < x:
        x = 1.0
""",
    "map_array_op": """
def f(A: f64[N], B: f64[N]):
    for i in map[0:N]:
        B[i] = sum(A)
""",
    "map_sliced_operand": """
def f(A: f64[N], B: f64[N]):
    for i in map[0:N]:
        B[i] = A[0:2] < 1.0
""",
    "map_whole_array_compare": """
def f(A: f64[N], B: f64[N]):
    for i in map[0:N]:
        B[i] = A < 1.0
""",
    "unknown_function": """
def f(A: f64[N], x: f64):
    x = foo(x)
    foo(A)
""",
    "call_in_tasklet": """
def g(A: f64[N]):
    A[0] = 1.0

def f(A: f64[N], x: f64):
    x = g(A) < 1.0
""",
    "call_in_map_body": """
def g(A: f64[N]):
    A[0] = 1.0

def f(A: f64[N], B: f64[N]):
    for i in map[0:N]:
        B[i] = g(A) < 1.0
""",
    "control_dependent": """
def f(x: f64, out: f64):
    if x > 5.0:
        y = 1.0
    out = y
""",
    "recursion": """
def f(A: f64[N]):
    h(A)

def h(A: f64[N]):
    f(A)
""",
    "elementwise_warnings": """
def f(A: f64[N], B: f64[M], C: f64[N]):
    C[:] = (A * B + A) * 2.0 - B
""",
    "loop_variant_shape": """
def syrk(alpha: f64, beta: f64, C: f64[N, N], A: f64[N, M]):
    for i in range(N):
        C[i, :i + 1] *= beta
        for k in range(M):
            C[i, :i + 1] += alpha * A[i, k] * A[:i + 1, k]
""",
    "zeros_in_loop": """
def f(A: f64[N], B: f64[N]):
    for t in range(0, 3):
        x = zeros(N)
        x[0] = x[0] + A[0]
        B[t] = x[0]
""",
    "empty_in_loop": """
def f(A: f64[N], B: f64[N]):
    for t in range(0, 3):
        x = empty(N)
        x[0] = x[0] + A[0]
        B[t] = x[0]
""",
    "zeros_twice": """
def f(A: f64[N], B: f64[N]):
    x = zeros(N)
    x[:] = A + 1.0
    x = zeros(N)
    B[:] = x + 2.0
""",
    "zeros_other_shape": """
def f(A: f64[N], B: f64[M]):
    x = zeros(N)
    A[:] = x + 1.0
    x = zeros(M)
    B[:] = x + 2.0
""",
}

# Extents of the programs of LOWERING_PROGRAMS that compile.
LOWERING_SYMBOLS = {"branches": {"N": 4}, "map_body": {"N": 4, "M": 3}}

LOWERED_NAMES = ALL_KERNELS + ["calls", "jacobi2d_local_view"] + list(LOWERING_PROGRAMS)

LOWERED = {
    "adi": "d5aa4f717a6687b48012174f6207f80359c5f02e31ad90ce1746b04f0692da9e",
    "atax": "4f9c2e9c3d4e2a1a318bdfb9a3d209a3adfb5f0eca0f20c5f84d42080aad3276",
    "bicg": "b0d7d3513542047c0653544dfaa4524e5fbdc89e61cffc66629eb267d0874281",
    "doitgen": "a5f72ab732c8ffd0a41d411c08db6f542e6f7e1076628c8fdd0354e384cf4743",
    "fig4_loop": "005e222b3684162db009752b31250469883765b432c293f3591d7c7b1fdd3b99",
    "gemm": "b0a45f4da5618176e07e973249b045811ba60495236098128af62b1afa149cc9",
    "gemver": "960a2babf720fa1e5f3e582dc40b4dd3681863801a879591e016bdcf3367a82a",
    "gesummv": "75c1051ff5944a0b1e96677ebf9277fd20b2435ff3688955abb28ffff298f91a",
    "jacobi_1d": "85e8dc06da3dc59406e270878c61c94c3f16cfe71e777d1b8b544e20250649f2",
    "jacobi_2d": "c105d02e29c414f4438e668ce1098307474e01665ff468e2782eaf67744665c0",
    "k2mm": "0d349f50589c13245ac944d1f3bbee355f2835e0eee8ea849efb54b2bcb03efc",
    "k3mm": "0173d59cacbc297c2c6bef0a2c242f4bc950c169957956cf2862359116e75a17",
    "mvt": "59a37144b9d3c3cb8f10fb61528c9e5bcf9f04ce0522825f6460980fb09d181a",
    "wcr_sum": "07b4e023dde6f154fae2df0dd5b11bbef7b798814bbdf7854cdbd99350145484",
    "calls": "bdf0711e7b9fea1acc8a42b20b2276c2f9818d7a3ab8214538becdefe3c02c39",
    "jacobi2d_local_view": "d3b2278429b4f5911dfa8794db87bed63b88b6e552e3c37e1837f38f58f4ff1a",
    "branches": "b49ad98b2c4d6a11088214f079df75692fc68969fb4ff755507a677b880c8d51",
    "map_body": "aba101fb60c6f16ab6eb6cd86aefdaad3b5f67ec3d15a59b8a7037f188cc4e96",
    "condition_subscript": "6d105987ed642a2b7fbe81c4927734ec901c615a7479a94a5820d4f25cb2e13e",
    "condition_whole_array": "5e0ad4bb0381885d328fc6a01f15dcd8e35783aa610fda0f9725b4537c92fd1d",
    "map_array_op": "4257d640c05e9edcb705f90840672b24961654ee0334d5468d5c49e44a0be341",
    "map_sliced_operand": "ae38ba754c09ed30764a66f97c81b7d8d9b69ae09826473edc4a6c2ec415613d",
    "map_whole_array_compare": "4257d640c05e9edcb705f90840672b24961654ee0334d5468d5c49e44a0be341",
    "unknown_function": "676ad9a864027a64fa49c679fb352fb186b7c03a5ab9e16bd2973e4fcf6c6e94",
    "call_in_tasklet": "eb7ee293f73dd7c6cc8865d08158ade0796571ff4954a7b83162f46ce48bb154",
    "call_in_map_body": "31a2e157cb189e34da06271d35728f0d0abf471e1c8550f50bf45b261b8cc53e",
    "control_dependent": "a44654a5132cc836c00a435e9f1b1bf68183c00fba72f01c874a2f30d5138cc0",
    "recursion": "04bc9a04fed930f661220af0755dcc5f2dbf11885df05bf146d976096361b49a",
    "elementwise_warnings": "3ca1cecaf45369cf1cbb58da81ddc423fa17d7fa80e8278b97e9d7620eff64e8",
    "loop_variant_shape": "19bfe66ec136276e1b3f037ef024797911c1dc3eac75015c5ace8ee10623064e",
    "zeros_in_loop": "99b4dc776b25f3f9e24d534fe9c396c432d63b59fc033072774d9e66907e6bd4",
    "empty_in_loop": "99b4dc776b25f3f9e24d534fe9c396c432d63b59fc033072774d9e66907e6bd4",
    "zeros_twice": "58474bea877444fce2e92a314a114fdcd3220a846ecd8fd61be32219b616f46a",
    "zeros_other_shape": "e1ea9f189446f1ccb14f7aadfbe8d60c850777aeb6092fc533a4be95c5bdf966",
}

OPTIMIZED = {
    "adi": "10f928ba8a9936c361afbeba0bf6e1b3e196af1c6c8fa0b791438add5f9c05d3",
    "atax": "da959df989c5eda5b33d114d7ccce59f4c99f9072d2bf154fde63909a78574e5",
    "bicg": "1cb0ac13051580233b89eaebf00847393a480ace4f417264a9bc42815938baaf",
    "doitgen": "251e2f02400303c6534e5955a40e604d5a8a08be13c0fc716842459c228638ec",
    "fig4_loop": "a343ad5b0e1b0546a8daad8023f3f883e23c7cc97cd20edfd4c5fcff860ee6ea",
    "gemm": "7c90c60008ba08264046541873e12f850b0128b0c7a71c15efbf1ff17806264f",
    "gemver": "db3e585c7ab27b9badcaebca29af0e3e9baa23cfa13b4984122cf34736d583ed",
    "gesummv": "4447b10a5a0317b4ac398f1d6644bb524c8029787d4bd985856f9d004d4dd6f0",
    "jacobi_1d": "f5df58bbb1dceda5ab6c90556434f66ce6e4f02c89532065c9a71e360623bb8f",
    "jacobi_2d": "42921e468ef204f35d48dbe642c21b7c4232c39d23ef9104ef08a7de4ac869b7",
    "k2mm": "4bbb6794e18f0e8d0ce048f735c8c846b97b31b3b2a9a94ac320d21bb07a67b1",
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


def lowered_source(name: str) -> str:
    if name == "calls":
        return CALLS
    if name == "jacobi2d_local_view":
        return JACOBI2D_LOCAL_VIEW
    return LOWERING_PROGRAMS.get(name) or corpus_source(name)


def lowered_digest(name: str) -> str:
    g, diags = frontend.compile_source(lowered_source(name))
    return _sha(serialize(g) if g is not None else "no graph",
                *sorted(str(d) for d in diags))


def optimized_digest(name: str) -> str:
    g = compile_kernel(name)
    report = auto_optimize(g)
    return _sha(serialize(g), emit_c(g), json.dumps(report.to_json(), sort_keys=True))


def distributed_digest(name: str) -> str:
    g = compile_kernel(name)
    distribution_pipeline(g, ProcessGrid.parse("2x2"))
    return _sha(serialize(g))


@pytest.mark.parametrize("name", LOWERED_NAMES)
def test_lowered_output_pinned(name):
    assert lowered_digest(name) == LOWERED[name]


@pytest.mark.parametrize("name", sorted(LOWERING_SYMBOLS))
def test_lowering_programs_match_oracle(name):
    """The pinned programs that compile agree with the oracle, plain and
    optimized, in both map orders; the seeds take every branch of
    ``branches``."""
    symbols = LOWERING_SYMBOLS[name]
    src = LOWERING_PROGRAMS[name]
    g, _ = frontend.compile_source(src)
    optimized = g.copy()
    auto_optimize(optimized)
    program = frontend.parse(src)
    for seed in range(9):
        rng = np.random.default_rng(seed)
        inputs = {
            p.name: (rng.uniform(0.5, 1.5, tuple(symbols[d.id] for d in p.shape))
                     if p.shape else float(rng.uniform(-1.0, 1.0)))
            for p in program.entry.params
        }
        want = oracle.evaluate_program(
            program, symbols, {k: np.array(v, copy=True) for k, v in inputs.items()})
        for graph in (g, optimized):
            for reverse in (False, True):
                ctx = ExecContext(bindings=dict(symbols)).bind_inputs(
                    {k: np.array(v, copy=True) for k, v in inputs.items()})
                out = interpret(graph, ctx, InterpOptions(reverse_maps=reverse))
                for k, ref in want.items():
                    assert np.allclose(out[k], ref, rtol=1e-12, atol=1e-14), (seed, k)


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_optimized_output_pinned(name):
    assert optimized_digest(name) == OPTIMIZED[name]


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_distributed_output_pinned(name):
    assert distributed_digest(name) == DISTRIBUTED[name]


if __name__ == "__main__":
    for table, fn, names in (("LOWERED", lowered_digest, LOWERED_NAMES),
                             ("OPTIMIZED", optimized_digest, ALL_KERNELS),
                             ("DISTRIBUTED", distributed_digest, ALL_KERNELS)):
        print(f"{table} = {{")
        for name in names:
            print(f'    "{name}": "{fn(name)}",')
        print("}\n")
