"""Graph names that collide with Python keywords, builtins and the names the
interpreter uses for its own compiled accessors and tasklets must be inert:
they are data, never code."""

import numpy as np
import pytest

from sdfgkit.interp import ExecContext, OutOfBoundsError, interpret
from sdfgkit.ir import AccessNode, DType, MapEntry, MapExit, Memlet, Schedule, Sdfg, Tasklet, Wcr
from sdfgkit.serialize import deserialize, serialize
from sdfgkit.symbolic import Const, Sub, Sym, SubsetRange
from sdfgkit.texpr import parse_texpr

OFFSET = "_e"  # a symbol named like the compiled functions' environment


def colliding_graph() -> Sdfg:
    """out[i] = lambda * b + KeyError - _e + range, over ``range`` in
    [0, min_ - _e), where ``lambda``/``b`` read ``_v0[range + _e]`` and
    ``args[range]``, ``KeyError`` reads the scalar ``_k0``; a second output
    ``_a0`` adds ``max(lambda, b)`` into the scalar ``_o0``."""
    g = Sdfg("collide")
    n, off, p = Sym("min_"), Sym(OFFSET), Sym("range")
    g.add_symbol("min_")
    g.add_symbol(OFFSET, 0)
    g.add_array("_v0", DType.F64, (n,))
    g.add_array("args", DType.F64, (n,))
    g.add_scalar("_k0", DType.F64)
    g.add_array("lambda", DType.F64, (n,))
    g.add_scalar("_o0", DType.F64)
    st = g.add_state("def", start=True)
    src_v, src_a, src_k = (st.add(AccessNode(c)) for c in ("_v0", "args", "_k0"))
    dst_l, dst_o = st.add(AccessNode("lambda")), st.add(AccessNode("_o0"))
    me = st.add(MapEntry((("range", (Const(0), Sub(Sub(n, off), Const(1)), Const(1))),),
                         Schedule.SEQUENTIAL))
    mx = st.add(MapExit(me))
    t = st.add(Tasklet(
        "_step", ("lambda", "b", "KeyError"), ("args", "_a0"),
        (("args", parse_texpr("lambda * b + KeyError - _e + range")),
         ("_a0", parse_texpr("max(lambda, b)")))))
    shifted = SubsetRange.point([p + off])
    st.add_edge(src_v, me, Memlet("_v0", SubsetRange.full((n,))), None, "IN_v")
    st.add_edge(src_a, me, Memlet("args", SubsetRange.full((n,))), None, "IN_a")
    st.add_edge(src_k, me, Memlet("_k0", SubsetRange(())), None, "IN_k")
    st.add_edge(me, t, Memlet("_v0", shifted), "OUT_v", "lambda")
    st.add_edge(me, t, Memlet("args", SubsetRange.point([p])), "OUT_a", "b")
    st.add_edge(me, t, Memlet("_k0", SubsetRange(())), "OUT_k", "KeyError")
    st.add_edge(t, mx, Memlet("lambda", SubsetRange.point([p])), "args", "IN_l")
    st.add_edge(t, mx, Memlet("_o0", SubsetRange(()), Wcr.ADD), "_a0", "IN_o")
    st.add_edge(mx, dst_l, Memlet("lambda", SubsetRange.full((n,))), "OUT_l")
    st.add_edge(mx, dst_o, Memlet("_o0", SubsetRange(()), Wcr.ADD), "OUT_o")
    return g


def _inputs(size: int) -> dict:
    return {"_v0": np.arange(size, dtype=float) * 0.5,
            "args": np.arange(size, dtype=float)[::-1].copy(),
            "_k0": 3.0, "lambda": np.zeros(size), "_o0": 0.25}


def _run(g, bindings, inputs):
    ctx = ExecContext(bindings=bindings).bind_inputs(inputs)
    return interpret(g, ctx), ctx


@pytest.mark.parametrize("roundtrip", [False, True])
def test_colliding_names_run_and_match(roundtrip):
    g = colliding_graph()
    assert not [d for d in g.validate() if d.severity == "error"]
    if roundtrip:
        g = deserialize(serialize(g))
    size, off = 6, 2
    ins = _inputs(size)
    out, ctx = _run(g, {"min_": size, OFFSET: off}, ins)
    want = np.zeros(size)
    total = ins["_o0"]
    for r in range(size - off):
        lam, b = ins["_v0"][r + off], ins["args"][r]
        want[r] = lam * b + ins["_k0"] - off + r
        total += max(lam, b)
    assert np.array_equal(out["lambda"], want)
    assert out["_o0"][()] == total
    assert ctx.counters.map_iterations == size - off
    assert ctx.counters.wcr_commits == size - off
    # 3 reads and 2 writes of 8 bytes per point
    assert ctx.counters.bytes_moved == 5 * 8 * (size - off)


def test_colliding_names_out_of_bounds_message():
    g = colliding_graph()
    # a negative offset shifts the first point of ``_v0[range + _e]`` below 0
    with pytest.raises(OutOfBoundsError) as exc:
        _run(g, {"min_": 6, OFFSET: -1}, _inputs(6))
    assert str(exc.value) == (
        "out-of-bounds access _v0[dim 0: -1..-1] (extent 6) at node 7 in state 'def'")
