"""Library nodes, copies and vector launches on hand-built graphs, pinned.

Every case runs four times, in both map orders with ``vectorize`` on and
off.  Each run records the name, dtype, shape and bytes of every output
container and ``Counters.as_dict()``, or, for a run that raises, the
error's type and text and the counters at that point; the four records of
a case are hashed into one sha256.  The cases reach what the corpus
reaches only in part: reductions over every axis, some axes or a squeezed
input, under each operator; reductions and products written through WCR;
products with kept flags; transposes; copies in both directions with
offset and strided subsets; and library reads, writes and results that
are out of bounds or do not fit.  The vector-launch cases run maps whose
unit-stride ranges, set by symbols, are empty or hold one point.  Changes
to the interpreter must leave every digest and error text unchanged; a
change that means to alter them regenerates the tables with

    PYTHONPATH=src:tests python tests/test_interp_steps.py
"""

import copy
import hashlib
import json

import numpy as np
import pytest

from sdfgkit.interp import ExecContext, InterpOptions, InterpreterError, interpret
from sdfgkit.ir import (
    AccessNode, DType, LibKind, LibraryNode, MapEntry, MapExit, Memlet, Sdfg, Wcr,
)
from sdfgkit.symbolic import Const, Sym, SubsetRange, as_expr
from test_interp_vector import IJ, MATVEC, map_graph, nested_graph

F = DType.F64
i, S, T = Sym("i"), Sym("S"), Sym("T")
RNG = np.random.default_rng(11)


def _declare(g: Sdfg, arrays: dict) -> None:
    for name, shape in arrays.items():
        if shape:
            g.add_array(name, F, tuple(Const(n) for n in shape))
        else:
            g.add_scalar(name, F)


def _memlet(name: str, dims, wcr=None) -> Memlet:
    return Memlet(name, SubsetRange.make([tuple(as_expr(x) for x in d) for d in dims]), wcr)


def library_graph(kind: LibKind, arrays: dict, ins: dict, out, attrs=None,
                  symbols=()) -> Sdfg:
    """One state with one library node.  ``arrays`` maps a container to its
    shape (``()`` for a scalar); ``ins`` maps a connector to ``(container,
    dims)`` and ``out`` is ``(container, dims, wcr)``, each dimension a
    ``(begin, end, stride)`` with an inclusive end."""
    g = Sdfg(kind.value)
    _declare(g, arrays)
    for s in symbols:
        g.add_symbol(s, 0)
    st = g.add_state("s0", start=True)
    node = st.add(LibraryNode(kind, kind.value, dict(attrs or {})))
    for conn, (name, dims) in ins.items():
        st.add_edge(st.add(AccessNode(name)), node, _memlet(name, dims), dst_conn=conn)
    name, dims, wcr = out
    st.add_edge(node, st.add(AccessNode(name)), _memlet(name, dims, wcr), src_conn="out")
    return g


def copy_graph(arrays: dict, src: str, dst: str, on: str, dims, wcr=None) -> Sdfg:
    """One state copying ``src`` into ``dst`` through a memlet on ``on``."""
    g = Sdfg("copy")
    _declare(g, arrays)
    st = g.add_state("s0", start=True)
    st.add_edge(st.add(AccessNode(src)), st.add(AccessNode(dst)), _memlet(on, dims, wcr))
    return g


def reduce_in_map_graph() -> Sdfg:
    """``s += sum(A[i, :])`` for i in 0..2: a REDUCE node inside a map,
    whose squeezed row reads run point by point."""
    g = Sdfg("reduce_in_map")
    _declare(g, {"A": (3, 5), "s": ()})
    st = g.add_state("s0", start=True)
    entry = st.add(MapEntry((("i", (Const(0), Const(2), Const(1))),)))
    exit_ = st.add(MapExit(entry))
    node = st.add(LibraryNode(LibKind.REDUCE, "reduce", {"a_kept": [False, True]}))
    st.add_edge(st.add(AccessNode("A")), entry, _memlet("A", [(0, 2, 1), (0, 4, 1)]),
                dst_conn="IN_A")
    st.add_edge(entry, node, _memlet("A", [(i, i, 1), (0, 4, 1)]), src_conn="OUT_A",
                dst_conn="a")
    st.add_edge(node, exit_, Memlet("s", SubsetRange.make([]), Wcr.ADD), src_conn="out",
                dst_conn="IN_s")
    st.add_edge(exit_, st.add(AccessNode("s")), Memlet("s", SubsetRange.make([]), Wcr.ADD),
                src_conn="OUT_s")
    return g


def _uniform(*shape):
    return RNG.uniform(0.5, 1.5, shape)


# drawn in this order, which the pinned digests depend on
A34, A345, B45 = _uniform(3, 4), _uniform(3, 4, 5), _uniform(4, 5)
WHOLE_34 = [(0, 2, 1), (0, 3, 1)]


def _reduce(op, axes, out, a=("A", WHOLE_34), kept=None, arrays=None, symbols=()):
    attrs = {"op": op, "axes": axes}
    if kept is not None:
        attrs["a_kept"] = kept
    return lambda: library_graph(LibKind.REDUCE, arrays or {"A": (3, 4), "B": (4,), "s": ()},
                                 {"a": a}, out, attrs, symbols)


def _matmul(arrays, a, b, out, attrs=None, symbols=()):
    return lambda: library_graph(LibKind.MATMUL, arrays, {"a": a, "b": b}, out, attrs, symbols)


def _transpose(arrays, a, out, symbols=()):
    return lambda: library_graph(LibKind.TRANSPOSE, arrays, {"a": a}, out, None, symbols)


AB = {"A": A34, "B": np.zeros(4), "s": np.zeros(())}
MM = {"A": _uniform(2, 3), "B": _uniform(3, 4), "C": _uniform(2, 4)}

# name -> (graph builder, bindings, inputs)
CASES = {
    # every axis reduced, into a scalar and into a point of an array
    "reduce_all_add": (_reduce("add", None, ("s", [], None)), {}, AB),
    "reduce_all_mul_point": (_reduce("mul", None, ("B", [(2, 2, 1)], None)), {}, AB),
    # one axis of two
    "reduce_axis0_min": (_reduce("min", [0], ("B", [(0, 3, 1)], None)), {}, AB),
    "reduce_axis1_max": (_reduce("max", [1], ("B", [(1, 3, 1)], None)), {}, AB),
    # a squeezed input: A[1, :, :] reduced over its last axis
    "reduce_kept_add": (_reduce("add", [1], ("B", [(0, 3, 1)], None),
                                ("A", [(1, 1, 1), (0, 3, 1), (0, 4, 1)]), [False, True, True],
                                {"A": (3, 4, 5), "B": (4,)}), {},
                        {"A": A345, "B": np.zeros(4)}),
    # an offset, strided input
    "reduce_offset_mul": (_reduce("mul", [0], ("B", [(0, 1, 1)], None),
                                  ("A", [(0, 2, 2), (1, 2, 1)])), {}, AB),
    # through WCR, into a scalar and into part of an array
    "reduce_wcr_scalar": (_reduce("add", None, ("s", [], Wcr.ADD)), {},
                          {**AB, "s": np.array(0.5)}),
    "reduce_wcr_max": (_reduce("max", [1], ("B", [(1, 3, 1)], Wcr.MAX)), {},
                       {**AB, "B": np.array([3.0, 0.0, 1.2, -1.0])}),
    "reduce_in_map": (reduce_in_map_graph, {}, {"A": _uniform(3, 5), "s": np.array(0.25)}),
    "matmul": (_matmul({"A": (2, 3), "B": (3, 4), "C": (2, 4)}, ("A", [(0, 1, 1), (0, 2, 1)]),
                       ("B", [(0, 2, 1), (0, 3, 1)]), ("C", [(0, 1, 1), (0, 3, 1)], None)),
               {}, MM),
    "matmul_wcr": (_matmul({"A": (2, 3), "B": (3, 4), "C": (2, 4)},
                           ("A", [(0, 1, 1), (0, 2, 1)]), ("B", [(0, 2, 1), (0, 3, 1)]),
                           ("C", [(0, 1, 1), (0, 3, 1)], Wcr.ADD)), {}, MM),
    # a[0, :, :] @ b[:, :, 1]: both inputs squeezed
    "matmul_kept": (_matmul({"A": (2, 2, 3), "B": (3, 4, 2), "C": (2, 4)},
                            ("A", [(0, 0, 1), (0, 1, 1), (0, 2, 1)]),
                            ("B", [(0, 2, 1), (0, 3, 1), (1, 1, 1)]),
                            ("C", [(0, 1, 1), (0, 3, 1)], None),
                            {"a_kept": [False, True, True], "b_kept": [True, True, False]}),
                    {}, {"A": _uniform(2, 2, 3), "B": _uniform(3, 4, 2), "C": np.zeros((2, 4))}),
    # a matrix-vector product into an offset part of the output, through WCR
    "matvec_offset_wcr": (_matmul({"A": (3, 4), "x": (4,), "y": (5,)},
                                  ("A", WHOLE_34), ("x", [(0, 3, 1)]),
                                  ("y", [(1, 3, 1)], Wcr.ADD)), {},
                          {"A": A34, "x": _uniform(4), "y": _uniform(5)}),
    # a 1x1 product into one element of a matrix
    "matmul_point": (_matmul({"A": (2, 3), "B": (3, 4), "C": (2, 4)},
                             ("A", [(1, 1, 1), (0, 2, 1)]), ("B", [(0, 2, 1), (3, 3, 1)]),
                             ("C", [(1, 1, 1), (2, 2, 1)], None)), {}, MM),
    "transpose": (_transpose({"A": (3, 4), "B": (4, 3)}, ("A", WHOLE_34),
                             ("B", [(0, 3, 1), (0, 2, 1)], None)), {},
                  {"A": A34, "B": np.zeros((4, 3))}),
    "transpose_offset": (_transpose({"A": (3, 4), "B": (5, 5)}, ("A", [(1, 2, 1), (0, 3, 2)]),
                                    ("B", [(2, 3, 1), (1, 2, 1)], None)), {},
                         {"A": A34, "B": _uniform(5, 5)}),
    # copies with the memlet on the source and on the destination
    "copy_from_offset": (lambda: copy_graph({"A": (6,), "B": (3,)}, "A", "B", "A",
                                            [(2, 4, 1)]), {},
                         {"A": _uniform(6), "B": np.zeros(3)}),
    "copy_into_offset": (lambda: copy_graph({"A": (3,), "B": (6,)}, "A", "B", "B",
                                            [(1, 3, 1)]), {},
                         {"A": _uniform(3), "B": _uniform(6)}),
    "copy_strided_2d": (lambda: copy_graph({"A": (4, 5), "B": (2, 3)}, "A", "B", "A",
                                           [(0, 2, 2), (1, 3, 1)]), {},
                        {"A": _uniform(4, 5), "B": np.zeros((2, 3))}),
    "copy_into_2d_wcr": (lambda: copy_graph({"A": (4,), "B": (3, 4)}, "A", "B", "B",
                                            [(1, 1, 1), (0, 3, 1)], Wcr.ADD), {},
                         {"A": _uniform(4), "B": _uniform(3, 4)}),
    "copy_from_wcr": (lambda: copy_graph({"A": (6,), "B": (2,)}, "A", "B", "A",
                                         [(4, 5, 1)], Wcr.MUL), {},
                      {"A": _uniform(6), "B": _uniform(2)}),
    "copy_point": (lambda: copy_graph({"A": (6,), "B": (1,)}, "A", "B", "A", [(2, 2, 1)]), {},
                   {"A": _uniform(6), "B": np.zeros(1)}),
    # out of bounds at run time: reads and writes of library nodes and copies
    "reduce_read_oob": (_reduce("add", None, ("s", [], None), ("A", [(S, S + 2, 1), (0, 3, 1)]),
                                symbols=("S",)), {"S": 2}, AB),
    "matmul_write_oob": (_matmul({"A": (2, 3), "B": (3, 4), "C": (2, 4)},
                                 ("A", [(0, 1, 1), (0, 2, 1)]), ("B", [(0, 2, 1), (0, 3, 1)]),
                                 ("C", [(S, S + 1, 1), (0, 3, 1)], None), symbols=("S",)),
                         {"S": 1}, MM),
    "matmul_read_b_oob": (_matmul({"A": (2, 3), "B": (3, 4), "C": (2, 4)},
                                  ("A", [(0, 1, 1), (0, 2, 1)]),
                                  ("B", [(0, 2, 1), (S, S + 3, 1)]),
                                  ("C", [(0, 1, 1), (0, 3, 1)], None), symbols=("S",)),
                          {"S": 1}, MM),
    "transpose_write_oob": (_transpose({"A": (3, 4), "B": (4, 3)}, ("A", WHOLE_34),
                                       ("B", [(0, 3, 1), (S, S + 2, 1)], None), ("S",)),
                            {"S": -1}, {"A": A34, "B": np.zeros((4, 3))}),
    "copy_write_oob": (lambda: _with_symbol(copy_graph({"A": (3,), "B": (6,)}, "A", "B", "B",
                                                       [(S, S + 2, 1)])), {"S": 4},
                       {"A": _uniform(3), "B": np.zeros(6)}),
    "reduce_point_write_oob": (_reduce("min", None, ("B", [(S, S, 1)], None), symbols=("S",)),
                               {"S": 4}, AB),
    # results that do not fit their outputs
    "reduce_misfit": (_reduce("add", [1], ("B", [(0, 1, 1)], None)), {}, AB),
    "reduce_point_misfit": (_reduce("add", [0], ("B", [(1, 1, 1)], None)), {}, AB),
    "transpose_misfit": (_transpose({"A": (2, 3), "B": (2, 2)}, ("A", [(0, 1, 1), (0, 2, 1)]),
                                    ("B", [(0, 1, 1), (0, 1, 1)], None)), {},
                         {"A": _uniform(2, 3), "B": np.zeros((2, 2))}),
    "copy_misfit_wcr": (lambda: copy_graph({"A": (6,), "B": (3,)}, "A", "B", "B",
                                           [(0, 1, 1)], Wcr.ADD), {},
                        {"A": _uniform(6), "B": np.zeros(3)}),
    # vector launches over unit-stride ranges set by symbols: empty, and
    # one point, in one and two dimensions
    **{f"launch_{what}": (lambda: map_graph([("i", S, T, 1)], {"A": (F, (6,)), "B": (F, (6,))},
                                            [("2.0 * a + 1.0", {"a": ("A", [i])},
                                              [("B", [i], None)])]),
                          {"S": s, "T": t}, {"A": _uniform(6), "B": _uniform(6)})
       for what, s, t in (("empty", 3, 2), ("one_point", 4, 4))},
    **{f"launch_2d_{what}": (lambda: map_graph([("i", S, T, 1), ("j", 0, 4, 1)],
                                               {"A": (F, (4, 5)), "B": (F, (4, 5))},
                                               [("a * a", {"a": ("A", [i, Sym("j")])},
                                                 [("B", [i, Sym("j")], None)])]),
                             {"S": s, "T": t}, {"A": _uniform(4, 5), "B": _uniform(4, 5)})
       for what, s, t in (("empty", 2, 0), ("one_point", 1, 1))},
    # a map over one point holding an inner map over one point and a REDUCE
    "launch_nested_one_point": (lambda: nested_graph(
        [("i", S, T, 1), ("j", 0, 3, 1)], [("k", 0, 0, 1)],
        {"A": ((3, 1), False), "B": ((1, 4), False), "C": ((3, 4), False), "T": ((1,), True)},
        MATVEC, ("add", None, ("C", [i, Sym("j")], None))),
        {"S": 2, "T": 2}, {"A": _uniform(3, 1), "B": _uniform(1, 4), "C": _uniform(3, 4)}),
    "launch_nested_empty": (lambda: nested_graph(
        IJ[:1] + [("j", S, T, 1)], [("k", 0, 0, 1)],
        {"A": ((3, 1), False), "B": ((1, 4), False), "C": ((3, 4), False), "T": ((1,), True)},
        MATVEC, ("max", None, ("C", [i, Sym("j")], None))),
        {"S": 3, "T": 1}, {"A": _uniform(3, 1), "B": _uniform(1, 4), "C": _uniform(3, 4)}),
}


def _with_symbol(g: Sdfg) -> Sdfg:
    g.add_symbol("S", 0)
    return g


def record(name: str, reverse: bool, vectorize: bool) -> tuple[bytes, str | None]:
    """The record of one run of case ``name`` and its error text, if any."""
    build, bindings, inputs = CASES[name]
    g = build()
    assert not [d for d in g.validate() if d.severity == "error"]
    ctx = ExecContext(bindings=dict(bindings)).bind_inputs(copy.deepcopy(inputs))
    parts, error = [], None
    try:
        out = interpret(g, ctx, InterpOptions(reverse_maps=reverse, vectorize=vectorize))
    except InterpreterError as ex:
        error = f"{type(ex).__name__}: {ex}"
        parts.append(error.encode())
    else:
        for k in sorted(out):
            arr = np.ascontiguousarray(out[k])
            parts.append(f"{k}:{arr.dtype.str}:{arr.shape}:".encode() + arr.tobytes())
    parts.append(json.dumps(ctx.counters.as_dict(), sort_keys=True).encode())
    return b"\n".join(parts), error


def digest(name: str) -> tuple[str, str | None]:
    h, errors = hashlib.sha256(), set()
    for reverse in (False, True):
        for vectorize in (True, False):
            rec, error = record(name, reverse, vectorize)
            h.update(rec)
            errors.add(error)
    assert len(errors) == 1, errors
    return h.hexdigest()[:32], errors.pop()


PINNED = {
    "copy_from_offset": "c0f67038f1bc3a5b5be7758a11f3bc01",
    "copy_from_wcr": "d56a0cf4f2376bfb6aa2eaab8e0ce8e9",
    "copy_into_2d_wcr": "5167dbce3a2cec3aa016d48d404644bd",
    "copy_into_offset": "47d0f8d03905cfd8629ac49a2a112aa2",
    "copy_misfit_wcr": "f9ff19c098d4c112c8f1df2c9a03db67",
    "copy_point": "1da6dbcdfedde5be7c79f0bcb2ff5d69",
    "copy_strided_2d": "cb425b5203eb4ee18574e25b03bcf79f",
    "copy_write_oob": "1d6f0afda1d0309d4421daabf214405d",
    "launch_2d_empty": "1f6d8dc79f50e69350af80f20cb4eb19",
    "launch_2d_one_point": "64989127c62151f86ca6b3c771c6a9d8",
    "launch_empty": "2d6b08e7ea3952e301107337fabe6b44",
    "launch_nested_empty": "00bf104a223d14f986e520f98fd0208f",
    "launch_nested_one_point": "837ec819fc628733fde6e396c165a73f",
    "launch_one_point": "bc6ad7ae61158bd32536a1013f12be22",
    "matmul": "7660bdd2993581492db87866e2578764",
    "matmul_kept": "de50cce290a645abb8ef47e85b4ceaeb",
    "matmul_point": "9a19b690452d53d345c3218455fe565e",
    "matmul_read_b_oob": "5ced430c4a5e618976aa2b7217d9e476",
    "matmul_wcr": "2ec0aee213aa131ee46677df56e99e32",
    "matmul_write_oob": "574e43a1651ff668f216d2e70383d4d4",
    "matvec_offset_wcr": "500ef8f1742990763c72cf7437f4885b",
    "reduce_all_add": "74d1525b9a167d270d95311c80de7d44",
    "reduce_all_mul_point": "75fab34a4c3487a66719446291820c0d",
    "reduce_axis0_min": "44a3320c11aabbd9e5622419f2096ccd",
    "reduce_axis1_max": "da2bd497c29f95cb5a256eef57475368",
    "reduce_in_map": "0dc8023f6b2e8dd4300a7a81f0fe4e5e",
    "reduce_kept_add": "551943a4f79566a2baeb49bd27de884b",
    "reduce_misfit": "d4ebd56ad9e0a75c45b973fd9a517f34",
    "reduce_offset_mul": "2b7121082ebda86272099f168f9ed6ba",
    "reduce_point_misfit": "bfbf1eee278a0ab8d5c4c65a16dbfcac",
    "reduce_point_write_oob": "5062bf591645846b339ad082795bd0a9",
    "reduce_read_oob": "9d75db808bc45a68acb8209da25183d3",
    "reduce_wcr_max": "510f5926239f6e609c5b9d975a339c64",
    "reduce_wcr_scalar": "0f3e802dc88535ae37deffaf2c3fe4a5",
    "transpose": "18b73423e3da116d7423a193c3581bb2",
    "transpose_misfit": "10344c35bb57d7170e8c177b136a43de",
    "transpose_offset": "047c5dd69bb43147360460da34d420de",
    "transpose_write_oob": "81428ed28c2683f9e304cd7aa22840b7",
}

ERRORS = {
    'copy_misfit_wcr': "InterpreterError: copy of 6 elements from 'A' does not fit the (2,) elements of 'B' at node 1 in state 's0'",
    'copy_write_oob': "OutOfBoundsError: out-of-bounds access B[dim 0: 4..6] (extent 6) at node 1 in state 's0'",
    'matmul_read_b_oob': "OutOfBoundsError: out-of-bounds access B[dim 1: 1..4] (extent 4) at node 0 in state 's0'",
    'matmul_write_oob': "OutOfBoundsError: out-of-bounds access C[dim 0: 1..2] (extent 2) at node 0 in state 's0'",
    'reduce_misfit': "InterpreterError: reduce result of 3 elements does not fit the (2,) elements of 'B' at node 0 in state 's0'",
    'reduce_point_misfit': "InterpreterError: reduce result of 4 elements does not fit the (1,) elements of 'B' at node 0 in state 's0'",
    'reduce_point_write_oob': "OutOfBoundsError: out-of-bounds access B[dim 0: 4..4] (extent 4) at node 0 in state 's0'",
    'reduce_read_oob': "OutOfBoundsError: out-of-bounds access A[dim 0: 2..4] (extent 3) at node 0 in state 's0'",
    'transpose_misfit': "InterpreterError: transpose result of 6 elements does not fit the (2, 2) elements of 'B' at node 0 in state 's0'",
    'transpose_write_oob': "OutOfBoundsError: out-of-bounds access B[dim 1: -1..1] (extent 3) at node 0 in state 's0'",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_steps_pinned(name):
    got, error = digest(name)
    assert error == ERRORS.get(name)
    assert got == PINNED[name]


if __name__ == "__main__":
    table = {name: digest(name) for name in sorted(CASES)}
    print("PINNED = {")
    for name, (d, _) in table.items():
        print(f'    "{name}": "{d}",')
    print("}\n\nERRORS = {")
    for name, (_, error) in table.items():
        if error is not None:
            print(f"    {name!r}: {error!r},")
    print("}")
