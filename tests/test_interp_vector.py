"""The vector launch against the point-by-point reference path.

Every run here is made twice, with ``InterpOptions(vectorize=True)`` and
``vectorize=False``, and the two must agree bit for bit: outputs (dtype,
shape and bytes), transients, counters, and the error raised, if any.  The
corpus runs plain, optimized and JSON round-tripped in both map orders; the
hand-built graphs cover what the corpus does not (transposed reads,
strides, empty ranges, reductions over an inner parameter, folds, Python
integers stored into f64 data, an access out of bounds in the middle of a
launch, maps that hold an inner map and REDUCE nodes of each operator,
written containers read through subsets that never meet the write), and
maps that stay on the per-point path (int64 data, parameters and symbols as
values, inner maps that write part of a transient, use the outer
parameters in their ranges or read what the outer body writes, a
reduction whose result does not fit its output, and reads that may meet a
write)."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from conftest import ALL_KERNELS, KERNEL_SYMBOLS, compile_kernel, corpus_source, make_inputs
from sdfgkit import frontend, interp
from sdfgkit.autoopt import auto_optimize, specialize
from sdfgkit.interp import (
    ExecContext, InterpOptions, InterpreterError, Machine, OutOfBoundsError,
)
from sdfgkit.ir import (
    AccessNode, DType, LibKind, LibraryNode, Meet, MapEntry, MapExit, Memlet, Sdfg, Tasklet,
    Wcr, meet,
)
from sdfgkit.serialize import deserialize, serialize
from sdfgkit.symbolic import Const, Sym, SubsetRange, as_expr
from sdfgkit.texpr import parse_texpr


def run(g, bindings, inputs, reverse=False, vectorize=True):
    """``(error, store, counters, machine)`` of one run; ``error`` is the
    type and message of the ``InterpreterError`` raised, or None."""
    ctx = ExecContext(bindings=dict(bindings)).bind_inputs(copy.deepcopy(inputs))
    m = Machine(g, ctx, InterpOptions(reverse_maps=reverse, vectorize=vectorize))
    error = None
    try:
        for _ in m.run():
            raise AssertionError("no communication expected")
    except InterpreterError as ex:
        error = (type(ex), str(ex))
    return error, {k: v.copy() for k, v in m.store.items()}, ctx.counters.as_dict(), m


def assert_same(g, bindings, inputs, reverse=False):
    """Run both paths; they must agree bit for bit.  Returns the vector run."""
    vec = run(g, bindings, inputs, reverse, vectorize=True)
    ref = run(g, bindings, inputs, reverse, vectorize=False)
    assert vec[0] == ref[0]
    assert vec[2] == ref[2]
    assert vec[1].keys() == ref[1].keys()
    for name, want in ref[1].items():
        got = vec[1][name]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    return vec


def vector_maps(m: Machine) -> list[bool]:
    """For every map the machine planned: whether it has a vector launch."""
    return [mp.vector is not None for plan in m.program.plans.values()
            for mp in plan.maps.values()]


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_corpus_vector_equals_reference(name):
    symbols = KERNEL_SYMBOLS[name]
    inputs = make_inputs(frontend.parse(corpus_source(name)), symbols, seed=0)
    plain = compile_kernel(name)
    optimized = compile_kernel(name)
    auto_optimize(optimized)
    specialized = optimized.copy()
    specialize(specialized)
    for g in (plain, optimized, deserialize(serialize(optimized)), specialized):
        for reverse in (False, True):
            assert assert_same(g, symbols, inputs, reverse)[0] is None


# -- hand-built graphs -------------------------------------------------------------


def map_graph(params, arrays, tasklets, symbols=()) -> Sdfg:
    """One state with one sequential map.

    ``params`` holds ``(name, begin, end, stride)`` (ends inclusive);
    ``arrays`` maps a container to ``(dtype, shape)`` (``()`` for a scalar);
    each tasklet is ``(code, inputs, outputs)``: ``code`` computes the
    connector ``out`` (or maps each output connector to its code),
    ``inputs`` maps a connector to ``(container, index)`` and ``outputs`` is
    a list of ``(container, index, wcr)`` that receive ``out`` (or of
    ``(container, index, wcr, connector)``).  An index is a list of symbolic
    expressions, one per dimension.
    ``symbols`` names the symbols the code uses."""
    g = Sdfg("vector")
    for name, (dtype, shape) in arrays.items():
        if shape:
            g.add_array(name, dtype, tuple(Const(n) for n in shape))
        else:
            g.add_scalar(name, dtype)
    for name in {s for _, *r in params for x in r for s in as_expr(x).free_symbols()}.union(
            symbols):
        g.add_symbol(name, 0)
    st = g.add_state("s0", start=True)
    entry = st.add(MapEntry(tuple((p, tuple(as_expr(x) for x in r)) for p, *r in params)))
    exit_ = st.add(MapExit(entry))
    fed, drained = set(), set()
    for j, (code, ins, outs) in enumerate(tasklets):
        code = code if isinstance(code, dict) else {"out": code}
        t = st.add(Tasklet(f"t{j}", tuple(ins), tuple(code),
                           tuple((c, parse_texpr(x)) for c, x in code.items())))
        if not ins:
            st.add_edge(entry, t)
        for conn, (name, index) in ins.items():
            full = g.containers[name].full_subset()
            if name not in fed:
                fed.add(name)
                st.add_edge(st.add(AccessNode(name)), entry, Memlet(name, full),
                            dst_conn=f"IN_{name}")
            st.add_edge(entry, t, Memlet(name, SubsetRange.point(index)),
                        src_conn=f"OUT_{name}", dst_conn=conn)
        for name, index, wcr, *conn in outs:
            full = g.containers[name].full_subset()
            st.add_edge(t, exit_, Memlet(name, SubsetRange.point(index), wcr),
                        src_conn=(conn or ["out"])[0], dst_conn=f"IN_{name}")
            if name not in drained:
                drained.add(name)
                st.add_edge(exit_, st.add(AccessNode(name)), Memlet(name, full, wcr),
                            src_conn=f"OUT_{name}")
    assert not [d for d in g.validate() if d.severity == "error"]
    return g


i, j, k, n = Sym("i"), Sym("j"), Sym("k"), Sym("N")
F, I64 = DType.F64, DType.I64
RNG = np.random.default_rng(11)

CASES = {
    # B[i, j] = 2 A[j, i] + 1: a transposed read
    "transposed": (
        [("i", 0, 3, 1), ("j", 0, 2, 1)],
        {"A": (F, (3, 4)), "B": (F, (4, 3))},
        [("in0 * 2.0 + 1.0", {"in0": ("A", [j, i])}, [("B", [i, j], None)])],
        {}, {"A": RNG.uniform(-1, 1, (3, 4)), "B": np.zeros((4, 3))}),
    # every third point, with a shifted read: B[i] = A[i] - A[i - 1]
    "strided": (
        [("i", 1, 9, 3)],
        {"A": (F, (10,)), "B": (F, (10,))},
        [("a - b", {"a": ("A", [i]), "b": ("A", [i - 1])}, [("B", [i], None)])],
        {}, {"A": RNG.uniform(-1, 1, 10), "B": np.zeros(10)}),
    # a strided 2-D map over a symbolic extent
    "strided_2d": (
        [("i", 0, n - 1, 2), ("j", 1, n - 1, 3)],
        {"A": (F, (7, 7)), "B": (F, (7, 7))},
        [("x * y", {"x": ("A", [i, j]), "y": ("A", [j, i])}, [("B", [j, i], None)])],
        {"N": 7}, {"A": RNG.uniform(-1, 1, (7, 7)), "B": np.zeros((7, 7))}),
    # no point at all
    "empty": (
        [("i", 0, n - 1, 1), ("j", 0, 3, 1)],
        {"A": (F, (4, 4)), "B": (F, (4, 4))},
        [("x + 1.0", {"x": ("A", [j, i])}, [("B", [i, j], None)])],
        {"N": 0}, {"A": np.ones((4, 4)), "B": np.zeros((4, 4))}),
    # C[i, k] += A[i, j, k] * x[j]: a reduction over the middle parameter
    "wcr_middle": (
        [("i", 0, 2, 1), ("j", 0, 4, 1), ("k", 0, 3, 1)],
        {"A": (F, (3, 5, 4)), "x": (F, (5,)), "C": (F, (3, 4))},
        [("a * b", {"a": ("A", [i, j, k]), "b": ("x", [j])}, [("C", [i, k], Wcr.ADD)])],
        {}, {"A": RNG.uniform(-1, 1, (3, 5, 4)), "x": RNG.uniform(-1, 1, 5),
             "C": RNG.uniform(-1, 1, (3, 4))}),
    # a maximum over every point into a scalar
    "wcr_scalar_max": (
        [("i", 0, 5, 1), ("j", 0, 2, 1)],
        {"A": (F, (6, 3)), "s": (F, ())},
        [("a - 0.5", {"a": ("A", [i, j])}, [("s", [], Wcr.MAX)])],
        {}, {"A": RNG.uniform(-1, 1, (6, 3)), "s": -5.0}),
    # c = c + x over a 2-D map: a sequential fold
    "fold": (
        [("i", 0, 3, 1), ("j", 0, 4, 1)],
        {"A": (F, (4, 5)), "c": (F, ())},
        [("c + x * 3.0", {"c": ("c", []), "x": ("A", [i, j])}, [("c", [], None)])],
        {}, {"A": RNG.uniform(-1, 1, (4, 5)), "c": 0.125}),
    # c = x * c with the scalar on the right
    "fold_mul": (
        [("i", 0, 6, 1)],
        {"A": (F, (7,)), "c": (F, ())},
        [("x * c", {"c": ("c", []), "x": ("A", [i])}, [("c", [], None)])],
        {}, {"A": RNG.uniform(0.5, 1.5, 7), "c": 1.5}),
    # c = c + 1: a fold of a Python integer
    "fold_int": (
        [("i", 0, 4, 1), ("j", 0, 1, 1)],
        {"c": (F, ())},
        [("c + 1", {"c": ("c", [])}, [("c", [], None)])],
        {}, {"c": 0.5}),
    # 2**53 + 1 is stored as 2**53, so t - 2**53 reads 0 on both paths
    "int_rounded_by_store": (
        [("i", 0, 3, 1)],
        {"t": (F, ()), "A": (F, (4,)), "B": (F, (4,)), "C": (F, (4,))},
        [("9007199254740993", {}, [("t", [], None)]),
         ("t - 9007199254740992 + a", {"t": ("t", []), "a": ("A", [i])}, [("B", [i], None)]),
         ("7 * 3", {}, [("C", [i], Wcr.ADD)])],
        {}, {"t": 0.0, "A": RNG.uniform(-1, 1, 4), "B": np.zeros(4), "C": np.ones(4)}),
    # an in-place update: A[i] = A[i] * 2, then B[i] reads the new A[i]
    "in_place": (
        [("i", 0, 4, 1)],
        {"A": (F, (5,)), "B": (F, (5,))},
        [("a * 2.0", {"a": ("A", [i])}, [("A", [i], None)]),
         ("a + 1.0", {"a": ("A", [i])}, [("B", [i], None)])],
        {}, {"A": RNG.uniform(-1, 1, 5), "B": np.zeros(5)}),
    # one tasklet stores 2 A[i] into A and the old A[i] into B
    "in_place_two_outputs": (
        [("i", 0, 4, 1)],
        {"A": (F, (5,)), "B": (F, (5,))},
        [({"x": "a * 2.0", "y": "a"}, {"a": ("A", [i])},
          [("A", [i], None, "x"), ("B", [i], None, "y")])],
        {}, {"A": RNG.uniform(-1, 1, 5), "B": np.zeros(5)}),
    # A[i, N - 2] is A[i, -1] for N = 1, out of bounds at the first point
    "out_of_bounds_negative": (
        [("i", 0, 3, 1)],
        {"A": (F, (4, 3)), "B": (F, (4,))},
        [("a", {"a": ("A", [i, n - 2])}, [("B", [i], None)])],
        {"N": 1}, {"A": RNG.uniform(-1, 1, (4, 3)), "B": np.zeros(4)}),
    # A[i + 2] runs past the end of A at the third point from the end
    "out_of_bounds": (
        [("i", 0, n - 1, 1)],
        {"A": (F, (8,)), "B": (F, (8,))},
        [("a + b", {"a": ("A", [i]), "b": ("A", [i + 2])}, [("B", [i], None)])],
        {"N": 8}, {"A": RNG.uniform(-1, 1, 8), "B": np.zeros(8)}),
}


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("case", sorted(CASES))
def test_hand_built_vector_equals_reference(case, reverse):
    params, arrays, tasklets, bindings, inputs = CASES[case]
    g = map_graph(params, arrays, tasklets, bindings)
    error, _, counters, m = assert_same(g, bindings, inputs, reverse)
    assert vector_maps(m) == [True]
    if case == "out_of_bounds":
        # the first point out of bounds: i = 6 in order (the 7th point), i = 7
        # in reverse (the first)
        assert error[0] is OutOfBoundsError
        assert ("A[dim 0: 9..9]" if reverse else "A[dim 0: 8..8]") in error[1]
        assert counters["map_iterations"] == (1 if reverse else 7)
    elif case == "out_of_bounds_negative":
        assert error[0] is OutOfBoundsError and "A[dim 1: -1..-1]" in error[1]
    else:
        assert error is None


def test_out_of_bounds_keeps_the_reference_stores():
    params, arrays, tasklets, bindings, inputs = CASES["out_of_bounds"]
    _, store, _, _ = run(map_graph(params, arrays, tasklets, bindings), bindings, inputs)
    a = inputs["A"]
    assert np.array_equal(store["B"][:6], a[:6] + a[2:])
    assert not store["B"][6:].any()


NOT_VECTOR = {
    # a call stays on the scalar path
    "call": ("sqrt(a)", {"a": ("A", [i])}, [("B", [i], None)]),
    # two parameters in one dimension
    "diagonal_sum": ("a", {"a": ("A", [i + i])}, [("B", [i], None)]),
    # a map parameter as a value
    "parameter_value": ("1 / (i + 1)", {}, [("B", [i], None)]),
    # a symbol as a value
    "symbol_value": ("a * N", {"a": ("A", [i])}, [("B", [i], None)]),
    # a write that other accesses see through another subset
    "shifted_update": ("a", {"a": ("B", [i + 1])}, [("B", [i], None)]),
}


@pytest.mark.parametrize("case", sorted(NOT_VECTOR))
def test_map_that_does_not_qualify_runs_point_by_point(case):
    arrays = {"A": (F, (12,)), "B": (F, (12,))}
    g = map_graph([("i", 0, 4, 1)], arrays, [NOT_VECTOR[case]], ["N"])
    inputs = {"A": RNG.uniform(0.5, 1.5, 12), "B": RNG.uniform(0.5, 1.5, 12)}
    _, _, _, m = assert_same(g, {"N": 3}, inputs)
    assert vector_maps(m) == [False]


# -- writes that other accesses of the container never meet -------------------------

# a map over i in 0..4 with the symbols j and M, which index no parameter
MEET_ARRAYS = {"P": (F, (6, 6)), "B": (F, (6,))}
MEET_INPUTS = {"P": RNG.uniform(0.5, 1.5, (6, 6)), "B": np.zeros(6)}

NEVER_MEET = {
    # P[i, j] = P[i, j - 1] / 2 + 1: each column from the one before (adi's sweep)
    "column": [("a * 0.5 + 1.0", {"a": ("P", [i, j - 1])}, [("P", [i, j], None)])],
    # a row from the rows above and below
    "row": [("a - b", {"a": ("P", [j + 1, i]), "b": ("P", [j - 1, i])}, [("P", [j, i], None)])],
    # a later tasklet reads the new P[i, j] back, and the next column's old values
    "column_read_back": [
        ("a * 0.5 + 1.0", {"a": ("P", [i, j - 1])}, [("P", [i, j], None)]),
        ("a + b", {"a": ("P", [i, j]), "b": ("P", [i, j + 1])}, [("B", [i], None)])],
    # an in-place update, then a read of the column before it
    "in_place_then_column": [
        ("a * 3.0", {"a": ("P", [i, j])}, [("P", [i, j], None)]),
        ("a - b", {"a": ("P", [i, j - 1]), "b": ("P", [i, j])}, [("B", [i], None)])],
}

MAY_MEET = {
    # P[i, j] from P[i + 1, j], which the next point writes (as NOT_VECTOR's
    # shifted_update in one dimension)
    "parameter_offset": [("a", {"a": ("P", [i + 1, j])}, [("P", [i, j], None)])],
    # P[i, j] from P[i, M]: one column when M = j
    "symbolic_offset": [("a + 1.0", {"a": ("P", [i, Sym("M")])}, [("P", [i, j], None)])],
    # P[i, j] from P[i, 2]: one column when j = 2
    "pinned_constant": [("a + 1.0", {"a": ("P", [i, 2])}, [("P", [i, j], None)])],
}


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("at", [1, 2, 4])
@pytest.mark.parametrize("case", sorted(NEVER_MEET))
def test_reads_that_never_meet_the_write_run_vectorized(case, at, reverse):
    """A written container read through subsets that never meet the write
    (:func:`ir.meet`) runs as one launch; those reads see the values from
    before the launch, as on the per-point path."""
    g = map_graph([("i", 0, 4, 1)], MEET_ARRAYS, NEVER_MEET[case], ["j", "M"])
    error, _, _, mach = assert_same(g, {"j": at, "M": 3}, MEET_INPUTS, reverse)
    assert error is None
    assert vector_maps(mach) == [True]


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("at", [2, 3])
@pytest.mark.parametrize("case", sorted(MAY_MEET))
def test_reads_that_may_meet_the_write_run_point_by_point(case, at, reverse):
    g = map_graph([("i", 0, 4, 1)], MEET_ARRAYS, MAY_MEET[case], ["j", "M"])
    error, _, _, mach = assert_same(g, {"j": at, "M": 3}, MEET_INPUTS, reverse)
    assert error is None
    assert vector_maps(mach) == [False]


def _index(draw, at=None):
    """A two-dimensional point index, each dimension ``i + a``, ``j + b`` or
    a constant, ``i`` in at most one; ``i`` in dimension ``at`` when given."""
    out = []
    for d in range(2):
        taken = at is not None or any("i" in x.free_symbols() for x in out)
        kinds = ["i"] if d == at else ["j", "c"] if taken else ["i", "j", "c"]
        kind = draw(hst.sampled_from(kinds))
        if kind == "i":
            out.append(i + draw(hst.integers(0, 1)))
        elif kind == "j":
            out.append(j + draw(hst.integers(-2, 2)))
        else:
            out.append(Const(draw(hst.integers(0, 5))))
    return out


@hst.composite
def meet_maps(draw):
    """``(tasklets, write, reads)``: a tasklet that writes ``P[write]`` from
    two reads of P, each the write's subset or another, and maybe one more
    that reads ``P[write]`` back and a third subset into B."""
    write = _index(draw, draw(hst.integers(0, 1)))
    reads = [write if draw(hst.booleans()) else _index(draw) for _ in range(2)]
    tasklets = [("a * 0.5 + b * 0.25 + 1.0", {"a": ("P", reads[0]), "b": ("P", reads[1])},
                 [("P", write, None)])]
    if draw(hst.booleans()):
        reads.append(_index(draw))
        tasklets.append(("c - d", {"c": ("P", write), "d": ("P", reads[2])},
                         [("B", [i], None)]))
    return tasklets, write, reads


@settings(max_examples=60, deadline=None)
@given(meet_maps(), hst.integers(2, 3), hst.booleans())
def test_admitted_maps_equal_the_reference(case, at, reverse):
    """Over generated pairs of affine subsets, a map runs as one launch
    exactly when every read of P is the write's subset or never meets it,
    and every launch agrees bit for bit with the per-point path."""
    tasklets, write, reads = case
    g = map_graph([("i", 0, 4, 1)], MEET_ARRAYS, tasklets, ["j", "M"])
    error, _, _, mach = assert_same(g, {"j": at, "M": 3}, MEET_INPUTS, reverse)
    assert error is None
    w = SubsetRange.point(write)
    admitted = all(r == write or meet({"i"}, w, SubsetRange.point(r)) is Meet.NEVER
                   for r in reads)
    assert vector_maps(mach) == [admitted]


SCALAR_CASES = {
    # int64 data, a map parameter and a symbol as values, an int division
    "int64": (
        [("i", 0, 5, 1)],
        {"A": (I64, (6,)), "B": (I64, (6,)), "C": (F, (6,)), "D": (F, (6,))},
        [("a * 3 - i + N", {"a": ("A", [i])}, [("B", [i], None)]),
         ("a / 4", {"a": ("A", [i])}, [("C", [i], None)]),
         ("i * i - 2", {}, [("D", [i], None)])],
        {"N": 9}, {"A": np.arange(-3, 3, dtype=np.int64), "B": np.zeros(6, np.int64),
                   "C": np.zeros(6), "D": np.zeros(6)}),
    # int64 reduction and fold
    "int64_wcr": (
        [("i", 0, 3, 1), ("j", 0, 2, 1)],
        {"A": (I64, (4, 3)), "B": (I64, (3,)), "c": (I64, ())},
        [("a * 2", {"a": ("A", [i, j])}, [("B", [j], Wcr.ADD)]),
         ("c + a", {"c": ("c", []), "a": ("A", [i, j])}, [("c", [], None)])],
        {}, {"A": np.arange(12, dtype=np.int64).reshape(4, 3), "B": np.ones(3, np.int64),
             "c": np.int64(5)}),
    # i N**3 is beyond int64 for N = 3e6: exact Python integers, rounded by the store
    "large_symbol": (
        [("i", 0, 4, 1)],
        {"B": (F, (5,))},
        [("i * N * N * N", {}, [("B", [i], None)])],
        {"N": 3_000_000}, {"B": np.zeros(5)}),
}


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("case", sorted(SCALAR_CASES))
def test_scalar_case_equals_reference(case, reverse):
    """Maps with int64 data or parameter or symbol values run point by point
    whether vectorizing is on or off."""
    params, arrays, tasklets, bindings, inputs = SCALAR_CASES[case]
    g = map_graph(params, arrays, tasklets, bindings)
    error, _, _, m = assert_same(g, bindings, inputs, reverse)
    assert error is None
    assert vector_maps(m) == [False]


# -- maps that hold an inner map and a reduction -----------------------------------


def nested_graph(outer, inner, arrays, inner_tasklet, reduce, tail=None) -> Sdfg:
    """One state with a map that holds an inner map, which writes a
    transient, and a REDUCE node that reads it, as the optimizer leaves
    doitgen.

    ``outer`` and ``inner`` hold ``(name, begin, end, stride)``; ``arrays``
    maps a container to ``(shape, transient)`` (all f64);
    ``inner_tasklet`` is ``(code, inputs, (container, index))``, ``inputs``
    mapping a connector to ``(container, index)``; ``reduce`` is ``(op,
    axes, (container, index, wcr))``, the REDUCE node's attributes and its
    output.  ``tail`` is an optional tasklet ``(code, inputs, (container,
    index))`` after the REDUCE node, in the outer map."""
    g = Sdfg("nested")
    for name, (shape, transient) in arrays.items():
        g.add_array(name, F, tuple(as_expr(x) for x in shape), transient=transient)
    used = [x for _, *r in outer + inner for x in r] + [
        x for shape, _ in arrays.values() for x in shape]
    for name in {s for x in used for s in as_expr(x).free_symbols()} - {p for p, *_ in outer}:
        g.add_symbol(name, 0)
    st = g.add_state("s0", start=True)

    def scope(params):
        entry = st.add(MapEntry(tuple((p, tuple(as_expr(x) for x in r)) for p, *r in params)))
        return entry, st.add(MapExit(entry))

    def full(name, wcr=None):
        return Memlet(name, g.containers[name].full_subset(), wcr)

    def point(name, index, wcr=None):
        return Memlet(name, SubsetRange.point(index), wcr)

    entry, exit_ = scope(outer)
    ientry, iexit = scope(inner)
    fed = set()

    def feed(name, into):
        if name not in fed:
            fed.add(name)
            st.add_edge(st.add(AccessNode(name)), entry, full(name), dst_conn=f"IN_{name}")
        if into is not entry:
            st.add_edge(entry, into, full(name), src_conn=f"OUT_{name}", dst_conn=f"IN_{name}")

    def tasklet(name, code, ins, src, local=None):
        """A tasklet fed from ``src``, except for ``local``'s container,
        read from that access node."""
        t = st.add(Tasklet(name, tuple(ins), ("out",), (("out", parse_texpr(code)),)))
        for conn, (c, index) in ins.items():
            if local is not None and c == local.container:
                st.add_edge(local, t, point(c, index), dst_conn=conn)
                continue
            feed(c, src)
            st.add_edge(src, t, point(c, index), src_conn=f"OUT_{c}", dst_conn=conn)
        return t

    code, ins, (tname, tindex) = inner_tasklet
    t = tasklet("inner", code, ins, ientry)
    st.add_edge(t, iexit, point(tname, tindex), src_conn="out", dst_conn=f"IN_{tname}")
    acc = st.add(AccessNode(tname))
    st.add_edge(iexit, acc, full(tname), src_conn=f"OUT_{tname}")
    op, axes, (oname, oindex, wcr) = reduce
    red = st.add(LibraryNode(LibKind.REDUCE, "reduce", {"op": op, "axes": axes}))
    st.add_edge(acc, red, full(tname), dst_conn="a")
    drained = {}
    if tail is None:
        st.add_edge(red, exit_, point(oname, oindex, wcr), src_conn="out", dst_conn=f"IN_{oname}")
        drained[oname] = wcr
    else:
        result = st.add(AccessNode(oname))
        st.add_edge(red, result, point(oname, oindex, wcr), src_conn="out")
        code, ins, (cname, cindex) = tail
        t = tasklet("tail", code, ins, entry, result)
        st.add_edge(t, exit_, point(cname, cindex), src_conn="out", dst_conn=f"IN_{cname}")
        drained[cname] = None
    for name, w in drained.items():
        st.add_edge(exit_, st.add(AccessNode(name)), full(name, w), src_conn=f"OUT_{name}")
    errors = [d for d in g.validate() if d.severity == "error"]
    assert not errors, errors
    return g


NK = 12  # a reduced axis of 8 or more elements: numpy sums those pairwise
NESTED_ARRAYS = {"A": ((3, n), False), "B": ((n, 4), False), "C": ((3, 4), False),
                 "T": ((n,), True)}
NESTED_INPUTS = {"A": RNG.uniform(0.5, 1.5, (3, NK)), "B": RNG.uniform(0.5, 1.5, (NK, 4)),
                 "C": RNG.uniform(-1, 1, (3, 4)), "D": RNG.uniform(-1, 1, (3, 4, 3))}
MATVEC = ("a * b", {"a": ("A", [i, k]), "b": ("B", [k, j])}, ("T", [k]))
IJ = [("i", 0, 2, 1), ("j", 0, 3, 1)]
K = [("k", 0, n - 1, 1)]

NESTED = {
    # C[i, j] = OP over k of A[i, k] B[k, j], for each reduction
    **{f"reduce_{op}": (IJ, K, NESTED_ARRAYS, MATVEC, (op, None, ("C", [i, j], None)), None)
       for op in ("add", "mul", "min", "max")},
    # the reduction lands in a scalar transient that a tasklet then reads
    "reduce_into_temp": (
        IJ, K, {**NESTED_ARRAYS, "s": ((), True)}, MATVEC, ("add", None, ("s", [], None)),
        ("x * 2.0 - c", {"x": ("s", []), "c": ("A", [i, j])}, ("C", [i, j]))),
    # a sum over j of the reductions, through WCR
    "reduce_wcr": (IJ, K, NESTED_ARRAYS, MATVEC, ("add", [0], ("C", [i, 0], Wcr.ADD)), None),
    # an inner map over two parameters, reduced over both
    "inner_2d": (
        [("i", 0, 2, 1)], [("k", 0, 3, 1), ("l", 0, 2, 1)],
        {"D": ((3, 4, 3), False), "C": ((3, 4), False), "T": ((4, 3), True)},
        ("a * a + 1.0", {"a": ("D", [i, k, Sym("l")])}, ("T", [k, Sym("l")])),
        ("add", None, ("C", [i, 0], None)), None),
    # only the last axis is reduced; the first has extent 1
    "keeps_unit_axis": (
        [("i", 0, 2, 1)], [("z", 0, 0, 1), ("k", 0, n - 1, 1)],
        {"A": ((3, n), False), "C": ((3, 4), False), "T": ((1, n), True)},
        ("a - 0.25", {"a": ("A", [i, k])}, ("T", [Sym("z"), k])),
        ("max", [1], ("C", [i, 1], None)), None),
}

NESTED_PER_POINT = {
    # the inner map leaves T[N - 1] as the previous point wrote it
    "partial_write": (IJ, [("k", 0, n - 2, 1)], NESTED_ARRAYS, MATVEC,
                      ("add", None, ("C", [i, j], None)), None),
    # a triangular inner range
    "inner_range_uses_outer": (IJ, [("k", 0, i, 1)], NESTED_ARRAYS, MATVEC,
                               ("add", None, ("C", [i, j], None)), None),
    # a range that names the map's parameter, though it covers T
    "inner_range_names_outer": (IJ, [("k", i - i, n - 1, 1)], NESTED_ARRAYS, MATVEC,
                                ("add", None, ("C", [i, j], None)), None),
    # the inner map reads C[i, j], which the reduction then writes
    "inner_reads_output": (
        IJ, K, NESTED_ARRAYS,
        ("a * c", {"a": ("A", [i, k]), "c": ("C", [i, j])}, ("T", [k])),
        ("add", None, ("C", [i, j], None)), None),
    # a result of N elements does not fit the one element of C[i, j]
    "result_does_not_fit": (
        [("i", 0, 2, 1)], [("k", 0, n - 1, 1), ("l", 0, 1, 1)],
        {"A": ((3, n), False), "C": ((3, 4), False), "T": ((n, 2), True)},
        ("a", {"a": ("A", [i, k])}, ("T", [k, Sym("l")])),
        ("add", [1], ("C", [i, 0], None)), None),
}


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("case", sorted(NESTED))
def test_nested_vector_equals_reference(case, reverse):
    """A map holding an inner map and a REDUCE node runs as one launch, bit
    for bit as point by point: outputs, the transient and counters."""
    g = nested_graph(*NESTED[case])
    error, _, _, m = assert_same(g, {"N": NK}, NESTED_INPUTS, reverse)
    assert error is None
    assert vector_maps(m) == [True]  # the inner map was never planned


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("case", sorted(NESTED_PER_POINT))
def test_nested_map_that_does_not_qualify_runs_point_by_point(case, reverse):
    g = nested_graph(*NESTED_PER_POINT[case])
    error, _, _, m = assert_same(g, {"N": NK}, NESTED_INPUTS, reverse)
    assert vector_maps(m)[0] is False
    if case == "result_does_not_fit":
        assert error[0] is InterpreterError and "does not fit" in error[1]
    else:
        assert error is None


def test_nested_out_of_bounds_falls_back():
    """A nested launch whose bounds check fails stores nothing, and the
    per-point path raises its own error."""
    reads_past_end = ("a * b", {"a": ("A", [i, k + 1]), "b": ("B", [k, j])}, ("T", [k]))
    g = nested_graph(IJ, K, NESTED_ARRAYS, reads_past_end, ("add", None, ("C", [i, j], None)))
    for reverse in (False, True):
        error, _, _, m = assert_same(g, {"N": NK}, NESTED_INPUTS, reverse)
        assert error[0] is OutOfBoundsError
        assert vector_maps(m) == [True, True]


def test_nested_grid_over_the_limit_falls_back(monkeypatch):
    """A nested launch whose grid has more elements than the interpreter
    allocates for intermediates runs point by point."""
    monkeypatch.setattr(interp, "_GRID_LIMIT", 3 * 4 * NK - 1)
    g = nested_graph(*NESTED["reduce_add"])
    for reverse in (False, True):
        error, _, _, m = assert_same(g, {"N": NK}, NESTED_INPUTS, reverse)
        assert error is None
        assert vector_maps(m) == [True, True]


MEDIUM = {
    "gemm": {"NI": 20, "NJ": 20, "NK": 20},
    "k3mm": {"NI": 12, "NJ": 12, "NK": 12, "NM": 12, "NL": 12},
    "atax": {"M": 48, "N": 48},
    "jacobi_2d": {"N": 24, "TSTEPS": 4},
}


@pytest.mark.parametrize("name", sorted(MEDIUM))
def test_fast_path_fires(name, monkeypatch):
    """With the per-point loop failing for every map that has a vector
    launch, the optimized kernel still runs at medium extents: each of those
    launches ran vectorized.  Only maps with a nested map that does not
    qualify (here the tile maps of expanded matmuls) lack one.  The graph is
    specialized as for C, so expanded matmuls are covered."""
    symbols = MEDIUM[name]
    inputs = make_inputs(frontend.parse(corpus_source(name)), symbols, seed=0)
    g = compile_kernel(name)
    auto_optimize(g)
    specialize(g)
    ref = run(g, symbols, inputs, vectorize=False)
    points = Machine._run_points

    def scalar_only(self, launch, env):
        assert launch.vector is None, "a vector launch fell back to the per-point loop"
        return points(self, launch, env)

    monkeypatch.setattr(Machine, "_run_points", scalar_only)
    error, store, counters, m = run(g, symbols, inputs)
    assert error is None and counters == ref[2]
    assert all(store[k].tobytes() == ref[1][k].tobytes() for k in store)
    nested = {(st.label, scope.nid): any(isinstance(x, MapEntry) for x in members)
              for st in g.states for scope, members in st.facts().scopes.items()
              if scope is not None}
    planned = {(plan.label, nid): mp.vector is not None
               for plan in m.program.plans.values() for nid, mp in plan.maps.items()}
    assert all(vector or nested[key] for key, vector in planned.items())
    assert any(planned.values())


def test_doitgen_runs_one_launch(monkeypatch):
    """Optimized doitgen's map over (r, q, p) holds an inner map over the
    summed axis and a REDUCE node; it runs as one vector launch, so no map
    runs point by point, and the counters are the per-point path's."""
    symbols = {"NR": 6, "NQ": 8, "NP": 12}
    inputs = make_inputs(frontend.parse(corpus_source("doitgen")), symbols, seed=0)
    g = compile_kernel("doitgen")
    auto_optimize(g)
    refs = [run(g, symbols, inputs, reverse, vectorize=False) for reverse in (False, True)]

    def no_points(self, launch, env):
        raise AssertionError("a map ran point by point")

    monkeypatch.setattr(Machine, "_run_points", no_points)
    for reverse, ref in zip((False, True), refs):
        error, store, counters, m = run(g, symbols, inputs, reverse)
        assert error is None and counters == ref[2]
        assert counters["map_iterations"] == 576 + 6912 and counters["bytes_moved"] == 225_792
        assert all(store[k].tobytes() == ref[1][k].tobytes() for k in store)
        assert vector_maps(m) == [True]


@pytest.mark.parametrize("size", [8, 16])
def test_adi_runs_no_map_point_by_point(size, monkeypatch):
    """Optimized adi's sweeps over j hold maps that write one column or row
    of p, q, u or v and read the one before it.  Each of those maps runs as
    one vector launch, so no map runs point by point, and outputs and
    counters are the per-point path's."""
    symbols = {"N": size, "TSTEPS": 2}
    inputs = make_inputs(frontend.parse(corpus_source("adi")), symbols, seed=0)
    g = compile_kernel("adi")
    auto_optimize(g)
    refs = [run(g, symbols, inputs, reverse, vectorize=False) for reverse in (False, True)]

    def no_points(self, launch, env):
        raise AssertionError("a map ran point by point")

    monkeypatch.setattr(Machine, "_run_points", no_points)
    for reverse, ref in zip((False, True), refs):
        error, store, counters, mach = run(g, symbols, inputs, reverse)
        assert error is None and counters == ref[2]
        assert all(store[k].tobytes() == ref[1][k].tobytes() for k in store)
        assert all(vector_maps(mach))
