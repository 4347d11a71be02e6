"""Interpreter paths the corpus does not reach: nested graphs, copies
between access nodes, and malformed graphs that ``validate`` accepts."""

import numpy as np
import pytest

from conftest import KERNEL_SYMBOLS, compile_kernel, corpus_source, make_inputs
from sdfgkit import frontend, interp
from sdfgkit.autoopt import auto_optimize
from sdfgkit.frontend import oracle
from sdfgkit.interp import (
    ExecContext, InterpOptions, InterpreterError, Machine, clear_programs, interpret,
)
from sdfgkit.ir import (
    AccessNode, DType, LibKind, LibraryNode, MapEntry, MapExit, Memlet, NestedSdfg, Sdfg,
    State, Tasklet,
)
from sdfgkit.symbolic import Const, Sym, SubsetRange
from sdfgkit.texpr import parse_texpr

CALLS = """
def axpy(X: f64[N], Y: f64[N], a: f64):
    Y[:] = a * X + Y

def main(A: f64[N, M], x: f64[M], y: f64[N], s: f64):
    for i in range(N):
        y[i] = 0.0
        for j in map[0:M]:
            y[i] += A[i, j] * x[j]
    axpy(y, y, s)
    for k in range(M):
        x[k] = x[k] * s
"""


@pytest.mark.parametrize("reverse", [False, True])
def test_nested_graph_matches_oracle(reverse):
    g, diags = frontend.compile_source(CALLS)
    assert g is not None and not [d for d in diags if d.severity == "error"]
    assert any(isinstance(n, NestedSdfg) for st in g.states for n in st.nodes.values())
    symbols = {"N": 5, "M": 3}
    rng = np.random.default_rng(7)
    inputs = {"A": rng.uniform(-1, 1, (5, 3)), "x": rng.uniform(-1, 1, 3),
              "y": rng.uniform(-1, 1, 5), "s": 1.5}
    ref = oracle.evaluate_program(frontend.parse(CALLS), symbols,
                                  {k: np.array(v, copy=True) for k, v in inputs.items()})
    ctx = ExecContext(bindings=dict(symbols)).bind_inputs(
        {k: np.array(v, copy=True) for k, v in inputs.items()})
    out = interpret(g, ctx, InterpOptions(reverse_maps=reverse))
    for name, want in ref.items():
        assert np.allclose(out[name], want, rtol=1e-12, atol=0), name


# ``main`` writes A only through two levels of calls.
NESTED_WRITE = """
def inner(Y: f64[N], c: f64):
    Y[0] = 5.0 * c

def outer(X: f64[N], c: f64):
    inner(X, c)

def main(A: f64[N], B: f64[N], c: f64):
    outer(A, c)
    B[:] = A + B
"""


def test_parameter_written_through_nested_calls():
    g, diags = frontend.compile_source(NESTED_WRITE)
    assert g is not None and not [d for d in diags if d.severity == "error"]
    assert not [d for d in g.validate() if d.severity == "error"]
    symbols = {"N": 4}
    rng = np.random.default_rng(5)
    inputs = {"A": rng.uniform(-1, 1, 4), "B": rng.uniform(-1, 1, 4), "c": 0.75}
    ref = oracle.evaluate_program(frontend.parse(NESTED_WRITE), symbols,
                                  {k: np.array(v, copy=True) for k, v in inputs.items()})
    ctx = ExecContext(bindings=dict(symbols)).bind_inputs(
        {k: np.array(v, copy=True) for k, v in inputs.items()})
    out = interpret(g, ctx)
    assert ref["A"][0] == 3.75
    for name, want in ref.items():
        assert np.array_equal(out[name], want), name


def _copy_graph(on_source: bool, sub: SubsetRange) -> Sdfg:
    """One state copying ``A`` (6 elements) into ``B`` (6 elements), with the
    memlet ``sub`` on ``A`` (``on_source``) or on ``B``."""
    g = Sdfg("copy")
    g.add_array("A", DType.F64, (Const(6),))
    g.add_array("B", DType.F64, (Const(6),))
    st = g.add_state("s0", start=True)
    a, b = st.add(AccessNode("A")), st.add(AccessNode("B"))
    st.add_edge(a, b, Memlet("A" if on_source else "B", sub))
    return g


@pytest.mark.parametrize("on_source", [True, False])
def test_access_to_access_copy(on_source):
    g = _copy_graph(on_source, SubsetRange.make([(0, 5, 1)]))
    assert not [d for d in g.validate() if d.severity == "error"]
    a = np.arange(6.0)
    ctx = ExecContext().bind_inputs({"A": a, "B": np.zeros(6)})
    out = interpret(g, ctx)
    assert np.array_equal(out["B"], a)
    assert np.array_equal(out["A"], a)
    # 6 elements read and 6 written, 8 bytes each
    assert ctx.counters.bytes_moved == 2 * 6 * 8


def _empty_input_graph() -> Sdfg:
    """``B[0] = A[1:1]``: a tasklet whose input subset holds no element."""
    g = Sdfg("empty")
    g.add_array("A", DType.F64, (Const(4),))
    g.add_array("B", DType.F64, (Const(4),))
    st = g.add_state("s0", start=True)
    a, b = st.add(AccessNode("A")), st.add(AccessNode("B"))
    t = st.add(Tasklet("t", ("x",), ("y",), (("y", parse_texpr("x")),)))
    st.add_edge(a, t, Memlet("A", SubsetRange.make([(1, 0, 1)])), None, "x")
    st.add_edge(t, b, Memlet("B", SubsetRange.point([0])), "y", None)
    return g


def _matmul_misfit_graph() -> Sdfg:
    """``C = A @ B`` with a 2x3 ``A`` and a 3x2 ``B``: the 2x2 product does not
    fit the 3x3 ``C``."""
    g = Sdfg("misfit_matmul")
    g.add_array("A", DType.F64, (Const(2), Const(3)))
    g.add_array("B", DType.F64, (Const(3), Const(2)))
    g.add_array("C", DType.F64, (Const(3), Const(3)))
    st = g.add_state("s0", start=True)
    node = st.add(LibraryNode(LibKind.MATMUL, "matmul"))
    for conn, name in (("a", "A"), ("b", "B")):
        acc = st.add(AccessNode(name))
        st.add_edge(acc, node, Memlet(name, g.containers[name].full_subset()), dst_conn=conn)
    st.add_edge(node, st.add(AccessNode("C")), Memlet("C", g.containers["C"].full_subset()),
                src_conn="out")
    return g


MALFORMED = {
    # the stride of A's subset is a symbol bound to 0
    "stride": (lambda: _copy_graph(True, SubsetRange.make([(0, 5, Sym("S"))])),
               {"S": 0}, "stride 0 < 1", "'A'"),
    "empty": (_empty_input_graph, {}, "empty subset", "'A'"),
    "misfit_source": (lambda: _copy_graph(True, SubsetRange.make([(0, 2, 1)])),
                      {}, "does not fit", "'B'"),
    "misfit_destination": (lambda: _copy_graph(False, SubsetRange.make([(0, 2, 1)])),
                           {}, "does not fit", "'B'"),
    "misfit_matmul": (_matmul_misfit_graph, {}, "does not fit", "'C'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_graph_raises_interpreter_error(case):
    build, bindings, what, container = MALFORMED[case]
    g = build()
    for name in bindings:
        g.add_symbol(name, 0)
    assert not [d for d in g.validate() if d.severity == "error"]
    shapes = {k: tuple(int(x.evaluate({})) for x in d.shape) for k, d in g.containers.items()}
    ctx = ExecContext(bindings=dict(bindings)).bind_inputs(
        {k: np.zeros(n) for k, n in shapes.items()})
    with pytest.raises(InterpreterError) as exc:
        interpret(g, ctx)
    assert what in str(exc.value) and container in str(exc.value)


LOOPED_CALL = """
def scale(X: f64[N], a: f64):
    X[:] = a * X

def main(A: f64[N], s: f64):
    for t in range(N):
        scale(A, s)
"""


@pytest.mark.parametrize("trips", [1, 4])
def test_nested_graph_validated_once_per_run(trips, monkeypatch):
    # from an empty table of programs, as every graph's first run
    clear_programs()
    g, diags = frontend.compile_source(LOOPED_CALL)
    assert g is not None and not [d for d in diags if d.severity == "error"]
    nested = [n.sdfg for st in g.states for n in st.nodes.values() if isinstance(n, NestedSdfg)]
    assert len(nested) == 1
    calls = []
    validate = Sdfg.validate
    monkeypatch.setattr(Sdfg, "validate",
                        lambda self, *facts: calls.append(self) or validate(self, *facts))
    a = np.arange(1.0, trips + 1.0)
    ctx = ExecContext(bindings={"N": trips}).bind_inputs({"A": a, "s": 2.0})
    out = interpret(g, ctx)
    assert np.array_equal(out["A"], a * 2.0 ** trips)
    assert [id(x) for x in calls] == [id(g), id(nested[0])]


def test_each_state_analysed_once_per_run(monkeypatch):
    # validation and planning share one snapshot of each state, and so do
    # the four launches of the nested graph (from an empty table of programs)
    clear_programs()
    g, _ = frontend.compile_source(LOOPED_CALL)
    nested = [n.sdfg for st in g.states for n in st.nodes.values() if isinstance(n, NestedSdfg)]
    calls = []
    topological = State.topological
    monkeypatch.setattr(State, "topological",
                        lambda self: calls.append(self) or topological(self))
    ctx = ExecContext(bindings={"N": 4}).bind_inputs({"A": np.ones(4), "s": 2.0})
    interpret(g, ctx)
    states = g.states + nested[0].states
    assert sorted(map(id, calls)) == sorted(map(id, states))


def test_nested_symbols_derived_once_per_run(monkeypatch):
    # the callee's free symbols are derived once for the whole run (plus once
    # inside the outer graph's own free symbols), not on each of its launches
    # (from an empty table of programs)
    clear_programs()
    g, _ = frontend.compile_source(LOOPED_CALL)
    callee = [n.sdfg for st in g.states for n in st.nodes.values()
              if isinstance(n, NestedSdfg)][0]
    calls = []
    free_symbols = Sdfg.free_symbols
    monkeypatch.setattr(Sdfg, "free_symbols",
                        lambda self: calls.append(self) or free_symbols(self))
    ctx = ExecContext(bindings={"N": 4}).bind_inputs({"A": np.ones(4), "s": 2.0})
    out = interpret(g, ctx)
    assert np.array_equal(out["A"], np.full(4, 16.0))
    assert [x is callee for x in calls].count(True) == 2
    assert [x is g for x in calls].count(True) == 1


@pytest.mark.parametrize("optimized, states, launches", [(False, 30, 24), (True, 9, 6)])
@pytest.mark.parametrize("reverse, vectorize", [(False, True), (True, True), (False, False)])
def test_state_and_map_entry_points(optimized, states, launches, reverse, vectorize,
                                    monkeypatch):
    # a run of ``states`` states takes one transition fewer, whether its
    # loops run inside their head's state function or state by state, and
    # whether the run plans or finds plans that a run made before: with the
    # budget at that count the run passes, with one less it raises.  With
    # vectorizing off every one of its ``launches`` map launches runs point
    # by point
    symbols = KERNEL_SYMBOLS["jacobi_1d"]
    inputs = make_inputs(frontend.parse(corpus_source("jacobi_1d")), symbols, seed=0)
    g = compile_kernel("jacobi_1d")
    if optimized:
        auto_optimize(g)

    def run(vectorize=vectorize):
        options = InterpOptions(reverse_maps=reverse, vectorize=vectorize)
        interpret(g.copy(), ExecContext(bindings=dict(symbols)).bind_inputs(inputs), options)

    def budgeted_run(budget: int) -> None:
        with monkeypatch.context() as patch:
            patch.setattr(interp, "MAX_TRANSITIONS", budget)
            run()

    for table in ("empty", "filled"):
        clear_programs()
        if table == "filled":
            run()
        budgeted_run(states - 1)
        with pytest.raises(InterpreterError) as exc:
            budgeted_run(states - 2)
        assert str(exc.value) == "transition budget exceeded (infinite loop?)"
    points = Machine._run_points
    calls = []
    monkeypatch.setattr(Machine, "_run_points",
                        lambda self, mp, env: calls.append(mp) or points(self, mp, env))
    run(vectorize=False)
    assert len(calls) == launches


def _nested_in_map_graph() -> Sdfg:
    """``B[i] = 2 * A[i] + i`` for i in 0..3, each point a launch of a
    nested graph inside a map, whose scope can therefore raise events."""
    inner = Sdfg("double")
    inner.add_symbol("k", 0)
    inner.add_array("X", DType.F64, (Const(1),))
    inner.add_array("Y", DType.F64, (Const(1),), transient=True)
    ist = inner.add_state("s0", start=True)
    t = ist.add(Tasklet("t", ("x",), ("y",), (("y", parse_texpr("2.0 * x + k")),)))
    ist.add_edge(ist.add(AccessNode("X")), t, Memlet("X", SubsetRange.point([0])), None, "x")
    ist.add_edge(t, ist.add(AccessNode("Y")), Memlet("Y", SubsetRange.point([0])), "y", None)
    g = Sdfg("outer")
    g.add_array("A", DType.F64, (Const(4),))
    g.add_array("B", DType.F64, (Const(4),))
    st = g.add_state("s0", start=True)
    entry = st.add(MapEntry((("i", (Const(0), Const(3), Const(1))),)))
    exit_ = st.add(MapExit(entry))
    call = st.add(NestedSdfg(inner, {"k": Sym("i")}))
    whole = SubsetRange.make([(0, 3, 1)])
    st.add_edge(st.add(AccessNode("A")), entry, Memlet("A", whole))
    st.add_edge(entry, call, Memlet("A", SubsetRange.point([Sym("i")])), dst_conn="X")
    st.add_edge(call, exit_, Memlet("B", SubsetRange.point([Sym("i")])), src_conn="Y")
    st.add_edge(exit_, st.add(AccessNode("B")), Memlet("B", whole))
    return g


@pytest.mark.parametrize("reverse", [False, True])
def test_nested_graph_inside_a_map(reverse):
    g = _nested_in_map_graph()
    assert not [d for d in g.validate() if d.severity == "error"]
    a = np.array([1.0, -2.0, 0.5, 3.0])
    ctx = ExecContext().bind_inputs({"A": a, "B": np.zeros(4)})
    out = interpret(g, ctx, InterpOptions(reverse_maps=reverse))
    assert np.array_equal(out["B"], 2.0 * a + np.arange(4.0))
    assert ctx.counters.map_iterations == 4
