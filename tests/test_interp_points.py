"""Per-point launches and the scopes that can raise events.

A map whose body does not run as one vector launch runs point by point:
its ranges are evaluated once, and its body runs once per point in
lexicographic order (reversed under ``reverse_maps``), each inner map
launched as it would be at the top of a state.  A scope that holds a
communication node or a nested graph at any depth can raise events, which
the rank simulator services while the scope runs.  Every case here runs in
both map orders with the vector launch off, and with it on where the
launch of the map under test declines; all runs give the outputs,
counters and error texts written out here.

Every graph is built by hand.  The *stamp* tasklet reads the scalar ``c``
and writes it to ``T`` at the point's index and ``c + 1`` back to ``c``,
so ``T`` reads back the order in which the points ran; it never runs as a
vector launch (``c`` is read and written by a tasklet with two outputs)."""

import itertools

import numpy as np
import pytest

from sdfgkit import interp
from sdfgkit.dist import ProcessGrid, sim
from sdfgkit.interp import ExecContext, InterpOptions, InterpreterError, Machine
from sdfgkit.ir import (
    AccessNode, DType, LibKind, LibraryNode, MapEntry, MapExit, Memlet, NestedSdfg, Sdfg,
    Storage, Tasklet,
)
from sdfgkit.symbolic import Const, Sym, SubsetRange, as_expr
from sdfgkit.texpr import parse_texpr

OPTIONS = [(False, True), (True, True), (False, False), (True, False)]
IDS = ["forward-vector", "reverse-vector", "forward-points", "reverse-points"]


@pytest.fixture(params=OPTIONS, ids=IDS)
def options(request):
    reverse, vectorize = request.param
    return InterpOptions(reverse_maps=reverse, vectorize=vectorize)


def point(*index) -> SubsetRange:
    return SubsetRange.point([as_expr(x) for x in index])


def open_map(st, params):
    """A map entry and exit over ``params``, each ``(name, begin, end,
    stride)`` with the end inclusive."""
    entry = st.add(MapEntry(tuple((p, (as_expr(b), as_expr(e), as_expr(s)))
                                  for p, b, e, s in params)))
    return entry, st.add(MapExit(entry))


def add_stamp(st, entry, exit_, index, suffix: str = "") -> Tasklet:
    """The stamp tasklet inside the scope ``entry``/``exit_``, writing
    ``T[index]``, through the scope's connectors of c and T that end in
    ``suffix``."""
    t = st.add(Tasklet("stamp", ("x",), ("t", "y"),
                       (("t", parse_texpr("x")), ("y", parse_texpr("x + 1.0")))))
    st.add_edge(entry, t, Memlet("c", SubsetRange(())), f"OUT_c{suffix}", "x")
    st.add_edge(t, exit_, Memlet("T", point(*index)), "t", f"IN_T{suffix}")
    st.add_edge(t, exit_, Memlet("c", SubsetRange(())), "y", f"IN_c{suffix}")
    return t


def feed(g: Sdfg, st, entry, exit_, suffixes=("",)) -> None:
    """Pass c and T into the map ``entry``/``exit_`` from one access node
    each and out of it to one access node each, by one pair of connectors
    per suffix."""
    for name in ("c", "T"):
        whole = g.containers[name].full_subset()
        source, sink = st.add(AccessNode(name)), st.add(AccessNode(name))
        for suffix in suffixes:
            st.add_edge(source, entry, Memlet(name, whole), None, f"IN_{name}{suffix}")
            st.add_edge(exit_, sink, Memlet(name, whole), f"OUT_{name}{suffix}", None)


def add_inner_stamp(g: Sdfg, st, outer, ranges, index) -> tuple:
    """An inner map over ``ranges`` inside the map ``outer`` (``(entry,
    exit)``), whose body is a stamp writing ``T[index]``; c and T pass
    through ``outer``'s connectors that end in 2.  The inner map runs after
    the stamp the outer body already holds."""
    entry, exit_ = open_map(st, ranges)
    add_stamp(st, entry, exit_, index)
    for name in ("c", "T"):
        whole = g.containers[name].full_subset()
        st.add_edge(outer[0], entry, Memlet(name, whole), f"OUT_{name}2", f"IN_{name}")
        st.add_edge(exit_, outer[1], Memlet(name, whole), f"OUT_{name}", f"IN_{name}2")
    return entry, exit_


def stamp_graph(params, shape, symbols=()) -> Sdfg:
    """One state with one map over ``params`` whose body is the stamp
    tasklet, writing ``T`` of ``shape`` at the map's parameters."""
    g = Sdfg("stamp")
    for name in symbols:
        g.add_symbol(name, 0)
    g.add_array("T", DType.F64, tuple(Const(n) for n in shape))
    g.add_scalar("c", DType.F64)
    st = g.add_state("s0", start=True)
    entry, exit_ = open_map(st, params)
    add_stamp(st, entry, exit_, [Sym(p) for p, *_ in params])
    feed(g, st, entry, exit_)
    return check(g)


def check(g: Sdfg) -> Sdfg:
    errors = [d for d in g.validate() if d.severity == "error"]
    assert not errors, errors
    return g


def run(g, bindings, inputs, options):
    """``(error, store, counters)`` of one run: ``error`` is the type and
    text of the ``InterpreterError`` raised, or None, and ``store`` holds
    copies of every container's array, as the run left it."""
    ctx = ExecContext(bindings=dict(bindings)).bind_inputs(
        {k: np.array(v, dtype=np.float64) for k, v in inputs.items()})
    m = Machine(g, ctx, options)
    error = None
    try:
        for _ in m.run():
            raise AssertionError("no communication expected")
    except InterpreterError as ex:
        error = (type(ex).__name__, str(ex))
    return error, {k: v.copy() for k, v in m.store.items()}, ctx.counters.as_dict()


def counters(iterations, moved, **kw):
    return {"wcr_commits": 0, "map_iterations": iterations, "bytes_moved": moved,
            "messages_posted": 0, "messages_delivered": 0, "collective_calls": 0,
            "comm_bytes": 0, **kw}


@pytest.fixture
def point_launches(monkeypatch):
    """The plans of the maps that ran point by point, in launch order."""
    calls, points = [], Machine._run_points

    def counted(self, mp, env):
        calls.append(mp)
        return points(self, mp, env)

    monkeypatch.setattr(Machine, "_run_points", counted)
    return calls


# -- point order ------------------------------------------------------------------

ORDER_CASES = {
    "none": ([], ()),  # one point
    "one": ([("i", 1, 9, 2)], (10,)),
    "two": ([("i", 0, 4, 2), ("j", 1, 6, 3)], (5, 8)),
    "three": ([("i", 0, 6, 3), ("j", 1, 5, 2), ("k", 0, 2, 2)], (7, 6, 3)),
    "strided-ends": ([("i", 2, 9, 3), ("j", 0, 4, 2)], (10, 5)),
}


@pytest.mark.parametrize("case", sorted(ORDER_CASES))
def test_point_order(case, options, point_launches):
    params, shape = ORDER_CASES[case]
    g = stamp_graph(params, shape)
    points = list(itertools.product(*(range(b, e + 1, s) for _, b, e, s in params)))
    if options.reverse_maps:
        points.reverse()
    want = np.full(shape, -1.0)
    for n, p in enumerate(points):
        want[p] = n
    error, store, counts = run(g, {}, {"T": np.full(shape, -1.0), "c": 0.0}, options)
    assert error is None
    assert store["T"].tolist() == want.tolist() and store["c"].item() == len(points)
    assert counts == counters(len(points), 24 * len(points))
    assert len(point_launches) == 1


@pytest.mark.parametrize("empty", [0, 1, 2], ids=["outer", "middle", "inner"])
def test_empty_range_runs_no_point(empty, options, point_launches):
    params = [("i", 0, 4, 2), ("j", 1, 7, 3), ("k", 0, 2, 1)]
    # an end below the begin; the middle one through a symbol bound to 0
    params[empty] = ((params[empty][0], 3, 2, 1) if empty != 1
                     else ("j", 1, Sym("N") - 1, 3))
    g = stamp_graph(params, (5, 8, 3), symbols=["N"])
    error, store, counts = run(g, {"N": 0}, {"T": np.full((5, 8, 3), -1.0), "c": 7.0},
                               options)
    assert error is None
    assert (store["T"] == -1.0).all() and store["c"].item() == 7.0
    assert counts == counters(0, 0)
    assert len(point_launches) == 1


def test_parameter_binds_only_inside_its_map(options):
    """A map over ``i`` in a graph whose symbol ``i`` is bound to 5: the
    state after it reads the symbol, not the map's last point."""
    g = stamp_graph([("i", 0, 3, 1)], (6,), symbols=["i"])
    g.add_array("R", DType.F64, (Const(1),))
    st = g.add_state("s1")
    t = st.add(Tasklet("read", (), ("r",), (("r", parse_texpr("i + 0.5")),)))
    st.add_edge(t, st.add(AccessNode("R")), Memlet("R", point(0)), "r", None)
    g.add_transition("s0", "s1")
    check(g)
    error, store, _ = run(g, {"i": 5}, {"T": np.full(6, -1.0), "c": 0.0, "R": [0.0]}, options)
    assert error is None and store["R"].tolist() == [5.5]


# -- inner maps -------------------------------------------------------------------


def nested_graph(inner_stamp: bool) -> Sdfg:
    """A map over i in 0..3 whose body is the stamp tasklet (writing
    ``T[i, 0]``) and an inner map over j in 0..4 that writes ``B[i, j] =
    2 * A[i, j]``, or, with ``inner_stamp``, whose body is a second stamp
    tasklet writing ``T[i, j + 1]``."""
    g = Sdfg("nested")
    g.add_array("T", DType.F64, (Const(4), Const(6)))
    g.add_scalar("c", DType.F64)
    g.add_array("A", DType.F64, (Const(4), Const(5)))
    g.add_array("B", DType.F64, (Const(4), Const(5)))
    st = g.add_state("s0", start=True)
    entry, exit_ = open_map(st, [("i", 0, 3, 1)])
    stamp = add_stamp(st, entry, exit_, [Sym("i"), Const(0)])
    if inner_stamp:
        feed(g, st, entry, exit_, ("", "2"))
        ientry, _ = add_inner_stamp(g, st, (entry, exit_), [("j", 0, 4, 1)],
                                    [Sym("i"), Sym("j") + 1])
        st.add_edge(stamp, ientry)
    else:
        feed(g, st, entry, exit_)
        ientry, iexit = open_map(st, [("j", 0, 4, 1)])
        t = st.add(Tasklet("double", ("a",), ("b",), (("b", parse_texpr("2.0 * a")),)))
        whole = SubsetRange.make([(0, 3, 1), (0, 4, 1)])
        st.add_edge(st.add(AccessNode("A")), entry, Memlet("A", whole), None, "IN_A")
        st.add_edge(entry, ientry, Memlet("A", whole), "OUT_A", "IN_A")
        st.add_edge(ientry, t, Memlet("A", point(Sym("i"), Sym("j"))), "OUT_A", "a")
        st.add_edge(t, iexit, Memlet("B", point(Sym("i"), Sym("j"))), "b", "IN_B")
        st.add_edge(iexit, exit_, Memlet("B", whole), "OUT_B", "IN_B")
        st.add_edge(exit_, st.add(AccessNode("B")), Memlet("B", whole), "OUT_B", None)
    return check(g)


NESTED_INPUTS = {"T": np.full((4, 6), -1.0), "c": 0.0,
                 "A": np.arange(20.0).reshape(4, 5), "B": np.zeros((4, 5))}


def test_inner_map_launches_as_a_vector(options, point_launches):
    g = nested_graph(inner_stamp=False)
    error, store, counts = run(g, {}, NESTED_INPUTS, options)
    assert error is None
    assert store["B"].tolist() == (2.0 * NESTED_INPUTS["A"]).tolist()
    order = [3, 2, 1, 0] if options.reverse_maps else [0, 1, 2, 3]
    assert store["T"][:, 0].tolist() == [float(order.index(i)) for i in range(4)]
    assert (store["T"][:, 1:] == -1.0).all() and store["c"].item() == 4.0
    # each outer point stamps (24 bytes) and moves 5 elements each way
    assert counts == counters(4 + 20, 4 * 24 + 20 * 16)
    inner = [mp for mp in point_launches if mp.names == ("j",)]
    assert len(point_launches) - len(inner) == 1
    assert len(inner) == (0 if options.vectorize else 4)


def test_inner_launch_that_declines_runs_point_by_point(options, point_launches,
                                                        monkeypatch):
    # every second launch of the inner map declines at run time
    compile_vector, launches = interp._compile_vector, []

    def declining(*args):
        launch = compile_vector(*args)
        standalone = launch.run

        def vector(env):
            launches.append(1)
            return len(launches) % 2 == 1 and standalone(env)

        launch.run = vector
        return launch

    monkeypatch.setattr(interp, "_compile_vector", declining)
    interp.clear_programs()
    try:
        error, store, counts = run(nested_graph(inner_stamp=False), {}, NESTED_INPUTS,
                                   options)
    finally:
        interp.clear_programs()
    assert error is None
    assert store["B"].tolist() == (2.0 * NESTED_INPUTS["A"]).tolist()
    assert counts == counters(4 + 20, 4 * 24 + 20 * 16)
    inner = [mp for mp in point_launches if mp.names == ("j",)]
    assert len(launches) == (4 if options.vectorize else 0)
    assert len(inner) == (2 if options.vectorize else 4)


def test_inner_map_point_by_point(options, point_launches):
    g = nested_graph(inner_stamp=True)
    error, store, counts = run(g, {}, NESTED_INPUTS, options)
    assert error is None
    outer = [3, 2, 1, 0] if options.reverse_maps else [0, 1, 2, 3]
    inner = [4, 3, 2, 1, 0] if options.reverse_maps else [0, 1, 2, 3, 4]
    want = np.full((4, 6), -1.0)
    n = 0
    for i in outer:
        want[i, 0] = n
        n += 1
        for j in inner:
            want[i, j + 1] = n
            n += 1
    assert store["T"].tolist() == want.tolist() and store["c"].item() == 24.0
    assert counts == counters(24, 24 * 24)
    assert [mp.names for mp in point_launches] == [("i",)] + [("j",)] * 4


# -- errors -----------------------------------------------------------------------


def unbound_graph(where: str) -> Sdfg:
    """A map whose range ends at ``m - 1``, where ``m`` is assigned only on
    the transition out of the state, so it is unbound when the map
    launches.  ``where`` places the map: at the top of the state, as the
    inner map of a stamping map over i in 0..2, or as either in a scope
    that holds a nested graph (``event-top``, ``event-inner``)."""
    g = Sdfg("unbound")
    g.add_array("T", DType.F64, (Const(4), Const(6)))
    g.add_scalar("c", DType.F64)
    g.add_array("A", DType.F64, (Const(4),))
    g.add_array("B", DType.F64, (Const(4),))
    st = g.add_state("s0", start=True)
    g.add_state("s1")
    g.add_transition("s0", "s1", None, {"m": Const(2)})
    ranges = [("j", 0, Sym("m") - 1, 1)]
    outer = None
    if where.endswith("inner"):
        outer = open_map(st, [("i", 0, 2, 1)])
        stamp = add_stamp(st, *outer, [Sym("i"), Const(0)])
        feed(g, st, *outer, ("", "2"))
        entry, _ = add_inner_stamp(g, st, outer, ranges, [Sym("i"), Sym("j") + 1])
        st.add_edge(stamp, entry)
    else:
        entry, exit_ = open_map(st, ranges)
        add_stamp(st, entry, exit_, [Const(0), Sym("j")])
        feed(g, st, entry, exit_)
    if where.startswith("event"):
        # a nested graph beside the map, in the map's scope or the state's
        scope = outer or (None, None)
        add_call(st, scope, "A", "B", Const(0) if outer is None else Sym("i"))
    return check(g)


def double_graph() -> Sdfg:
    """``Y[0] = 2 * X[0] + k``."""
    inner = Sdfg("double")
    inner.add_symbol("k", 0)
    inner.add_array("X", DType.F64, (Const(1),))
    inner.add_array("Y", DType.F64, (Const(1),), transient=True)
    ist = inner.add_state("s0", start=True)
    t = ist.add(Tasklet("t", ("x",), ("y",), (("y", parse_texpr("2.0 * x + k")),)))
    ist.add_edge(ist.add(AccessNode("X")), t, Memlet("X", point(0)), None, "x")
    ist.add_edge(t, ist.add(AccessNode("Y")), Memlet("Y", point(0)), "y", None)
    return inner


def add_call(st, scope, src: str, dst: str, index) -> NestedSdfg:
    """A launch of :func:`double_graph` with ``k = index`` that reads
    ``src[index]`` and writes ``dst[index]``, inside the map ``scope``
    (``(entry, exit)``, or ``(None, None)`` at the top of the state)."""
    entry, exit_ = scope
    call = st.add(NestedSdfg(double_graph(), {"k": as_expr(index)}))
    whole = SubsetRange.make([(0, 3, 1)])
    if entry is None:
        st.add_edge(st.add(AccessNode(src)), call, Memlet(src, point(index)), None, "X")
        st.add_edge(call, st.add(AccessNode(dst)), Memlet(dst, point(index)), "Y", None)
        return call
    st.add_edge(st.add(AccessNode(src)), entry, Memlet(src, whole), None, f"IN_{src}")
    st.add_edge(entry, call, Memlet(src, point(index)), f"OUT_{src}", "X")
    st.add_edge(call, exit_, Memlet(dst, point(index)), "Y", f"IN_{dst}")
    st.add_edge(exit_, st.add(AccessNode(dst)), Memlet(dst, whole), f"OUT_{dst}", None)
    return call


@pytest.mark.parametrize("where", ["top", "inner", "event-top", "event-inner"])
def test_unbound_symbol_in_a_range(where, options):
    g = unbound_graph(where)
    inputs = {"T": np.full((4, 6), -1.0), "c": 0.0, "A": np.arange(4.0), "B": np.zeros(4)}
    error, store, counts = run(g, {}, inputs, options)
    assert error == ("InterpreterError", "unbound symbol 'm'")
    # the failing launch ends the run: before any point, or after the
    # stamping map's first point stamped
    inner = where.endswith("inner")
    want = np.full((4, 6), -1.0)
    if inner:
        want[2 if options.reverse_maps else 0, 0] = 0.0
    assert store["T"].tolist() == want.tolist() and store["c"].item() == float(inner)
    assert counts["map_iterations"] == int(inner)


def test_out_of_bounds_point(options):
    """``B[i + 1] = 2 * A[i]`` over i in 0..3 of a four-element B: the
    vector launch declines at its bounds check, and point by point the
    point i = 3 fails after the points before it stored."""
    g = Sdfg("oob")
    g.add_array("A", DType.F64, (Const(4),))
    g.add_array("B", DType.F64, (Const(4),))
    st = g.add_state("s0", start=True)
    entry, exit_ = open_map(st, [("i", 0, 3, 1)])
    t = st.add(Tasklet("double", ("a",), ("b",), (("b", parse_texpr("2.0 * a")),)))
    whole = SubsetRange.make([(0, 3, 1)])
    st.add_edge(st.add(AccessNode("A")), entry, Memlet("A", whole), None, "IN_A")
    st.add_edge(entry, t, Memlet("A", point(Sym("i"))), "OUT_A", "a")
    st.add_edge(t, exit_, Memlet("B", point(Sym("i") + 1)), "b", "IN_B")
    st.add_edge(exit_, st.add(AccessNode("B")), Memlet("B", whole), "OUT_B", None)
    check(g)
    error, store, counts = run(g, {}, {"A": [1.0, 2.0, 3.0, 4.0], "B": [9.0] * 4}, options)
    assert error == ("OutOfBoundsError",
                     f"out-of-bounds access B[dim 0: 4..4] (extent 4) at node {t.nid} "
                     "in state 's0'")
    if options.reverse_maps:
        assert store["B"].tolist() == [9.0] * 4
        assert counts == counters(1, 8)
    else:
        assert store["B"].tolist() == [9.0, 2.0, 4.0, 6.0]
        assert counts == counters(4, 3 * 16 + 8)


# -- event scopes under the rank simulator -------------------------------------------


def sim_run(g, inputs, options, monkeypatch, bindings=None):
    monkeypatch.setattr(sim, "Machine", lambda g, ctx: Machine(g, ctx, options))
    ctx = ExecContext().bind_inputs(inputs)
    rank_sim = sim.RankSim(g, ProcessGrid((2, 2)), ctx, bindings)
    out, report = rank_sim.run()
    return rank_sim, out, report


def test_nested_graph_in_a_map_on_four_ranks(options, monkeypatch):
    g = Sdfg("outer")
    g.add_array("A", DType.F64, (Const(4),))
    g.add_array("B", DType.F64, (Const(4),))
    st = g.add_state("s0", start=True)
    add_call(st, open_map(st, [("i", 0, 3, 1)]), "A", "B", Sym("i"))
    check(g)
    a = np.array([1.0, -2.0, 0.5, 3.0])
    rank_sim, out, report = sim_run(g, {"A": a, "B": np.zeros(4)}, options, monkeypatch)
    for rk in rank_sim.ranks:
        assert rk.machine.store["B"].tolist() == (2.0 * a + np.arange(4.0)).tolist()
    # each rank's map runs 4 points, and each call moves 4 elements: its
    # input and output, and its tasklet's read and write
    assert report["per_rank"] == {r: counters(4, 4 * 32) for r in range(4)}
    assert report["collective_ops"] == 0


def exchange_graph() -> Sdfg:
    """Each rank fills ``A[i] = 10 * me + i``, then posts a receive into
    ``got[k]`` from rank ``peer`` for each k in 0..1, tagged k, and a map
    over i in 0..1 posts, at each point, a send of ``A[i]`` to rank
    ``peer``, tagged i; a last state waits on both request arrays.  (A
    receive has no input, so it cannot sit inside a map.)"""
    g = Sdfg("exchange")
    g.add_symbol("me", 0)
    g.add_symbol("peer", 0)
    both = SubsetRange.make([(0, 1, 1)])
    for name in ("A", "got"):
        g.add_array(name, DType.F64, (Const(2),))
    for name in ("rs", "rr"):
        g.add_array(name, DType.I64, (Const(2),), transient=True)
    fill = g.add_state("fill", start=True)
    entry, exit_ = open_map(fill, [("i", 0, 1, 1)])
    t = fill.add(Tasklet("fill", (), ("a",), (("a", parse_texpr("10.0 * me + i")),)))
    fill.add_edge(entry, t)
    fill.add_edge(t, exit_, Memlet("A", point(Sym("i"))), "a", "IN_A")
    fill.add_edge(exit_, fill.add(AccessNode("A")), Memlet("A", both), "OUT_A", None)
    post = g.add_state("post")
    for k in range(2):
        recv = post.add(LibraryNode(LibKind.IRECV, "comm_irecv",
                                    {"peer": Sym("peer"), "tag": Const(k)}))
        post.add_edge(recv, post.add(AccessNode("got")), Memlet("got", point(k)), "buf", None)
        post.add_edge(recv, post.add(AccessNode("rr")), Memlet("rr", point(k)), "req", None)
    entry, exit_ = open_map(post, [("i", 0, 1, 1)])
    i = Sym("i")
    send = post.add(LibraryNode(LibKind.ISEND, "comm_isend", {"peer": Sym("peer"), "tag": i}))
    post.add_edge(post.add(AccessNode("A")), entry, Memlet("A", both), None, "IN_A")
    post.add_edge(entry, send, Memlet("A", point(i)), "OUT_A", "buf")
    post.add_edge(send, exit_, Memlet("rs", point(i)), "req", "IN_rs")
    post.add_edge(exit_, post.add(AccessNode("rs")), Memlet("rs", both), "OUT_rs", None)
    wait = g.add_state("wait")
    for name in ("rs", "rr"):
        node = wait.add(LibraryNode(LibKind.WAITALL, "comm_waitall"))
        wait.add_edge(wait.add(AccessNode(name)), node, Memlet(name, both), None, "req")
        wait.add_edge(node, wait.add(AccessNode(name)), Memlet(name, both), "req", None)
    g.add_transition("fill", "post")
    g.add_transition("post", "wait")
    return check(g)


def test_communication_in_a_map_on_four_ranks(options, monkeypatch):
    g = exchange_graph()
    bindings = [{"me": r, "peer": r ^ 1} for r in range(4)]
    rank_sim, out, report = sim_run(g, {"A": np.zeros(2), "got": np.zeros(2)}, options,
                                    monkeypatch, bindings)
    for rk in rank_sim.ranks:
        peer = rk.rank ^ 1
        assert rk.machine.store["A"].tolist() == [10.0 * rk.rank, 10.0 * rk.rank + 1]
        assert rk.machine.store["got"].tolist() == [10.0 * peer, 10.0 * peer + 1]
    assert out["got"].tolist() == [10.0, 11.0]
    # two fill points and two posting points; the fill stores, the sends'
    # reads and the receives' stores move one element each, and each
    # posted send and each delivered receive counts one in comm_bytes
    assert report["per_rank"] == {
        r: counters(4, 3 * 2 * 8, messages_posted=2, messages_delivered=2, comm_bytes=4 * 8)
        for r in range(4)}


def test_event_state_whose_events_a_rank_drops(options, monkeypatch):
    """A global-view program: ``call`` launches a nested graph on the global
    A and B, which the non-root ranks do not hold, so they drop it and
    their state function for ``call`` runs no step; ``local`` writes the
    rank's own ``L``.  Both states run on every rank."""
    g = Sdfg("dropped")
    g.add_array("A", DType.F64, (Const(4),))
    g.add_array("B", DType.F64, (Const(4),))
    g.add_array("L", DType.F64, (Const(2),), transient=True, storage=Storage.DISTRIBUTED_LOCAL)
    g.add_array("R", DType.F64, (Const(2),))
    call = g.add_state("call", start=True)
    add_call(call, (None, None), "A", "B", Const(1))
    local = g.add_state("local")
    entry, exit_ = open_map(local, [("i", 0, 1, 1)])
    t = local.add(Tasklet("fill", (), ("l",), (("l", parse_texpr("i + 5.0")),)))
    local.add_edge(entry, t)
    local.add_edge(t, exit_, Memlet("L", point(Sym("i"))), "l", "IN_L")
    local.add_edge(exit_, local.add(AccessNode("L")),
                   Memlet("L", SubsetRange.make([(0, 1, 1)])), "OUT_L", None)
    g.add_transition("call", "local")
    check(g)
    a = np.array([1.0, 2.0, 3.0, 4.0])
    rank_sim, out, report = sim_run(g, {"A": a, "B": np.zeros(4), "R": np.zeros(2)}, options,
                                    monkeypatch)
    assert out["B"].tolist() == [0.0, 5.0, 0.0, 0.0]
    for rk in rank_sim.ranks:
        assert rk.machine.store["L"].tolist() == [5.0, 6.0]
        assert rk.machine.program.plans["call"].events
    assert [rk.machine.store["B"].tolist() for rk in rank_sim.ranks[1:]] == [[0.0] * 4] * 3
    assert report["per_rank"][0] == counters(2, 32 + 16)
    assert [report["per_rank"][r] for r in (1, 2, 3)] == [counters(2, 16)] * 3
