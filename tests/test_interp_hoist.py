"""Loop-entry set-up of vector launches.

A loop that runs inside its head's state function runs the set-up of each
of its vector launches (range ends, array loads, bounds checks, the reads
that are views) once, where it enters, if that set-up reads no symbol the
loop's transitions assign; each trip then runs only the launch's
arithmetic, the reads that copy, the stores and the counts.  The set-up
must stay invisible: every case here runs in both map orders with the
vector launch on and off, and all four runs give the same outputs,
counters and error texts, those of the per-point path.

Every graph is built by hand: ``init`` binds ``t = 0``, ``guard`` leads to
the body states while ``t < T`` and to ``done`` after, and the last body
state goes back to ``guard`` with ``t = t + 1``.  Each body state holds one
map of tasklets over point memlets."""

import numpy as np
import pytest

from conftest import compile_kernel, corpus_source, make_inputs
from sdfgkit import frontend, interp
from sdfgkit.autoopt import auto_optimize
from sdfgkit.interp import ExecContext, InterpOptions, InterpreterError, Machine
from sdfgkit.ir import AccessNode, DType, MapEntry, MapExit, Memlet, Sdfg, Tasklet
from sdfgkit.symbolic import Const, Sym, SubsetRange, as_expr
from sdfgkit.texpr import parse_texpr

OPTIONS = [(False, True), (True, True), (False, False), (True, False)]
IDS = ["forward-vector", "reverse-vector", "forward-points", "reverse-points"]


@pytest.fixture(params=OPTIONS, ids=IDS)
def options(request):
    reverse, vectorize = request.param
    return InterpOptions(reverse_maps=reverse, vectorize=vectorize)


def add_map(g: Sdfg, st, params, tasklets) -> None:
    """Add to ``st`` one map over ``params`` (``(name, begin, end)``, ends
    inclusive, stride 1) whose tasklets are ``(code, inputs, outputs)``:
    ``code`` computes ``out``, ``inputs`` maps a connector to ``(container,
    index)`` and ``outputs`` lists the ``(container, index)`` that receive
    ``out``; an index is a list of expressions, one per dimension."""
    entry = st.add(MapEntry(tuple((p, (as_expr(b), as_expr(e), Const(1)))
                                  for p, b, e in params)))
    exit_ = st.add(MapExit(entry))
    fed, drained = set(), set()
    for j, (code, ins, outs) in enumerate(tasklets):
        t = st.add(Tasklet(f"t{j}", tuple(ins), ("out",), (("out", parse_texpr(code)),)))
        if not ins:
            st.add_edge(entry, t)
        for conn, (name, index) in ins.items():
            if name not in fed:
                fed.add(name)
                st.add_edge(st.add(AccessNode(name)), entry,
                            Memlet(name, g.containers[name].full_subset()), dst_conn=f"IN_{name}")
            st.add_edge(entry, t, Memlet(name, SubsetRange.point([as_expr(x) for x in index])),
                        src_conn=f"OUT_{name}", dst_conn=conn)
        for name, index in outs:
            st.add_edge(t, exit_, Memlet(name, SubsetRange.point([as_expr(x) for x in index])),
                        src_conn="out", dst_conn=f"IN_{name}")
            if name not in drained:
                drained.add(name)
                st.add_edge(exit_, st.add(AccessNode(name)),
                            Memlet(name, g.containers[name].full_subset()),
                            src_conn=f"OUT_{name}")


def loop_graph(arrays, bodies, symbols=("T",), leave=None) -> Sdfg:
    """A time loop over the body states ``bodies`` (each ``(params,
    tasklets)`` of :func:`add_map`, labelled ``b1``, ``b2``, ...).
    ``arrays`` maps each f64 container to its shape (``()`` for a scalar);
    ``symbols`` are declared; ``leave`` holds the assignments of the
    transition that leaves the loop."""
    g = Sdfg("hoist")
    for name, shape in arrays.items():
        if shape:
            g.add_array(name, DType.F64, tuple(Const(n) for n in shape))
        else:
            g.add_scalar(name, DType.F64)
    for name in symbols:
        g.add_symbol(name, 0)
    g.add_state("init", start=True)
    g.add_state("guard")
    labels = [f"b{k + 1}" for k in range(len(bodies))]
    for label, (params, tasklets) in zip(labels, bodies):
        add_map(g, g.add_state(label), params, tasklets)
    g.add_state("done")
    t = Sym("t")
    g.add_transition("init", "guard", None, {"t": Const(0)})
    g.add_transition("guard", labels[0], parse_texpr("t < T"), {})
    for a, b in zip(labels, labels[1:]):
        g.add_transition(a, b)
    g.add_transition(labels[-1], "guard", None, {"t": t + 1})
    g.add_transition("guard", "done", parse_texpr("t >= T"), dict(leave or {}))
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


def assert_store(store, want):
    for name, values in want.items():
        assert store[name].tolist() == np.asarray(values, dtype=np.float64).tolist(), name


class Launches:
    """Counts the calls of each vector launch's loop-entry set-up and of
    its standalone form, by state label and map entry id, over runs that
    start with an empty table of programs."""

    def __init__(self, monkeypatch):
        self.setups, self.standalone, where = [], [], {}
        compile_vector, entry = interp._compile_vector, interp._Vector.entry

        def counting_compile_vector(facts, scope, *args):
            launch = compile_vector(facts, scope, *args)
            where[launch] = (facts.state.label, scope.nid)
            run_alone = launch.run

            def standalone(env):
                self.standalone.append(where[launch])
                return run_alone(env)

            launch.run = standalone
            return launch

        def counting_entry(launch):
            setup = entry(launch)

            def counted(env):
                self.setups.append(where[launch])
                return setup(env)

            return counted

        monkeypatch.setattr(interp, "_compile_vector", counting_compile_vector)
        monkeypatch.setattr(interp._Vector, "entry", counting_entry)

    def reset(self):
        self.setups.clear()
        self.standalone.clear()


@pytest.fixture
def launches(monkeypatch):
    interp.clear_programs()
    yield Launches(monkeypatch)
    interp.clear_programs()


# -- reads that copy --------------------------------------------------------------


def test_reads_that_copy_stay_in_the_trip(options):
    """b3 reads the rank-0 container ``s`` and the one element ``A[0]``,
    both written earlier in the same trip (by b2 and b1); a read of one
    element is a copy, so it must be taken afresh at every trip."""
    g = loop_graph(
        {"A": (4,), "B": (4,), "s": ()},
        [([("i", 0, 3)], [("a + 1.0", {"a": ("A", [Sym("i")])}, [("A", [Sym("i")])])]),
         ([("i", 0, 3)], [("2.0 * a", {"a": ("A", [Sym("i")])}, [("s", [])])]),
         ([("i", 0, 3)], [("b + x + y", {"b": ("B", [Sym("i")]), "x": ("s", []),
                                        "y": ("A", [0])}, [("B", [Sym("i")])])])])
    error, store, counters = run(g, {"T": 3}, {"A": [1.0, 2.0, 3.0, 4.0], "B": np.zeros(4),
                                               "s": 0.0}, options)
    a, b = np.array([1.0, 2.0, 3.0, 4.0]), np.zeros(4)
    for _ in range(3):
        a = a + 1.0
        s = 2.0 * a[0 if options.reverse_maps else -1]  # the last point's value
        b = b + s + a[0]
    assert error is None
    assert_store(store, {"A": a, "B": b, "s": s})
    assert counters["map_iterations"] == 3 * 12


def test_folded_scalar_is_read_afresh_each_trip(options):
    """b1 folds ``A`` into the rank-0 ``c`` (``c = c + a``), and b2 reads
    ``c`` into every element of ``B``; ``c`` grows at every trip."""
    g = loop_graph(
        {"A": (3,), "B": (3,), "c": ()},
        [([("i", 0, 2)], [("c + a", {"c": ("c", []), "a": ("A", [Sym("i")])}, [("c", [])])]),
         ([("i", 0, 2)], [("b + x", {"b": ("B", [Sym("i")]), "x": ("c", [])},
                           [("B", [Sym("i")])])])])
    error, store, _ = run(g, {"T": 4}, {"A": [0.5, 1.0, 2.0], "B": np.zeros(3), "c": 1.0},
                          options)
    assert error is None
    # c after each trip: 4.5, 8.0, 11.5, 15.0
    assert_store(store, {"c": 15.0, "B": [39.0] * 3})


# -- launches that read what the loop assigns ----------------------------------------


def loop_variable_graph() -> Sdfg:
    """b1's range and b2's subset use the loop variable ``t``; b3 reads no
    symbol the loop assigns."""
    return loop_graph(
        {"A": (8,), "B": (4,), "C": (4,), "D": (4,)},
        [([("i", 0, Sym("t"))], [("b + 1.0", {"b": ("B", [Sym("i")])}, [("B", [Sym("i")])])]),
         ([("i", 0, 3)], [("a", {"a": ("A", [Sym("i") + Sym("t")])}, [("C", [Sym("i")])])]),
         ([("i", 0, 3)], [("d + a", {"d": ("D", [Sym("i")]), "a": ("A", [Sym("i")])},
                           [("D", [Sym("i")])])])])


def test_launch_that_reads_the_loop_variable(options):
    g = loop_variable_graph()
    error, store, counters = run(g, {"T": 4}, {"A": np.arange(8.0), "B": np.zeros(4),
                                               "C": np.zeros(4), "D": np.zeros(4)}, options)
    assert error is None
    assert_store(store, {"B": [4.0, 3.0, 2.0, 1.0], "C": [3.0, 4.0, 5.0, 6.0],
                         "D": [0.0, 4.0, 8.0, 12.0]})
    assert counters["map_iterations"] == (1 + 2 + 3 + 4) + 4 * 4 + 4 * 4


def test_only_loop_invariant_launches_are_set_up_at_entry(launches):
    """b1 and b2 are set up at every trip, in their standalone form."""
    g = loop_variable_graph()
    run(g, {"T": 4}, {"A": np.arange(8.0), "B": np.zeros(4), "C": np.zeros(4),
                      "D": np.zeros(4)}, InterpOptions())
    assert [label for label, _ in launches.setups] == ["b3"]
    assert sorted(label for label, _ in launches.standalone) == ["b1"] * 4 + ["b2"] * 4


# -- set-ups that decline ---------------------------------------------------------------


def test_bounds_check_that_fails_at_entry(options):
    """b2 writes ``C[i + 1]`` over ``i = 0..3`` of a four-element ``C``: its
    set-up declines, and the launch runs point by point at its place in the
    first trip, after b1's stores, raising at the point ``i = 3`` after the
    points before it stored."""
    g = loop_graph(
        {"A": (4,), "B": (4,), "C": (4,)},
        [([("i", 0, 3)], [("b + 1.0", {"b": ("B", [Sym("i")])}, [("B", [Sym("i")])])]),
         ([("i", 0, 3)], [("a", {"a": ("A", [Sym("i")])}, [("C", [Sym("i") + 1])])])])
    error, store, counters = run(g, {"T": 3}, {"A": [5.0, 6.0, 7.0, 8.0], "B": np.zeros(4),
                                               "C": np.zeros(4)}, options)
    assert error == ("OutOfBoundsError",
                     "out-of-bounds access C[dim 0: 4..4] (extent 4) at node 2 in state 'b2'")
    # under reverse_maps the first point is the one out of bounds
    stored = [0.0] * 4 if options.reverse_maps else [0.0, 5.0, 6.0, 7.0]
    assert_store(store, {"B": [1.0] * 4, "C": stored})
    assert counters["map_iterations"] == 4 + (1 if options.reverse_maps else 4)


def test_zero_trips_with_an_unbound_set_up_symbol(options):
    """b1's range uses ``M``, which only the transition out of the loop
    binds: with no trip, the set-up that the loop runs at its entry meets
    the unbound symbol and no error surfaces; with a trip, the launch fails
    at its place as it does without the set-up."""
    g = loop_graph({"B": (4,)},
                   [([("i", 0, Sym("M") - 1)], [("1.0", {}, [("B", [Sym("i")])])])],
                   leave={"M": Const(4)})
    error, store, counters = run(g, {"T": 0}, {"B": np.zeros(4)}, options)
    assert error is None and counters["map_iterations"] == 0
    assert_store(store, {"B": np.zeros(4)})
    error, store, _ = run(g, {"T": 2}, {"B": np.zeros(4)}, options)
    assert error == ("InterpreterError", "unbound symbol 'M'")
    assert_store(store, {"B": np.zeros(4)})


def test_empty_range(options):
    """b1's range ``E..3`` is empty at ``E = 4``: no trip runs a point of
    it, and b2 still runs at every trip."""
    g = loop_graph(
        {"A": (4,), "B": (4,)},
        [([("i", Sym("E"), 3)], [("a + 1.0", {"a": ("A", [Sym("i")])}, [("A", [Sym("i")])])]),
         ([("i", 0, 3)], [("b + a", {"b": ("B", [Sym("i")]), "a": ("A", [Sym("i")])},
                           [("B", [Sym("i")])])])],
        symbols=("T", "E"))
    for e, want_a, want_b, iterations in ((4, [1.0, 2.0, 3.0, 4.0], [3.0, 6.0, 9.0, 12.0], 12),
                                          (2, [1.0, 2.0, 6.0, 7.0], [3.0, 6.0, 15.0, 18.0], 18)):
        error, store, counters = run(g, {"T": 3, "E": e}, {"A": [1.0, 2.0, 3.0, 4.0],
                                                           "B": np.zeros(4)}, options)
        assert error is None
        assert_store(store, {"A": want_a, "B": want_b})
        assert counters["map_iterations"] == iterations


# -- stencils -------------------------------------------------------------------------------


def test_jacobi_style_launches(options):
    """b1 writes B from A and b2 writes A from B, in one trip."""
    def stencil(src, dst):
        i = Sym("i")
        return ([("i", 1, 6)], [("0.33333 * (l + c + r)",
                                 {"l": (src, [i - 1]), "c": (src, [i]), "r": (src, [i + 1])},
                                 [(dst, [i])])])

    g = loop_graph({"A": (8,), "B": (8,)}, [stencil("A", "B"), stencil("B", "A")])
    a0 = np.linspace(0.0, 1.0, 8) ** 2
    error, store, counters = run(g, {"T": 5}, {"A": a0, "B": np.zeros(8)}, options)
    a, b = a0.copy(), np.zeros(8)
    for _ in range(5):
        b[1:-1] = 0.33333 * (a[:-2] + a[1:-1] + a[2:])
        a[1:-1] = 0.33333 * (b[:-2] + b[1:-1] + b[2:])
    assert error is None
    assert store["A"].tobytes() == a.tobytes() and store["B"].tobytes() == b.tobytes()
    assert counters == {**counters, "map_iterations": 60, "bytes_moved": 60 * 4 * 8}


TIMESTEP = {"jacobi_1d": {"N": 8, "TSTEPS": 60}, "jacobi_2d": {"N": 6, "TSTEPS": 30}}


@pytest.mark.parametrize("optimized", [False, True], ids=["plain", "optimized"])
@pytest.mark.parametrize("name", sorted(TIMESTEP))
def test_timestep_kernels_equal_the_points(name, optimized):
    """The jacobi kernels at the benchmark's timestep-control extents give
    the per-point path's outputs and counters, bit for bit, in both map
    orders."""
    g = compile_kernel(name)
    if optimized:
        auto_optimize(g)
    symbols = TIMESTEP[name]
    inputs = make_inputs(frontend.parse(corpus_source(name)), symbols, seed=0)
    for reverse in (False, True):
        want = run(g, symbols, inputs, InterpOptions(reverse, vectorize=False))
        got = run(g, symbols, inputs, InterpOptions(reverse, vectorize=True))
        assert got[0] is None is want[0] and got[2] == want[2]
        assert all(got[1][k].tobytes() == want[1][k].tobytes() for k in want[1])


# -- set-up once per loop entry ---------------------------------------------------------------


# the launches of each kernel's time loop, plain and optimized
LOOP_LAUNCHES = {("jacobi_1d", False): 8, ("jacobi_1d", True): 2,
                 ("jacobi_2d", False): 12, ("jacobi_2d", True): 2}


@pytest.mark.parametrize("optimized", [False, True], ids=["plain", "optimized"])
@pytest.mark.parametrize("name", sorted(TIMESTEP))
def test_timestep_loop_sets_up_each_launch_once(name, optimized, launches, monkeypatch):
    """In each run every launch of the time loop is set up once, at the
    loop's entry, and no launch runs its standalone form or point by
    point: each trip runs the launches' trips only."""
    g = compile_kernel(name)
    if optimized:
        auto_optimize(g)
    symbols = TIMESTEP[name]
    inputs = make_inputs(frontend.parse(corpus_source(name)), symbols, seed=0)

    def no_points(self, mp, env):
        raise AssertionError("a launch ran point by point")

    monkeypatch.setattr(Machine, "_run_points", no_points)
    for _ in range(2):  # a second run finds the program and sets up again
        launches.reset()
        error, _, counters = run(g, symbols, inputs, InterpOptions())
        assert error is None and counters["map_iterations"] > 0
        assert len(launches.setups) == len(set(launches.setups)) == LOOP_LAUNCHES[name, optimized]
        assert launches.standalone == []


def test_each_entry_of_a_loop_sets_up_once(launches):
    """An outer loop around the time loop enters it three times, and its
    launch is set up once per entry.  ``done`` heads no loop of its own:
    ``guard``, in its way back, has two transitions, so the outer loop runs
    state by state."""
    g = loop_graph({"A": (4,)}, [([("i", 0, 3)], [("a + 1.0", {"a": ("A", [Sym("i")])},
                                                   [("A", [Sym("i")])])])],
                   symbols=("T", "U"), leave={"u": Sym("u") + 1})
    g.add_state("end")
    g.add_transition("done", "init", parse_texpr("u < U"), {})
    g.add_transition("done", "end", parse_texpr("u >= U"), {})
    assert not [d for d in g.validate() if d.severity == "error"]
    for options in (InterpOptions(), InterpOptions(reverse_maps=True)):
        launches.reset()
        error, store, counters = run(g, {"T": 5, "U": 3, "u": 0}, {"A": np.zeros(4)}, options)
        assert error is None and store["A"].tolist() == [15.0] * 4
        assert counters["map_iterations"] == 60
        assert launches.setups == [("b1", 0)] * 3 and launches.standalone == []
