"""The interpreter's state machine: which transition leaves a state, what
its assignments bind, when a run ends and how it fails.

Every graph here is built by hand.  Each state writes its own value into
``log[n]`` through a one-point map, and the transitions advance ``n``, so
the log reads back the states a run executed, in order.  Every case runs in
both map orders, with the vector launch on and off."""

import numpy as np
import pytest

from sdfgkit import frontend, interp
from sdfgkit.cli import main
from sdfgkit.dist import ProcessGrid, sim
from sdfgkit.interp import (
    ExecContext, InterpOptions, InterpreterError, Machine, OutOfBoundsError, TensorValue,
    interpret,
)
from sdfgkit.ir import AccessNode, DType, MapEntry, MapExit, Memlet, NestedSdfg, Sdfg, Tasklet
from sdfgkit.serialize import serialize
from sdfgkit.symbolic import Const, Sym, SubsetRange
from sdfgkit.texpr import TBin, TRef, TNum, parse_texpr

LOG = 8


@pytest.fixture(params=[(False, True), (True, True), (False, False), (True, False)],
                ids=["forward-vector", "reverse-vector", "forward-points", "reverse-points"])
def options(request):
    reverse, vectorize = request.param
    return InterpOptions(reverse_maps=reverse, vectorize=vectorize)


def control_graph(states, transitions, *, step="n", symbols=(), scalars=(), log=LOG,
                  nested=()) -> Sdfg:
    """``states`` maps each label to the code of the value its state logs
    (the first label is the start state); ``transitions`` holds
    ``(src, dst, condition, assignments)``, the condition a text, a parsed
    expression or None, and the assignments a dict of symbolic expressions,
    to which ``step = step + 1`` is added last.  ``symbols`` are declared
    and must be bound; ``scalars`` are f64 scalar inputs; ``log`` is the
    length of the log.  The states named in ``nested`` log through a
    nested graph instead of a map, which makes them states that can raise
    events."""
    g = Sdfg("control")
    g.add_array("log", DType.F64, (Const(log),))
    for name in scalars:
        g.add_scalar(name, DType.F64)
    for name in symbols:
        g.add_symbol(name, 0)
    n = Sym(step)
    whole = SubsetRange.full((Const(log),))
    for k, (label, code) in enumerate(states.items()):
        st = g.add_state(label, start=k == 0)
        if label in nested:
            call = st.add(NestedSdfg(_logger(code)))
            st.add_edge(call, st.add(AccessNode("log")),
                        Memlet("log", SubsetRange.point([n])), "Y", None)
            continue
        entry = st.add(MapEntry((("i", (Const(0), Const(0), Const(1))),)))
        exit_ = st.add(MapExit(entry))
        t = st.add(Tasklet("mark", (), ("out",), (("out", parse_texpr(code)),)))
        st.add_edge(entry, t)
        st.add_edge(t, exit_, Memlet("log", SubsetRange.point([n + Sym("i")])), "out", "IN_log")
        st.add_edge(exit_, st.add(AccessNode("log")), Memlet("log", whole), "OUT_log")
    for src, dst, cond, assigns in transitions:
        if isinstance(cond, str):
            cond = parse_texpr(cond)
        g.add_transition(src, dst, cond, {**assigns, step: n + 1})
    errors = [d for d in g.validate() if d.severity == "error"]
    assert not errors, errors
    return g


def _logger(code) -> Sdfg:
    """A graph that writes the value of ``code`` into its one-element
    transient ``Y``; the names ``code`` reads are its symbols, which the
    caller's symbols of the same names bind."""
    inner = Sdfg("logger")
    for name in sorted(parse_texpr(code).free_names()):
        inner.add_symbol(name, 0)
    inner.add_array("Y", DType.F64, (Const(1),), transient=True)
    st = inner.add_state("s0", start=True)
    t = st.add(Tasklet("mark", (), ("out",), (("out", parse_texpr(code)),)))
    st.add_edge(t, st.add(AccessNode("Y")), Memlet("Y", SubsetRange.point([0])), "out", None)
    return inner


def run(g, options, bindings=None, scalars=None, step="n", log=LOG):
    """The logged values up to the first zero, and the run's counters."""
    ctx = ExecContext(bindings={step: 0, **(bindings or {})})
    ctx.bind_inputs({"log": np.zeros(log), **(scalars or {})})
    out = interpret(g, ctx, options)["log"]
    return out[:np.argmin(out != 0) if 0 in out else log].tolist(), ctx.counters


def test_first_transition_that_holds_wins(options):
    g = control_graph({"a": "1.0", "b": "2.0", "c": "3.0"},
                      [("a", "b", "x > 0", {}), ("a", "c", None, {})], symbols=["x"])
    assert run(g, options, {"x": 1})[0] == [1.0, 2.0]
    assert run(g, options, {"x": 0})[0] == [1.0, 3.0]


def test_first_of_two_true_conditions_wins(options):
    g = control_graph({"a": "1.0", "b": "2.0", "c": "3.0"},
                      [("a", "c", "x > 1", {}), ("a", "b", "x > 0", {}),
                       ("a", "c", "x <= 0", {})], symbols=["x"])
    assert run(g, options, {"x": 2})[0] == [1.0, 3.0]
    assert run(g, options, {"x": 1})[0] == [1.0, 2.0]
    assert run(g, options, {"x": 0})[0] == [1.0, 3.0]


def test_state_without_leaving_transition_ends_the_run(options):
    # "c" is never reached: "b" has no transition out of it
    g = control_graph({"a": "1.0", "b": "2.0", "c": "3.0"},
                      [("a", "b", None, {}), ("c", "a", None, {})])
    log, counters = run(g, options)
    assert log == [1.0, 2.0]
    assert counters.map_iterations == 2


def test_loop_on_an_assigned_symbol(options):
    g = control_graph({"init": "1.0", "body": "j + 10.0", "done": "j + 20.0"},
                      [("init", "body", None, {"j": Const(0)}),
                       ("body", "body", "j < 3", {"j": Sym("j") + 1}),
                       ("body", "done", "j >= 3", {})])
    assert run(g, options)[0] == [1.0, 10.0, 11.0, 12.0, 13.0, 23.0]


def test_assignments_see_earlier_assignments(options):
    # x = x + 1, then y = 2 * x reads the new x, then z = y - x reads both
    x, y = Sym("x"), Sym("y")
    g = control_graph({"a": "x", "b": "x + 100.0 * y + 10000.0 * z"},
                      [("a", "b", None, {"x": x + 1, "y": 2 * x, "z": y - x})],
                      symbols=["x"])
    assert run(g, options, {"x": 3})[0] == [3.0, 4.0 + 800.0 + 40000.0]


def test_assignment_reads_a_symbol_it_rebinds(options):
    # y = x + 1 with the old x, then x = y * 10 with the new y
    x, y = Sym("x"), Sym("y")
    g = control_graph({"a": "x", "b": "x + 1000.0 * y"},
                      [("a", "b", None, {"y": x + 1, "x": y * 10})], symbols=["x"])
    assert run(g, options, {"x": 2})[0] == [2.0, 30.0 + 3000.0]


def test_condition_on_a_scalar_container(options):
    g = control_graph({"a": "1.0", "b": "2.0", "c": "3.0"},
                      [("a", "b", "flag > 0.5", {}), ("a", "c", "not (flag > 0.5)", {})],
                      scalars=["flag"])
    assert run(g, options, scalars={"flag": 1.0})[0] == [1.0, 2.0]
    assert run(g, options, scalars={"flag": 0.25})[0] == [1.0, 3.0]


def test_condition_mixes_a_symbol_and_a_scalar(options):
    g = control_graph({"a": "1.0", "b": "2.0", "c": "3.0"},
                      [("a", "b", "x + flag > 2.5", {}), ("a", "c", None, {})],
                      symbols=["x"], scalars=["flag"])
    assert run(g, options, {"x": 2}, {"flag": 1.0})[0] == [1.0, 2.0]
    assert run(g, options, {"x": 1}, {"flag": 1.0})[0] == [1.0, 3.0]


def test_no_transition_taken_text(options):
    g = control_graph({"a": "1.0", "b": "2.0"}, [("a", "b", "x > 0", {})], symbols=["x"])
    with pytest.raises(InterpreterError) as exc:
        run(g, options, {"x": 0})
    assert str(exc.value) == "no transition taken out of state 'a'"


def test_unknown_condition_name_text(options):
    # y is assigned only on a transition that has not run yet
    g = control_graph({"a": "1.0", "b": "2.0", "c": "3.0"},
                      [("a", "b", "y > 0", {}), ("a", "c", None, {}),
                       ("b", "c", None, {"y": Const(1)})])
    with pytest.raises(InterpreterError) as exc:
        run(g, options)
    assert str(exc.value) == "condition references unknown name 'y'"


def test_unknown_name_is_reported_before_the_condition_is_evaluated(options):
    # the left operand is false, but every name is resolved first
    g = control_graph({"a": "1.0", "b": "2.0", "c": "3.0"},
                      [("a", "b", "x > 0 and y > 0", {}), ("a", "c", None, {}),
                       ("b", "c", None, {"y": Const(1)})], symbols=["x"])
    with pytest.raises(InterpreterError, match="^condition references unknown name 'y'$"):
        run(g, options, {"x": 0})


def test_transition_budget_text(options, monkeypatch):
    g = control_graph({"a": "1.0"}, [("a", "a", None, {})])
    monkeypatch.setattr(interp, "MAX_TRANSITIONS", 5)
    with pytest.raises(InterpreterError) as exc:
        run(g, options)
    assert str(exc.value) == "transition budget exceeded (infinite loop?)"


def test_transition_budget_counts_transitions(options, monkeypatch):
    # four transitions: the run fits a budget of 4 and exceeds one of 3
    g = control_graph({"init": "1.0", "body": "j + 10.0", "done": "2.0"},
                      [("init", "body", None, {"j": Const(0)}),
                       ("body", "body", "j < 2", {"j": Sym("j") + 1}),
                       ("body", "done", None, {})])
    monkeypatch.setattr(interp, "MAX_TRANSITIONS", 4)
    log, counters = run(g, options)
    assert log == [1.0, 10.0, 11.0, 12.0, 2.0]
    assert counters.map_iterations == 5
    monkeypatch.setattr(interp, "MAX_TRANSITIONS", 3)
    with pytest.raises(InterpreterError, match="transition budget exceeded"):
        run(g, options)


def test_unrendered_operator_fails_when_evaluated(options):
    # "%" is no operator the condition's text can render: the validator
    # refuses the graph, so it fails before any state runs, whether or not
    # the run would evaluate the condition
    g = control_graph({"a": "1.0", "b": "2.0", "c": "3.0"},
                      [("a", "b", "x > 5", {}), ("a", "c", "x > 1", {}), ("a", "b", None, {})],
                      symbols=["x"])
    g.transitions[1].condition = TBin("%", TRef("x"), TNum(2))
    assert [d.code for d in g.validate()] == ["unknown-operator"]
    for x in (6, 1):
        with pytest.raises(InterpreterError) as exc:
            run(g, options, {"x": x})
        assert str(exc.value) == ("graph does not validate: condition on a->c uses operator "
                                  "'%', which the expression grammar does not render")


def test_condition_on_an_array_is_refused(options):
    # the condition would read all of log, where it reads one value: the
    # run raised a bare ValueError (the truth value of an array)
    g = control_graph({"a": "1.0", "b": "2.0", "c": "3.0"},
                      [("a", "b", "x > 0", {}), ("a", "c", None, {})], symbols=["x"])
    g.transitions[0].condition = parse_texpr("log > 0.5")
    with pytest.raises(InterpreterError) as exc:
        run(g, options, {"x": 1})
    assert str(exc.value) == ("graph does not validate: condition on a->b reads array 'log'; "
                              "a condition reads only symbols and scalars")


NAMES = ("_e", "_p", "_k0", "lambda", "return")


def test_names_the_generated_code_uses(options):
    """State labels, symbols, assigned names and the step symbol spelled
    like the generated code's own names or like Python keywords are data."""
    e, p, lam = Sym("_e"), Sym("_p"), Sym("lambda")
    states = {label: f"{k + 1}.0" for k, label in enumerate(NAMES)}
    states["return"] = "_e + 10.0 * _p + 100.0 * lambda"
    g = control_graph(
        states,
        [("_e", "_p", "_e > 0", {"_p": e + 1}),
         ("_e", "lambda", None, {}),
         ("_p", "_k0", "_p > 2 and flag > 0.5", {"lambda": p * 2, "_e": e + p}),
         ("_p", "lambda", None, {"lambda": Const(7)}),
         ("_k0", "lambda", None, {}),
         ("lambda", "return", None, {"_p": p + lam})],
        step="_k0", symbols=["_e"], scalars=["flag"])
    bindings = {"_e": 2}
    # _e=2: _e -> _p (_p=3) -> _k0 (lambda=6, _e=5) -> lambda -> return (_p=9)
    got = run(g, options, bindings, {"flag": 1.0}, step="_k0")[0]
    assert got == [1.0, 2.0, 3.0, 4.0, 5.0 + 90.0 + 600.0]
    # flag off: _p -> lambda (lambda=7) -> return (_p=10), _e stays 2
    got = run(g, options, bindings, {"flag": 0.0}, step="_k0")[0]
    assert got == [1.0, 2.0, 4.0, 2.0 + 100.0 + 700.0]


# -- symbols read before any transition assigns them ----------------------------


def assignment_reads_unassigned() -> Sdfg:
    """``s0 -> s1`` assigns ``x = y + 1``; only ``s1 -> s2`` assigns ``y``."""
    g = Sdfg("unassigned")
    g.add_array("A", DType.F64, (Const(4),))
    for label in ("s0", "s1", "s2"):
        g.add_state(label, start=label == "s0")
    g.add_transition("s0", "s1", None, {"x": Sym("y") + 1})
    g.add_transition("s1", "s2", None, {"y": Const(1)})
    return g


def range_reads_unassigned() -> Sdfg:
    """The start state maps over ``0:x``; only the transition out of it
    assigns ``x``."""
    g = Sdfg("unassigned_range")
    g.add_array("A", DType.F64, (Const(4),))
    st = g.add_state("s0", start=True)
    entry = st.add(MapEntry((("i", (Const(0), Sym("x") - 1, Const(1))),)))
    exit_ = st.add(MapExit(entry))
    t = st.add(Tasklet("one", (), ("out",), (("out", parse_texpr("1.0")),)))
    st.add_edge(entry, t)
    st.add_edge(t, exit_, Memlet("A", SubsetRange.point([Sym("i")])), "out", "IN_A")
    st.add_edge(exit_, st.add(AccessNode("A")), Memlet("A", SubsetRange.full((Const(4),))),
                "OUT_A")
    g.add_state("s1")
    g.add_transition("s0", "s1", None, {"x": Const(2)})
    return g


UNASSIGNED = {
    "assignment": (assignment_reads_unassigned,
                   "unbound symbol 'y' in the assignment to 'x' on transition 's0' -> 's1'"),
    "range": (range_reads_unassigned, "unbound symbol 'x'"),
}


@pytest.mark.parametrize("case", sorted(UNASSIGNED))
def test_unassigned_symbol_is_an_interpreter_error(case, options):
    build, message = UNASSIGNED[case]
    g = build()
    assert not g.validate()
    ctx = ExecContext().bind_inputs({"A": np.zeros(4)})
    with pytest.raises(InterpreterError) as exc:
        interpret(g, ctx, options)
    assert str(exc.value) == message


@pytest.mark.parametrize("case", sorted(UNASSIGNED))
def test_unassigned_symbol_run_exits_2(case, tmp_path, capsys):
    build, message = UNASSIGNED[case]
    graph, inputs = tmp_path / "g.sdfg.json", tmp_path / "inputs"
    graph.write_text(serialize(build()))
    inputs.mkdir()
    TensorValue.of(np.zeros(4)).save(inputs / "A.json")
    assert main(["run", str(graph), "--inputs", str(inputs)]) == 2
    assert capsys.readouterr().err == f"runtime error: {message}\n"


# -- loops that come back to their head -------------------------------------------
#
# A loop here is a head state ``guard`` and a body of states that each leave
# by one unconditional transition, the last one back to ``guard``.

LOOP_LOG = 32


def loop_states(body: int) -> dict[str, str]:
    """``init``, ``guard``, ``b1`` .. ``b<body>`` and ``done``: the guard
    logs ``100 + j``, body state ``bk`` logs ``100 * (k + 1) + j``."""
    return {"init": "1.0", "guard": "j + 100.0",
            **{f"b{k}": f"j + {100.0 * (k + 1)}" for k in range(1, body + 1)},
            "done": "900.0"}


def loop_graph(body: int, trips: int = 3, log: int = LOOP_LOG) -> Sdfg:
    """``guard -> b1 -> ... -> b<body> -> guard`` while ``j < trips``, the
    last transition of the body adding one to ``j``; then ``done``."""
    labels = [f"b{k}" for k in range(1, body + 1)]
    transitions = [("init", "guard", None, {"j": Const(0)}),
                   ("guard", labels[0], f"j < {trips}", {})]
    transitions += [(a, b, None, {}) for a, b in zip(labels, labels[1:])]
    transitions += [(labels[-1], "guard", None, {"j": Sym("j") + 1}),
                    ("guard", "done", f"j >= {trips}", {})]
    return control_graph(loop_states(body), transitions, log=log)


def loop_log(body: int, trips: int = 3) -> list[float]:
    """What a run of :func:`loop_graph` logs."""
    out = [1.0]
    for j in range(trips):
        out += [100.0 + j] + [100.0 * (k + 1) + j for k in range(1, body + 1)]
    return out + [100.0 + trips, 900.0]


@pytest.mark.parametrize("body", [1, 2, 3])
def test_loop_body_of_several_states(body, options):
    g = loop_graph(body)
    want = loop_log(body)
    for _ in range(2):  # planned, then found in the table of programs
        log, counters = run(g, options, log=LOOP_LOG)
        assert log == want
        assert counters.map_iterations == len(want)


def test_loop_that_runs_no_trip(options):
    g = loop_graph(2, trips=0)
    assert run(g, options, log=LOOP_LOG)[0] == [1.0, 100.0, 900.0]


def test_nested_loops(options):
    # the inner loop's head is left by two transitions, so it is no body
    # state of the outer loop
    p, q = Sym("p"), Sym("q")
    g = control_graph(
        {"init": "1.0", "outer": "1000.0 + p", "inner": "2000.0 + 10.0 * p + q",
         "b1": "3000.0 + 10.0 * p + q", "b2": "4000.0 + 10.0 * p + q", "done": "9000.0"},
        [("init", "outer", None, {"p": Const(0)}),
         ("outer", "inner", "p < 2", {"q": Const(0)}),
         ("inner", "b1", "q < 2", {}),
         ("b1", "b2", None, {}),
         ("b2", "inner", None, {"q": q + 1}),
         ("inner", "outer", "q >= 2", {"p": p + 1}),
         ("outer", "done", "p >= 2", {})], log=LOOP_LOG)
    want = [1.0]
    for x in range(2):
        want.append(1000.0 + x)
        for y in range(2):
            want += [2000.0 + 10 * x + y, 3000.0 + 10 * x + y, 4000.0 + 10 * x + y]
        want.append(2002.0 + 10 * x)
    want += [1002.0, 9000.0]
    log, counters = run(g, options, log=LOOP_LOG)
    assert log == want and counters.map_iterations == len(want)


def test_body_state_left_by_a_condition(options):
    # b1's one transition back to the guard holds for two trips only; then
    # no transition leaves b1
    g = control_graph(loop_states(1),
                      [("init", "guard", None, {"j": Const(0)}), ("guard", "b1", "j < 5", {}),
                       ("b1", "guard", "j < 2", {"j": Sym("j") + 1}),
                       ("guard", "done", "j >= 5", {})], log=LOOP_LOG)
    with pytest.raises(InterpreterError) as exc:
        run(g, options, log=LOOP_LOG)
    assert str(exc.value) == "no transition taken out of state 'b1'"


def test_body_state_entered_from_outside_the_loop(options):
    # with x > 0 the run enters the body at b2, skipping b1 on the first trip
    g = control_graph(
        loop_states(2),
        [("init", "b2", "x > 0", {"j": Const(0)}),
         ("init", "guard", None, {"j": Const(0)}),
         ("guard", "b1", "j < 2", {}),
         ("b1", "b2", None, {}),
         ("b2", "guard", None, {"j": Sym("j") + 1}),
         ("guard", "done", "j >= 2", {})], symbols=["x"], log=LOOP_LOG)
    inside = loop_log(2, trips=2)
    outside = [1.0, 300.0, 101.0, 201.0, 301.0, 102.0, 900.0]
    # each order of first entries plans the states in another order
    for order in ((1, 0), (0, 1)):
        interp.clear_programs()
        for x in order:
            assert run(g, options, {"x": x}, log=LOOP_LOG)[0] == (outside if x else inside)


def _budget_run(g, options, budget, monkeypatch):
    """Run ``g`` with ``MAX_TRANSITIONS`` at ``budget``; returns the error
    text (None if it finished), how many states logged and the counted
    iterations."""
    monkeypatch.setattr(interp, "MAX_TRANSITIONS", budget)
    ctx = ExecContext(bindings={"n": 0}).bind_inputs({"log": np.zeros(LOOP_LOG)})
    m = Machine(g, ctx, options)
    try:
        for _ in m.run():
            raise AssertionError("no communication expected")
    except InterpreterError as ex:
        return str(ex), int(np.count_nonzero(m.store["log"])), ctx.counters.map_iterations
    return None, int(np.count_nonzero(m.store["log"])), ctx.counters.map_iterations


def test_transition_budget_runs_out_inside_a_loop(options, monkeypatch):
    g = loop_graph(3)
    states = len(loop_log(3))  # 15 states, 14 transitions
    assert _budget_run(g, options, states - 1, monkeypatch) == (None, states, states)
    # a run that exceeds the budget stops before the state its last
    # transition leads to: at every place in the loop, head and body alike
    for budget in range(states - 1):
        error, logged, iterations = _budget_run(g, options, budget, monkeypatch)
        assert error == "transition budget exceeded (infinite loop?)"
        assert logged == iterations == budget + 1


def test_transition_budget_of_a_loop_without_exit(options, monkeypatch):
    g = control_graph({"a": "1.0", "b": "2.0", "c": "3.0"},
                      [("a", "b", None, {}), ("b", "c", None, {}), ("c", "a", None, {})],
                      log=LOOP_LOG)
    assert _budget_run(g, options, 5, monkeypatch) == (
        "transition budget exceeded (infinite loop?)", 6, 6)


def test_transition_budget_of_a_long_cycle(options, monkeypatch):
    # a cycle of unconditional transitions has no head: its states run one
    # by one, and only the states that ran are planned, with the one the
    # last transition links
    labels = [f"s{k}" for k in range(300)]
    g = control_graph({label: "1.0" for label in labels},
                      [(a, b, None, {}) for a, b in zip(labels, labels[1:] + labels[:1])],
                      log=LOOP_LOG)
    monkeypatch.setattr(interp, "MAX_TRANSITIONS", 5)
    interp.clear_programs()
    m = Machine(g, ExecContext(bindings={"n": 0}).bind_inputs({"log": np.zeros(LOOP_LOG)}),
                options)
    with pytest.raises(InterpreterError, match=r"^transition budget exceeded \(infinite loop\?\)$"):
        for _ in m.run():
            raise AssertionError("no communication expected")
    assert np.count_nonzero(m.store["log"]) == 6
    assert sorted(m.program.plans) == sorted(labels[:7])


def test_launch_in_a_loop_falls_back_to_points(options, monkeypatch):
    # every second vector launch declines, and that launch runs point by
    # point; each state logs a constant, so each of its maps has one
    compile_vector, points = interp._compile_vector, Machine._run_points
    launches, fallbacks = [], []

    def declining(*args):
        launch = compile_vector(*args)
        standalone = launch.run

        def vector(env):
            launches.append(1)
            return len(launches) % 2 == 0 and standalone(env)

        launch.run = vector
        return launch

    def counted(self, mp, env):
        fallbacks.append(mp.plan.label)
        return points(self, mp, env)

    g = control_graph({"init": "1.0", "guard": "2.0", "b1": "3.0", "b2": "4.0", "done": "9.0"},
                      [("init", "guard", None, {"j": Const(0)}), ("guard", "b1", "j < 3", {}),
                       ("b1", "b2", None, {}), ("b2", "guard", None, {"j": Sym("j") + 1}),
                       ("guard", "done", "j >= 3", {})], log=LOOP_LOG)
    monkeypatch.setattr(interp, "_compile_vector", declining)
    monkeypatch.setattr(Machine, "_run_points", counted)
    interp.clear_programs()
    try:
        log, counters = run(g, options, log=LOOP_LOG)
    finally:
        interp.clear_programs()
    want = [1.0] + [2.0, 3.0, 4.0] * 3 + [2.0, 9.0]
    assert log == want and counters.map_iterations == len(want)
    assert len(launches) == (len(want) if options.vectorize else 0)
    assert len(fallbacks) == len(want) - len(launches) // 2


def test_launch_in_a_loop_out_of_bounds(options):
    # the second trip's b3 writes log[8] of an eight-element log
    g = loop_graph(3, trips=5, log=LOG)
    with pytest.raises(OutOfBoundsError) as exc:
        run(g, options)
    assert str(exc.value) == ("out-of-bounds access log[dim 0: 8..8] (extent 8) "
                              "at node 2 in state 'b3'")


def test_event_state_in_a_loop_body(options):
    # b1 logs through a nested graph, so its state can raise events
    g = control_graph(
        loop_states(2),
        [("init", "guard", None, {"j": Const(0)}), ("guard", "b1", "j < 3", {}),
         ("b1", "b2", None, {}), ("b2", "guard", None, {"j": Sym("j") + 1}),
         ("guard", "done", "j >= 3", {})], log=LOOP_LOG, nested=("b1",))
    want = loop_log(2)
    log, counters = run(g, options, log=LOOP_LOG)
    assert log == want
    assert counters.map_iterations == len(want) - 3  # b1 runs no map


EXCHANGE = """
def exchange(T: i32, A: f64[N], peer: i32, me: i32):
    got = zeros(N)
    for t in range(0, T):
        req = requests(2)
        comm_isend(A[0:N], peer, 7, req[0])
        comm_irecv(got[0:N], peer, 7, req[1])
        comm_waitall(req)
        for i in map[0:N]:
            A[i] = 2.0 * A[i] + got[i] + me
"""


def test_communication_in_a_loop_body(options, monkeypatch):
    # two ranks swap A each step; the body's states that communicate drive
    # the simulator, and the map state after them runs between its sweeps
    g, diags = frontend.compile_source(EXCHANGE)
    assert not [d for d in diags if d.severity == "error"]
    monkeypatch.setattr(sim, "Machine", lambda g, ctx: Machine(g, ctx, options))
    ctx = ExecContext(bindings={"N": 4, "T": 3}).bind_inputs({"A": np.arange(4.0)})
    rank_sim = sim.RankSim(g, ProcessGrid((2, 1)), ctx, [{"peer": 1, "me": 0},
                                                         {"peer": 0, "me": 1}])
    out, report = rank_sim.run()
    a = [np.arange(4.0), np.arange(4.0)]
    for _ in range(3):
        a = [2.0 * a[0] + a[1], 2.0 * a[1] + a[0] + 1.0]
    assert out["A"].tolist() == a[0].tolist() == [5.0, 32.0, 59.0, 86.0]
    assert rank_sim.ranks[1].machine.store["A"].tolist() == a[1].tolist()
    for counters in report["per_rank"].values():
        assert counters["map_iterations"] == 12 and counters["messages_posted"] == 3
        assert counters["comm_bytes"] == 192
