"""The interpreter's state machine: which transition leaves a state, what
its assignments bind, when a run ends and how it fails.

Every graph here is built by hand.  Each state writes its own value into
``log[n]`` through a one-point map, and the transitions advance ``n``, so
the log reads back the states a run executed, in order.  Every case runs in
both map orders, with the vector launch on and off."""

import numpy as np
import pytest

from sdfgkit import interp
from sdfgkit.cli import main
from sdfgkit.interp import ExecContext, InterpOptions, InterpreterError, TensorValue, interpret
from sdfgkit.ir import AccessNode, DType, MapEntry, MapExit, Memlet, Sdfg, Tasklet
from sdfgkit.serialize import serialize
from sdfgkit.symbolic import Const, Sym, SubsetRange
from sdfgkit.texpr import TBin, TRef, TNum, parse_texpr

LOG = 8


@pytest.fixture(params=[(False, True), (True, True), (False, False), (True, False)],
                ids=["forward-vector", "reverse-vector", "forward-points", "reverse-points"])
def options(request):
    reverse, vectorize = request.param
    return InterpOptions(reverse_maps=reverse, vectorize=vectorize)


def control_graph(states, transitions, *, step="n", symbols=(), scalars=()) -> Sdfg:
    """``states`` maps each label to the code of the value its state logs
    (the first label is the start state); ``transitions`` holds
    ``(src, dst, condition, assignments)``, the condition a text, a parsed
    expression or None, and the assignments a dict of symbolic expressions,
    to which ``step = step + 1`` is added last.  ``symbols`` are declared
    and must be bound; ``scalars`` are f64 scalar inputs."""
    g = Sdfg("control")
    g.add_array("log", DType.F64, (Const(LOG),))
    for name in scalars:
        g.add_scalar(name, DType.F64)
    for name in symbols:
        g.add_symbol(name, 0)
    n = Sym(step)
    whole = SubsetRange.full((Const(LOG),))
    for k, (label, code) in enumerate(states.items()):
        st = g.add_state(label, start=k == 0)
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


def run(g, options, bindings=None, scalars=None, step="n"):
    """The logged values up to the first zero, and the run's counters."""
    ctx = ExecContext(bindings={step: 0, **(bindings or {})})
    ctx.bind_inputs({"log": np.zeros(LOG), **(scalars or {})})
    log = interpret(g, ctx, options)["log"]
    return log[:np.argmin(log != 0) if 0 in log else LOG].tolist(), ctx.counters


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
    # "%" is no operator the condition's text can render: the graph runs as
    # long as the condition is not evaluated, and fails when it is
    odd = TBin("%", TRef("x"), TNum(2))
    g = control_graph({"a": "1.0", "b": "2.0", "c": "3.0"},
                      [("a", "b", "x > 5", {}), ("a", "c", odd, {}), ("a", "b", None, {})],
                      symbols=["x"])
    assert run(g, options, {"x": 6})[0] == [1.0, 2.0]
    with pytest.raises(ValueError, match="unknown operator '%'"):
        run(g, options, {"x": 1})


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
