"""The table of programs: each graph is validated and planned once per
content, container shapes, options and rank set, and each run calls the
kept plans, which read its own store and counters from its environment.

Plans are counted by wrapping ``interp._compile_vector`` (one vector launch
planned) and ``Machine._plan_state`` (one state planned).  A graph run again
with equal content plans and validates nothing; a graph changed in place
gets a new key and is validated and planned again; and the table keeps no
run's arrays, counters or machine."""

import copy
import gc
import pickle
import weakref

import numpy as np
import pytest

from conftest import ALL_KERNELS, KERNEL_SYMBOLS, compile_kernel, corpus_source, make_inputs
from sdfgkit import frontend, interp, texpr
from sdfgkit.autoopt import auto_optimize
from sdfgkit.dist import ProcessGrid, distribution_pipeline, sim_run
from sdfgkit.interp import (
    ExecContext, InterpOptions, InterpreterError, Machine, clear_programs, interpret,
)
from sdfgkit.ir import AccessNode, DType, Memlet, NestedSdfg, Sdfg, Tasklet, content_key
from sdfgkit.serialize import deserialize, serialize
from sdfgkit.symbolic import Const, SubsetRange, Sym
from sdfgkit.texpr import TNum, parse_texpr

LOOPED_CALL = """
def scale(X: f64[N], a: f64):
    X[:] = a * X

def main(A: f64[N], s: f64):
    for t in range(N):
        scale(A, s)
"""


class Plans:
    """Counts of the graphs validated, the states planned (by graph and
    state index) and the vector launches planned (by state label and map
    entry id)."""

    def __init__(self, monkeypatch):
        self.validated, self.states, self.vectors = [], [], []
        validate, plan_state = Sdfg.validate, Machine._plan_state
        compile_vector = interp._compile_vector

        def counting_validate(g, *facts):
            self.validated.append(g)
            return validate(g, *facts)

        def counting_plan_state(m, i):
            self.states.append((m.g, m.rank_local, i))
            return plan_state(m, i)

        def counting_compile_vector(facts, scope, *args):
            self.vectors.append((facts.state.label, scope.nid))
            return compile_vector(facts, scope, *args)

        monkeypatch.setattr(Sdfg, "validate", counting_validate)
        monkeypatch.setattr(Machine, "_plan_state", counting_plan_state)
        monkeypatch.setattr(interp, "_compile_vector", counting_compile_vector)

    def reset(self):
        self.validated.clear()
        self.states.clear()
        self.vectors.clear()

    @property
    def none(self) -> bool:
        return not (self.validated or self.states or self.vectors)


def run(g, symbols, inputs, options=None, persistent=None):
    """``(outputs, counters)`` of one run, outputs copied."""
    ctx = ExecContext(bindings=dict(symbols),
                      persistent={} if persistent is None else persistent)
    ctx.bind_inputs(copy.deepcopy(inputs))
    out = interpret(g, ctx, options)
    return {k: v.copy() for k, v in out.items()}, ctx.counters.as_dict()


def kernel(name, optimized=False):
    g = compile_kernel(name)
    if optimized:
        auto_optimize(g)
    symbols = KERNEL_SYMBOLS[name]
    return g, symbols, make_inputs(frontend.parse(corpus_source(name)), symbols, seed=0)


def assert_same(a, b):
    (out_a, ctr_a), (out_b, ctr_b) = a, b
    assert ctr_a == ctr_b
    assert out_a.keys() == out_b.keys()
    for k in out_a:
        assert out_a[k].dtype == out_b[k].dtype and out_a[k].tobytes() == out_b[k].tobytes(), k


@pytest.mark.parametrize("name", ["jacobi_1d", "gemm", "doitgen"])
@pytest.mark.parametrize("optimized", [False, True])
def test_equal_graph_runs_without_planning(name, optimized, monkeypatch):
    """A second run of an equal copy, or of a second JSON round trip,
    validates and plans nothing and gives the first run's results."""
    clear_programs()
    g, symbols, inputs = kernel(name, optimized)
    plans = Plans(monkeypatch)
    first = run(g, symbols, inputs)
    assert plans.validated == [g] and plans.states
    plans.reset()
    assert_same(run(g.copy(), symbols, inputs), first)
    assert plans.none
    text = serialize(g)
    run(deserialize(text), symbols, inputs)
    plans.reset()
    assert_same(run(deserialize(text), symbols, inputs), first)
    assert plans.none


def test_compile_returns_one_program_per_content_and_shapes():
    clear_programs()
    g, symbols, _ = kernel("gemm")
    program = interp.compile(g, symbols)
    assert interp.compile(g.copy(), symbols) is program
    assert interp.compile(g, {**symbols, "NK": symbols["NK"] + 1}) is not program
    assert interp.compile(g, symbols, InterpOptions(vectorize=False)) is not program
    assert interp.compile(g, symbols, InterpOptions(reverse_maps=True)) is not program
    # an int and a float constant of equal value are different code
    twins = []
    for value in ("2", "2.0"):
        twin = g.copy()
        for st in twin.states:
            for n in st.nodes.values():
                if isinstance(n, Tasklet):
                    n.code = tuple((c, parse_texpr(f"{value} * {n.inputs[0]}") if n.inputs
                                    else x) for c, x in n.code)
        twins.append(interp.compile(twin, symbols))
    assert twins[0] is not twins[1]


def test_nested_callee_in_a_loop_is_planned_once(monkeypatch):
    """A callee launched on each of 10 trips is validated and planned on
    the first launch only, and not at all on a second run."""
    clear_programs()
    g, diags = frontend.compile_source(LOOPED_CALL)
    assert g is not None and not [d for d in diags if d.severity == "error"]
    callee = [n.sdfg for st in g.states for n in st.nodes.values()
              if isinstance(n, NestedSdfg)][0]
    plans = Plans(monkeypatch)
    a = np.arange(1.0, 11.0)
    out, _ = run(g, {"N": 10}, {"A": a, "s": 2.0})
    assert np.array_equal(out["A"], a * 2.0 ** 10)
    assert plans.validated == [g, callee]
    planned = [i for graph, _, i in plans.states if graph is callee]
    assert sorted(planned) == list(range(len(callee.states)))
    assert len(plans.vectors) == len(set(plans.vectors)) == 1
    plans.reset()
    assert np.array_equal(run(g, {"N": 10}, {"A": a, "s": 2.0})[0]["A"], out["A"])
    assert plans.none


def test_simulated_ranks_share_plans(monkeypatch):
    """On 2x2, gemm's ranks plan each state and each map once per rank set:
    rank 0, which holds the global containers, and the other three, which
    share one program.  A second simulation plans nothing and compiles no
    accessor, not even those of its communication events."""
    clear_programs()
    grid = ProcessGrid((2, 2))
    symbols = {"NI": 4, "NJ": 8, "NK": 8}
    g = compile_kernel("gemm")
    distribution_pipeline(g, grid)
    inputs = make_inputs(frontend.parse(corpus_source("gemm")), symbols, seed=31)
    plans = Plans(monkeypatch)
    maps = []
    plan_map = Machine._plan_map
    monkeypatch.setattr(Machine, "_plan_map", lambda m, plan, nid: maps.append(
        (m.rank_local, plan.label, nid)) or plan_map(m, plan, nid))
    accessors = []
    compile_access = interp._compile_access
    monkeypatch.setattr(interp, "_compile_access",
                        lambda *args: accessors.append(args) or compile_access(*args))
    out, counters = sim_run(g, grid, ExecContext(bindings=symbols).bind_inputs(inputs))
    rank_sets = {rank_local for _, rank_local, _ in plans.states}
    assert len(rank_sets) == 2 and None in rank_sets
    assert len(plans.states) == len(set(plans.states))
    assert maps and len(maps) == len(set(maps))
    assert len(plans.vectors) == len(maps) < 12
    assert accessors
    plans.reset()
    maps.clear()
    accessors.clear()
    again, counters_again = sim_run(g.copy(), grid,
                                    ExecContext(bindings=symbols).bind_inputs(inputs))
    assert plans.none and not maps and not accessors
    assert counters_again == counters
    assert all(again[k].tobytes() == out[k].tobytes() for k in out)


def _tasklet(g, state, nid) -> Tasklet:
    return g.state(state).nodes[nid]


def _edge(g, state, dst, conn):
    return next(e for e in g.state(state).edges if e.dst.nid == dst and e.dst_conn == conn)


def _shift_read(g):
    # as autoopt._rename_in_scope does: the subset is replaced in place
    e = _edge(g, "s1", 2, "in1")
    e.memlet.subset = e.memlet.subset.substitute({"k0": Sym("k0") - 1})


def _retype(g):
    g.containers["tmp2"].dtype = DType.I64


def _reshape(g):
    g.containers["tmp0"].shape = (Sym("N"),)


def _recode(g):
    t = _tasklet(g, "s3", 2)
    t.code = (("out", parse_texpr("0.5 * in0")),)


def _recondition(g):
    for t in g.transitions:
        if t.src == "loop0_guard":
            op = "<" if t.dst == "s1" else ">="
            t.condition = parse_texpr(f"t {op} TSTEPS - 1")


def _reassume(g):
    g.symbols["N"] = 3


MUTATIONS = {"memlet subset": _shift_read, "dtype": _retype, "shape": _reshape,
             "tasklet code": _recode, "condition": _recondition, "assumption": _reassume}


@pytest.mark.parametrize("case", sorted(MUTATIONS))
def test_graph_changed_in_place_is_planned_again(case, monkeypatch):
    """After a run, a graph changed in place gets a new key: it is
    validated and planned again and runs as a fresh copy of it runs from
    an empty table."""
    clear_programs()
    g, symbols, inputs = kernel("jacobi_1d")
    plans = Plans(monkeypatch)
    before = run(g, symbols, inputs)
    MUTATIONS[case](g)
    plans.reset()
    after = run(g, symbols, inputs)
    assert plans.validated == [g] and plans.states
    fresh = g.copy()
    clear_programs()
    assert_same(run(fresh, symbols, inputs), after)
    if case not in ("shape", "assumption"):  # the others change the results
        assert any(after[0][k].tobytes() != before[0][k].tobytes() for k in before[0])


def test_change_that_breaks_validity_is_reported(monkeypatch):
    clear_programs()
    g, symbols, inputs = kernel("jacobi_1d")
    run(g, symbols, inputs)
    _edge(g, "s1", 2, "in1").memlet.container = "nowhere"
    with pytest.raises(InterpreterError, match="graph does not validate"):
        run(g, symbols, inputs)


@pytest.mark.parametrize("source", ["gemm", "jacobi_1d", "looped_call"])
def test_table_keeps_no_run_data(source):
    """Once a run's outputs are dropped, its input copies and counters are
    freed, though the table keeps the graph's program."""
    clear_programs()
    if source == "looped_call":
        g, _ = frontend.compile_source(LOOPED_CALL)
        symbols, inputs = {"N": 4}, {"A": np.ones(4), "s": 2.0}
    else:
        g, symbols, inputs = kernel(source, optimized=source == "gemm")
    ctx = ExecContext(bindings=dict(symbols)).bind_inputs(inputs)
    out = interpret(g, ctx)
    refs = [weakref.ref(v) for v in out.values()] + [weakref.ref(ctx.counters)]
    del out, ctx
    gc.collect()
    assert all(r() is None for r in refs)
    assert interp._GRAPHS


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_warm_table_gives_cold_results(name, monkeypatch):
    """Outputs and counters are the same whether a graph's program is made
    for the run or found in the table, in both map orders."""
    for optimized in (False, True):
        g, symbols, inputs = kernel(name, optimized)
        for reverse in (False, True):
            options = InterpOptions(reverse_maps=reverse)
            clear_programs()
            cold = run(g, symbols, inputs, options)
            plans = Plans(monkeypatch)
            warm = run(g.copy(), symbols, inputs, options)
            assert plans.none
            monkeypatch.undo()
            assert_same(warm, cold)


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_optimized_graph_and_round_trip_share_a_key(name):
    """``auto_optimize`` numbers the nodes as the JSON form does, so an
    optimized graph and its round trip are one content in the table."""
    g = kernel(name, optimized=True)[0]
    assert content_key(g) == content_key(deserialize(serialize(g)))


class _Access(AccessNode):
    """An access node of a type the content key has no signature for."""


def test_graph_without_a_key_runs_unshared():
    """A graph that has no content key, here because a state holds a node
    of a type the key does not know, still runs; it is validated on each
    run and never enters the table."""
    clear_programs()
    g = Sdfg("unknown_node")
    g.add_array("A", DType.F64, (Const(4),))
    g.add_array("B", DType.F64, (Const(4),))
    st = g.add_state("s0")
    a, b = st.add(AccessNode("A")), st.add(_Access("B"))
    t = st.add(Tasklet("t", ("x",), ("y",), (("y", parse_texpr("x")),)))
    st.add_edge(a, t, Memlet("A", SubsetRange.point([0])), None, "x")
    st.add_edge(t, b, Memlet("B", SubsetRange.point([0])), "y", None)
    with pytest.raises(TypeError):
        content_key(g)
    for _ in range(2):
        out, _ = run(g, {}, {"A": np.arange(1.0, 5.0), "B": np.zeros(4)})
        assert out["B"].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert not interp._GRAPHS


def test_stale_persistent_array_is_reported():
    """A caller-supplied persistent array must have the shape and dtype its
    descriptor gives at the run's bindings."""
    g = compile_kernel("gemm")
    auto_optimize(g)
    program = frontend.parse(corpus_source("gemm"))
    persistent = {}
    small = {"NI": 4, "NJ": 6, "NK": 8}
    run(g, small, make_inputs(program, small, seed=0), persistent=persistent)
    assert persistent["tmp0"].shape == (4, 8)
    run(g, small, make_inputs(program, small, seed=1), persistent=persistent)
    large = {**small, "NK": 9}
    with pytest.raises(InterpreterError, match=r"persistent 'tmp0' has shape \(4, 8\)"):
        run(g, large, make_inputs(program, large, seed=0), persistent=persistent)
    persistent["tmp0"] = np.zeros((4, 9), dtype=np.float32)
    with pytest.raises(InterpreterError, match="persistent 'tmp0' .* dtype float32"):
        run(g, large, make_inputs(program, large, seed=0), persistent=persistent)


def test_texpr_keeps_hash_text_and_negation():
    """A scalar expression keeps its hash, which is still the hash of its
    fields (so set and dict orders do not move), its text and its
    negation; copies and pickles recompute them.  Equal values of other
    types compare and hash equal but keep their own text, which keys use."""
    e = parse_texpr("a + 1.0 * b < c and not d")
    assert hash(e) == hash((e.op, e.left, e.right)) == e.__dict__["_hash"]
    assert hash(e.right) == hash((e.right.op, e.right.operand))
    assert texpr.to_text(e) is texpr.to_text(e) and texpr.negated(e) is texpr.negated(e)
    assert texpr.to_text(texpr.negated(e)) == "not (a + 1.0 * b < c and not d)"
    for twin in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert not {"_hash", "_text", "_negation"} & set(twin.__dict__)
        assert twin == e and hash(twin) == hash(e) and texpr.to_text(twin) == texpr.to_text(e)
    assert TNum(1) == TNum(1.0) and hash(TNum(1)) == hash(TNum(1.0)) == hash((1,))
    assert texpr.to_text(TNum(1)) != texpr.to_text(TNum(1.0))


def test_bindings_find_their_program_again(monkeypatch):
    """One graph object run at N=4, 6 and 4 gives, each time, the outputs
    and counters of a fresh copy run from an empty table; the third run
    validates and plans nothing, and a copy at N=6 finds the second run's
    program."""
    g = compile_kernel("jacobi_1d")
    program = frontend.parse(corpus_source("jacobi_1d"))
    cases = {n: ({"N": n, "TSTEPS": 3}, make_inputs(program, {"N": n, "TSTEPS": 3}, seed=n))
             for n in (4, 6)}
    fresh = {}
    for n, (symbols, inputs) in cases.items():
        clear_programs()
        fresh[n] = run(g.copy(), symbols, inputs)
    clear_programs()
    plans = Plans(monkeypatch)
    for n in (4, 6, 4):
        plans.reset()
        assert_same(run(g, *cases[n]), fresh[n])
    assert plans.none
    first, second = (interp.compile(g, cases[n][0]) for n in (4, 6))
    assert interp.compile(g.copy(), {"TSTEPS": 3, "N": 6}) is second is not first


def test_missing_binding_after_a_hit():
    """A run without N, after runs with it found their program, still
    reports the missing binding."""
    clear_programs()
    g, symbols, inputs = kernel("jacobi_1d")
    run(g, symbols, inputs)
    run(g, symbols, inputs)
    with pytest.raises(InterpreterError, match=r"missing symbol bindings: \['N'\]"):
        run(g, {"TSTEPS": symbols["TSTEPS"]}, inputs)


def test_unbound_shape_symbol_after_a_hit():
    """A transient sized by the loop counter ``t``, which a transition
    assigns, is sized when ``t`` is bound and refused when it is not, after
    runs that bound it found their program."""
    clear_programs()
    g, symbols, inputs = kernel("jacobi_1d")
    g.add_array("X", DType.F64, (Sym("t"),), transient=True)
    for _ in range(2):
        run(g, {**symbols, "t": 2}, inputs)
    with pytest.raises(InterpreterError, match="cannot size container 'X': its shape uses "
                                               "unbound symbol 't'"):
        run(g, symbols, inputs)


def test_grid_limit_patched_between_runs_gives_a_new_program(monkeypatch):
    clear_programs()
    g, symbols, inputs = kernel("doitgen", optimized=True)
    before = run(g, symbols, inputs)
    program = interp.compile(g, symbols)
    assert interp.compile(g, symbols) is program
    monkeypatch.setattr(interp, "_GRID_LIMIT", 1)
    assert interp.compile(g, symbols) is not program
    assert_same(run(g, symbols, inputs), before)
    monkeypatch.undo()
    assert interp.compile(g, symbols) is program
