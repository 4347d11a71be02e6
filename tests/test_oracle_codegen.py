"""The oracle's generated code against the closure translator it replaced.

``reference_evaluate`` below is the oracle as it ran before each function was
written out as Python text: every function body it reaches is translated, per
call, into nested closures over a frame dict.  Both must give equal outputs
(name, dtype, shape and bytes) or raise the same exception type with the same
message on the corpus at every pinned extent, the nested-call and lowering
programs, the programs of ``test_oracle_suite``, the refused programs of
``test_oracle_pin``, hand-written edge cases and drawn inputs and extents.
"""

from __future__ import annotations

import copy
import math
import operator
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from conftest import ALL_KERNELS, KERNEL_SYMBOLS, corpus_source, make_inputs
from sdfgkit import frontend
from sdfgkit.frontend import oracle
from sdfgkit.frontend.dsl_ast import (
    EBin, ECall, EName, ENum, ESlice, ESub, EUn, Expr, FuncDef, Param, Program,
    SAssign, SCall, SFor, SIf, Stmt,
)
from sdfgkit.frontend.oracle import OracleError
from test_oracle_pin import CASES, MEDIUM_EXECUTE, REFUSED, TIMESTEP_CONTROL
from test_optimizer_pin import LOWERING_PROGRAMS

# -- the closure translator ------------------------------------------------------

_NP_DTYPES = {"f64": np.float64, "i64": np.int64, "i32": np.int32}

_SCALAR_FNS = {
    "sqrt": math.sqrt, "exp": math.exp, "abs": abs, "pow": pow,
    "min": min, "max": max,
}

_BINARY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "//": operator.floordiv, "@": operator.matmul,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq, "!=": operator.ne,
}

# Augmented assignment: a variable gets ``x = x + v``, an array element or
# slice ``A[k] += v`` (numpy updates a slice in place).
_COMBINE = {"+=": operator.add, "-=": operator.sub, "*=": operator.mul}
_IN_PLACE = {"+=": operator.iadd, "-=": operator.isub, "*=": operator.imul}

# A marker for "not a constant" and "not in the frame"; never a value.
_ABSENT = object()

Run = Callable[[dict], None]  # a statement: run(frame)
Eval = Callable[[dict], object]  # an expression: value = ev(frame)


def reference_evaluate(
    program: Program,
    symbols: dict[str, int],
    inputs: dict[str, np.ndarray | float],
    function: str | None = None,
) -> dict[str, np.ndarray]:
    """``oracle.evaluate_program`` as the closure translator ran it."""
    f = program.function(function) if function else program.entry
    tr = _Translator(program, symbols)
    frame: dict[str, object] = {}  # arrays, floats, ints
    outputs: dict[str, np.ndarray] = {}
    for p in f.params:
        if p.shape:
            if p.name not in inputs:
                raise OracleError(f"missing input array '{p.name}'")
            arr = np.array(inputs[p.name], dtype=_NP_DTYPES[p.dtype])
            want = tuple(tr.extent(d, frame) for d in p.shape)
            if arr.shape != want:
                raise OracleError(f"input '{p.name}' has shape {arr.shape}, want {want}")
            frame[p.name] = arr
            outputs[p.name] = arr
        elif p.dtype in ("i64", "i32"):
            if p.name not in symbols:
                raise OracleError(f"missing integer binding '{p.name}'")
            frame[p.name] = int(symbols[p.name])
        else:
            if p.name not in inputs:
                raise OracleError(f"missing scalar input '{p.name}'")
            box = np.array(float(np.asarray(inputs[p.name]).reshape(())), dtype=np.float64)
            frame[p.name] = box
            outputs[p.name] = box
    tr.body(f)(frame)
    return outputs


def _constant(value) -> Eval:
    return lambda frame: value


def _raising(exc: type[Exception], *args) -> Callable:
    """A closure that raises ``exc(*args)`` whenever it runs, so an error
    is raised when, and only if, the code that causes it is reached."""
    def run(*_):
        raise exc(*args)
    return run


def _slice(lo: Eval, hi: Eval, st: Eval) -> Eval:
    return lambda frame: slice(lo(frame), hi(frame), st(frame))


def _nothing(frame: dict) -> None:
    pass


class _Translator:
    """Translates the functions of one program for one ``evaluate_program``
    call.  Scalar parameters live in 0-d float64 boxes that assignments
    update in place; callees get arrays by reference and fresh scalars."""

    def __init__(self, program: Program, symbols: dict[str, int]):
        self.symbols = dict(symbols)
        self.functions = {f.name: f for f in program.functions}
        self.bodies: dict[int, Run] = {}  # id(FuncDef) -> its translated body

    def body(self, f: FuncDef) -> Run:
        run = self.bodies.get(id(f))
        if run is None:
            run = self.bodies[id(f)] = self.block(f.body)
        return run

    # -- statements ------------------------------------------------------------

    def block(self, stmts: list[Stmt]) -> Run:
        runs = tuple(r for r in map(self.stmt, stmts) if r is not None)
        if not runs:
            return _nothing
        if len(runs) == 1:
            return runs[0]

        def run(frame):
            for r in runs:
                r(frame)
        return run

    def stmt(self, s: Stmt) -> Run | None:
        """``None`` for a statement that does nothing (``return`` included)."""
        if isinstance(s, SAssign):
            return self.assign(s)
        if isinstance(s, SFor) and s.kind == "range":
            return self.range_loop(s)
        if isinstance(s, SFor):
            return self.map_nest(s)
        if isinstance(s, SIf):
            cond, then, orelse = self.expr(s.cond), self.block(s.then), self.block(s.orelse)

            def run(frame):
                if cond(frame):
                    then(frame)
                else:
                    orelse(frame)
            return run
        if isinstance(s, SCall):
            return self.call(s)
        return None

    def range_loop(self, s: SFor) -> Run:
        bounds, var, body = self.range_of(*s.ranges), s.names[0], self.block(s.body)

        def run(frame):
            for v in bounds(frame):
                frame[var] = v
                body(frame)
            frame.pop(var, None)
        return run

    def map_nest(self, s: SFor) -> Run:
        """All ranges are evaluated first, outermost first; the nest then
        runs as nested loops, each binding its variable when it advances
        and popping it when it ends."""
        bounds = tuple(self.range_of(r.lo, r.hi, r.step) for r in s.ranges)
        nest = self.map_level(s.names, len(bounds) - 1, self.block(s.body), innermost=True)
        for depth in reversed(range(len(bounds) - 1)):
            nest = self.map_level(s.names, depth, nest, innermost=False)

        def run(frame):
            nest(frame, [b(frame) for b in bounds])
        return run

    def range_of(self, start: Expr | None, stop: Expr, step: Expr | None) -> Eval:
        """``range(start, stop, step)``, the bounds evaluated in that order;
        an absent start is 0 and an absent step 1."""
        start = self.index(start) if start is not None else _constant(0)
        stop = self.index(stop)
        step = self.index(step) if step is not None else _constant(1)
        return lambda frame: range(start(frame), stop(frame), step(frame))

    @staticmethod
    def map_level(names: list[str], depth: int, inner: Callable, innermost: bool) -> Callable:
        """Loop ``depth`` of a map nest, ``run(frame, ranges)``; ``inner`` is
        the body at the innermost level and the next level above it."""
        if depth >= len(names):
            return _raising(IndexError, "list index out of range")
        var = names[depth]
        if innermost:
            def run(frame, ranges):
                for v in ranges[depth]:
                    frame[var] = v
                    inner(frame)
                frame.pop(var, None)
        else:
            def run(frame, ranges):
                for v in ranges[depth]:
                    frame[var] = v
                    inner(frame, ranges)
                frame.pop(var, None)
        return run

    def assign(self, s: SAssign) -> Run:
        value = self.expr(s.value)
        target = s.target
        if isinstance(target, EName):
            return self.assign_name(target.id, s.op, value)
        base, key, op = target.base, self.key(target), s.op

        def array(frame):
            arr = frame[base]
            if not isinstance(arr, np.ndarray):
                raise OracleError(f"'{base}' is not an array")
            return arr

        if op == "=":
            def run(frame):
                v = value(frame)
                array(frame)[key(frame)] = v
            return run
        update = _IN_PLACE[op]

        def run(frame):  # what ``arr[k] += v`` does
            v = value(frame)
            arr, k = array(frame), key(frame)
            arr[k] = update(arr[k], v)
        return run

    @staticmethod
    def assign_name(name: str, op: str, value: Eval) -> Run:
        """Assign to a variable, or into its 0-d box if it holds one."""
        if op == "=":
            def run(frame):
                v = value(frame)
                cur = frame.get(name)
                if isinstance(cur, np.ndarray) and cur.shape == ():
                    cur[()] = v
                else:
                    frame[name] = v
            return run
        combine = _COMBINE[op]

        def run(frame):
            v = value(frame)
            cur = frame[name]
            if isinstance(cur, np.ndarray) and cur.shape == ():
                # combine the element: a 0-d array operand takes numpy's slow path
                cur[()] = combine(cur[()], v)
            else:
                frame[name] = combine(cur, v)
        return run

    def call(self, s: SCall) -> Run:
        if s.fn.startswith("comm_"):
            return _raising(OracleError, "communication statements have no shared-memory oracle")
        callee = self.functions.get(s.fn)
        if callee is None:
            return _raising(KeyError, s.fn)
        binders = tuple(map(self.binder, callee.params, s.args))
        body = self.body

        def run(frame):
            sub = {}
            for bind in binders:
                bind(frame, sub)
            body(callee)(sub)
        return run

    def binder(self, p: Param, arg: Expr) -> Callable[[dict, dict], None]:
        """Binds parameter ``p`` of a callee's frame to ``arg``."""
        v, name = self.expr(arg), p.name
        if p.shape:
            def bind(frame, sub):
                x = v(frame)
                if not isinstance(x, np.ndarray):
                    raise OracleError(f"argument '{name}' must be an array")
                sub[name] = x  # by reference
        elif p.dtype in ("i64", "i32"):
            def bind(frame, sub):
                sub[name] = int(v(frame))
        else:
            def bind(frame, sub):
                sub[name] = np.array(float(v(frame)), dtype=np.float64)
        return bind

    # -- expressions -------------------------------------------------------------

    def expr(self, e: Expr) -> Eval:
        return self.term(e)[1]

    def term(self, e: Expr) -> tuple[object, Eval]:
        """``(value, ev)``: ``value`` is the constant ``e`` folds to when it
        is made of literals only (an operation that would raise is left to
        run time), else ``_ABSENT``."""
        if isinstance(e, ENum):
            c = float(e.value) if e.is_float else e.value
            return c, _constant(c)
        if isinstance(e, EName):
            return _ABSENT, self.name(e.id)
        if isinstance(e, ESub):
            base, key = e.base, self.key(e)
            return _ABSENT, lambda frame: frame[base][key(frame)]
        if isinstance(e, EUn):
            c, v = self.term(e.operand)
            if c is not _ABSENT:
                c = (not c) if e.op == "not" else -c
                return c, _constant(c)
            if e.op == "not":
                return _ABSENT, lambda frame: not v(frame)
            return _ABSENT, lambda frame: -v(frame)
        if isinstance(e, EBin):
            return self.binary(e)
        if isinstance(e, ECall):
            return _ABSENT, self.builtin(e)
        return _ABSENT, _raising(OracleError, f"cannot evaluate {type(e).__name__}")

    def name(self, n: str) -> Eval:
        """Frame first, then the symbols, else ``unbound name``; a 0-d box
        reads as its element."""
        if n in self.symbols:
            sym = self.symbols[n]
            missing = lambda: int(sym)
        else:
            missing = _raising(OracleError, f"unbound name '{n}'")

        def read(frame):
            v = frame.get(n, _ABSENT)
            if v.__class__ is int:
                return v
            if v is _ABSENT:
                return missing()
            if isinstance(v, np.ndarray) and v.shape == ():
                return v[()]
            return v
        return read

    def binary(self, e: EBin) -> tuple[object, Eval]:
        (a, left), (b, right) = self.term(e.left), self.term(e.right)
        if e.op == "and":
            return _ABSENT, lambda frame: bool(left(frame)) and bool(right(frame))
        if e.op == "or":
            return _ABSENT, lambda frame: bool(left(frame)) or bool(right(frame))
        op = _BINARY[e.op]
        if a is not _ABSENT and b is not _ABSENT and e.op != "@":
            try:
                c = op(a, b)
            except ArithmeticError:
                pass
            else:
                return c, _constant(c)
        if a is not _ABSENT:
            return _ABSENT, lambda frame: op(a, right(frame))
        if b is not _ABSENT:
            return _ABSENT, lambda frame: op(left(frame), b)
        return _ABSENT, lambda frame: op(left(frame), right(frame))

    def builtin(self, e: ECall) -> Eval:
        fn, args = e.fn, e.args
        if fn == "sum":
            if not args:
                return _raising(IndexError, "list index out of range")
            x = self.expr(args[0])
            if len(args) > 1:
                axis = self.index(args[1])
                return lambda frame: np.sum(x(frame), axis=axis(frame))
            # np.sum's value and type, without its dispatch
            return lambda frame: np.add.reduce(x(frame), axis=None)
        if fn in _SCALAR_FNS:
            f, vs = _SCALAR_FNS[fn], tuple(map(self.expr, args))
            if len(vs) == 1:
                (a,) = vs
                return lambda frame: f(a(frame))
            if len(vs) == 2:
                a, b = vs
                return lambda frame: f(a(frame), b(frame))
            return lambda frame: f(*[v(frame) for v in vs])
        if fn in ("zeros", "empty"):
            extents = tuple(map(self.index, args))
            return lambda frame: np.zeros(tuple([x(frame) for x in extents]), dtype=np.float64)
        if fn == "requests":
            if not args:
                return _raising(IndexError, "list index out of range")
            count = self.index(args[0])
            return lambda frame: np.zeros((count(frame),), dtype=np.int64)
        if fn in ("block_scatter", "block_gather"):
            return _raising(OracleError, "communication has no shared-memory oracle")
        return _raising(OracleError, f"unknown function '{fn}'")

    def index(self, e: Expr) -> Eval:
        return self.index_term(e)[1]

    def extent(self, e: Expr, frame: dict) -> int:
        """``index(e)(frame)``, evaluated at once: an integer literal and a
        symbol that the frame does not hide need no translation."""
        if isinstance(e, ENum) and not e.is_float:
            return int(e.value)
        if isinstance(e, EName) and e.id not in frame and e.id in self.symbols:
            return int(self.symbols[e.id])
        return self.index(e)(frame)

    def index_term(self, e: Expr) -> tuple[object, Eval]:
        """``e`` as a Python int, a 0-d array unwrapped first; the constant
        as in ``term``."""
        c, slow = self.term(e)
        if c is not _ABSENT:
            try:
                c = int(c)
            except (OverflowError, ValueError):
                pass
            else:
                return c, _constant(c)

        def index(frame):
            v = slow(frame)
            if v.__class__ is int:
                return v
            if isinstance(v, np.ndarray):
                v = v[()]
            return int(v)

        # an int variable is read straight from the frame; anything else
        # takes the full evaluation
        if isinstance(e, EName):
            n = e.id

            def var(frame):
                v = frame.get(n)
                return v if v.__class__ is int else index(frame)
            return _ABSENT, var
        return _ABSENT, index

    def key(self, e: ESub) -> Eval:
        """The subscript tuple of ``e``: ints for points, slices (bounds
        ``None`` where absent) for ranges, built left to right."""
        parts, fixed = [], True  # (constant or _ABSENT, closure)
        for ix in e.indices:
            if isinstance(ix, ESlice):
                ends = [(None, _constant(None)) if b is None else self.index_term(b)
                        for b in (ix.lo, ix.hi, ix.step)]
                if all(c is not _ABSENT for c, _ in ends):
                    part = (slice(*(c for c, _ in ends)), None)
                else:
                    part = (_ABSENT, _slice(*(f for _, f in ends)))
            else:
                part = self.index_term(ix)
            parts.append(part)
            fixed = fixed and part[0] is not _ABSENT
        if fixed:
            k = tuple(c for c, _ in parts)
            return lambda frame: k
        fs = tuple(f if c is _ABSENT else _constant(c) for c, f in parts)
        if len(fs) == 1:
            (a,) = fs
            return lambda frame: (a(frame),)
        if len(fs) == 2:
            a, b = fs
            return lambda frame: (a(frame), b(frame))
        if len(fs) == 3:
            a, b, c = fs
            return lambda frame: (a(frame), b(frame), c(frame))
        return lambda frame: tuple([f(frame) for f in fs])


# -- comparing the two ---------------------------------------------------------


def _outcome(evaluate, program: Program, symbols: dict, inputs: dict, function=None):
    """``("ok", outputs)`` or ``("raised", type, message)``.  The message of
    a ``RecursionError`` names the call in which Python ran out of depth, so
    only its type is kept."""
    try:
        out = evaluate(program, dict(symbols), copy.deepcopy(inputs), function)
    except RecursionError:
        return "raised", RecursionError
    except Exception as ex:  # noqa: BLE001 - every exception is compared
        return "raised", type(ex), str(ex)
    return "ok", {k: (v.dtype.str, v.shape, np.ascontiguousarray(v).tobytes())
                  for k, v in out.items()}


def assert_same(program: Program, symbols: dict, inputs: dict, function=None):
    want = _outcome(reference_evaluate, program, symbols, inputs, function)
    got = _outcome(oracle.evaluate_program, program, symbols, inputs, function)
    assert got == want
    return got


def _extents(program: Program) -> dict[str, int]:
    """Distinct small extents for every name in a parameter shape."""
    names = sorted({d.id for f in program.functions for p in f.params
                    for d in p.shape if isinstance(d, EName)})
    return {n: 3 + k for k, n in enumerate(names)}


def _inputs(program: Program, symbols: dict, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    inputs = {}
    for p in program.entry.params:
        if p.shape:
            shape = tuple(symbols[d.id] if isinstance(d, EName) else int(d.value)
                          for d in p.shape)
            inputs[p.name] = rng.uniform(-1.0, 1.0, shape)
        elif p.dtype == "f64":
            inputs[p.name] = float(rng.uniform(-1.5, 1.5))
    return inputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_cases(name):
    """The corpus at test, medium-execute and timestep-control extents, the
    nested-call program and the compiling lowering programs."""
    src, symbols, inputs = CASES[name]
    assert assert_same(frontend.parse(src), symbols, inputs)[0] == "ok"


def test_every_workload_extent_is_compared():
    scales = {n.split("@")[1] for n in CASES if "@" in n}
    assert scales == {"test", "medium", "timestep"}
    assert {n.split("@")[0] for n in CASES if "@medium" in n} == set(MEDIUM_EXECUTE)
    assert {n.split("@")[0] for n in CASES if "@timestep" in n} == set(TIMESTEP_CONTROL)


@pytest.mark.parametrize("name", sorted(LOWERING_PROGRAMS))
@pytest.mark.parametrize("seed", [0, 1])
def test_lowering_programs(name, seed):
    program = frontend.parse(LOWERING_PROGRAMS[name])
    symbols = _extents(program)
    assert_same(program, symbols, _inputs(program, symbols, seed))


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_programs(name):
    src, symbols, inputs = REFUSED[name]
    assert assert_same(frontend.parse(src), symbols, inputs)[1] is OracleError


SUITE = {
    "semantics": ("""
def g(Y: f64[N], c: f64):
    Y[0] = c
    c = 7.0

def f(A: f64[N], x: f64, y: f64):
    for i in range(N):
        A[i] = i
    return
    g(A, x)
    y = x > 0.0 and 3.0
""", {"N": 3}, {"A": np.zeros(3), "x": 0.5, "y": 0.0}),
    "range_variable_unbound": ("def f(A: f64[N]):\n    for i in range(N):\n"
                               "        A[i] = 1.0\n    A[0] = i\n",
                               {"N": 3}, {"A": np.zeros(3)}),
    "range_variable_symbol": ("def f(A: f64[N]):\n    for i in range(N):\n"
                              "        A[i] = 1.0\n    A[0] = i\n",
                              {"N": 3, "i": 2}, {"A": np.zeros(3)}),
    "map_variable_unbound": ("def f(A: f64[N]):\n    for i in map[0:N]:\n"
                             "        A[i] = 1.0\n    A[0] = i\n",
                             {"N": 3}, {"A": np.zeros(3)}),
    "map_variable_symbol": ("def f(A: f64[N]):\n    for i in map[0:N]:\n"
                            "        A[i] = 1.0\n    A[0] = i\n",
                            {"N": 3, "i": 2}, {"A": np.zeros(3)}),
    "variable_slices": ("def f(A: f64[N, N], B: f64[N, N]):\n"
                        "    for i in range(N - 1):\n"
                        "        B[i:i + 2, 1:N - i] = A[0:2, i:N - 1] + B[i:i + 2, 1:N - i]\n",
                        {"N": 4}, {"A": np.arange(16.0).reshape(4, 4),
                                   "B": np.ones((4, 4))}),
}


@pytest.mark.parametrize("name", sorted(SUITE))
def test_suite_programs(name):
    """The programs of ``test_oracle_suite``."""
    src, symbols, inputs = SUITE[name]
    assert_same(frontend.parse(src), symbols, inputs)


# name -> source; run on ``_extents`` and ``_inputs``.  Most are refused by
# the frontend's checks, which the oracle does not make.
EDGES = {
    "loop_variable_assigned": """
def f(A: f64[N]):
    for i in range(N):
        A[i] = i
        i = 2.5
        A[0] += i
    for j in map[0:N]:
        j += 1
        A[1] += j
""",
    "loop_variable_rebound": """
def f(A: f64[N]):
    for i in range(N):
        for i in range(2):
            A[i] += 1.0
        A[0] += i
""",
    "map_variable_rebound": """
def f(A: f64[N, N]):
    for i, i in map[0:N, 0:2]:
        A[i, 0] += 1.0
    for i, j in map[0:N, 0:N]:
        for j in map[0:2]:
            A[i, j] += 1.0
        A[i, 1] += j
""",
    "more_ranges_than_names": """
def f(A: f64[N]):
    A[0] = 5.0
    for i in map[0:N, 0:N]:
        A[i] = 1.0
""",
    "more_ranges_over_nothing": """
def f(A: f64[N]):
    for i in map[0:0, 0:N]:
        A[i] = 1.0
    A[0] = 2.0
""",
    "loop_variable_subscripted": """
def f(A: f64[N]):
    for i in range(N):
        i[0] = 1.0
""",
    "loop_variable_read_as_array": """
def f(A: f64[N]):
    for i in range(N):
        A[0] = i[0]
""",
    "loop_shadows_parameter": """
def f(A: f64[N], N: i64, x: f64):
    A[0] = N
    for N in range(2):
        A[N] += N
    A[1] = N
    for x in map[0:N]:
        A[x] += x
    A[2] = x
""",
    "loop_shadows_local": """
def f(A: f64[N]):
    t = 1.5
    for t in range(N):
        A[t] = t
    A[0] = t
""",
    "non_finite_constants": """
def f(A: f64[N]):
    A[0] = 1e308 * 10.0
    A[1] = -(1e308 * 10.0)
    A[2] = 1e308 * 10.0 - 1e308 * 10.0
""",
    "non_finite_index": """
def f(A: f64[N]):
    A[0] = 1.0
    A[1e308 * 10.0] = 2.0
""",
    "float_division_by_zero": """
def f(A: f64[N]):
    A[0] = 3.0
    A[1] = 1.0 / 0.0
""",
    "int_division_by_zero": """
def f(A: f64[N]):
    A[0] = 3.0
    A[1] = 1 // 0
""",
    "constant_matmul": """
def f(A: f64[N]):
    A[0] = 2.0 @ 3.0
""",
    "huge_integers": """
def f(A: f64[N]):
    A[0] = 123456789012345678901234567890123 * 1.0
    A[1] = 99999999999999999999999999999 // 12345678901234567890123
    A[2] = -123456789012345678901234567890123 // 1000000000000000000000000000000
""",
    "zero_d_local": """
def f(A: f64[N]):
    t = zeros()
    t = 3.0
    t += 1.5
    A[0] = t
    A[1] = t * 2.0
""",
    "unbound_augmented": """
def f(A: f64[N]):
    q += 1.0
""",
    "symbol_augmented": """
def f(A: f64[N]):
    N += 1
""",
    "constant_conditions": """
def f(A: f64[N], x: f64):
    if 1.0 < 2.0:
        A[0] = 1.0
    else:
        A[0] = 2.0
    if 0.0:
        A[1] = 1.0
    if not 0.0:
        A[2] = 1.0
""",
    "logic_and_comparisons": """
def f(A: f64[N], x: f64, y: f64):
    y = (x < 1.0) < 2.0
    A[0] = y
    y = not x > 0.0 and x < 2.0 or not x
    A[1] = y
    A[2] = (x == x) + (x != 1.0) + (x >= 0.0) * (x <= 0.0)
    A[0] += not not x
""",
    "arithmetic_shapes": """
def f(A: f64[N], x: f64):
    A[0] = x - (x - 1.0) - -x * -(x + 1.0)
    A[1] = x / (x / 2.0) // 0.5 - 3 // 2 * 2
    A[2] = -(x * 2.0) + 1 - 2 - 3 + 2 * -x
""",
    "negative_steps": """
def f(A: f64[N], B: f64[N]):
    for i in range(1, N):
        B[i:0:-1] = A[N - 1:N - 1 - i:-1]
    for i in range(N - 1, -1, -2):
        A[i] = B[-1 - i]
""",
    "float_and_box_indices": """
def f(A: f64[N], x: f64):
    t = 1.5
    A[t] = 7.0
    A[x * 0.0] = 8.0
    for i in range(N):
        A[i * 0.5 // 1] += 1.0
        A[i / 2] += 1.0
        A[i:i + 1.0] *= 2.0
""",
    "callee_bindings": """
def g(A: f64[N], n: i64, c: f64):
    A[n] = c
    A[1] += n
    A[2] -= c / 0.0
    c = 5.0
    A[0] += c

def h(A: f64[N], B: f64[N]):
    B[0] = 1.0

def f(A: f64[N], x: f64):
    g(A, 1, x)
    for i in range(N - 1):
        g(A, i + 1, i)
    g(A, 2.7, x * 2.0)
    g(A, 0, x, q)
    A[2] = x
""",
    "callee_missing_argument": """
def h(A: f64[N], B: f64[N]):
    B[0] = 1.0

def f(A: f64[N]):
    h(A)
""",
    "unknown_callee": """
def f(A: f64[N]):
    A[0] = 1.0
    missing(A)
""",
    "builtins": """
def f(A: f64[N, M], v: f64[M], w: f64[N], x: f64):
    v[:] = sum(A, 0)
    w[:] = sum(A, 1)
    x = sum(A)
    r = requests(N)
    w[0] = sum(r) + sqrt(abs(x)) + exp(-abs(x)) + pow(2.0, 3) + min(x, 1.0) + max(1, 2)
    t = zeros(N, M)
    t[1, :] = v
    A[:, :] = t
    e = empty(M)
    v[:] = e
""",
    "builtin_argument_errors": """
def f(A: f64[N]):
    A[0] = 1.0
    A[1] = sum()
""",
    "requests_without_count": """
def f(A: f64[N]):
    A[0] = 1.0
    r = requests()
""",
    "scalar_function_arity": """
def f(A: f64[N]):
    A[0] = sqrt(1.0, 2.0)
""",
    "unreached_errors": """
def f(A: f64[N], x: f64):
    if x > 10.0:
        A[0] = foo(1.0)
        comm_waitall(A)
        B[0] = q
        A[0] = 1.0 / 0.0 + 1 // 0
        A[1e308 * 10.0] = 2.0 @ 3.0
    for i in range(0):
        missing(A)
        A[0] = block_scatter(A)
    A[1] = 2.0
""",
    "error_after_work": """
def f(A: f64[N]):
    for i in range(N):
        A[i] = 1.0 + i
        if i == 2:
            A[0] = q
""",
    "array_truth_value": """
def f(A: f64[N], x: f64):
    if A:
        x = 1.0
""",
    "sequential_loops_one_name": """
def f(A: f64[N, N]):
    for i in range(N):
        A[i, 0] = i
    for i in map[1:N]:
        for j in range(i):
            A[i, j] += i * j
    for i in map[0:N]:
        for j in map[0:i + 1]:
            A[i, j] -= 1.0
""",
    "deep_loops": "def f(A: f64[N]):\n" + "".join(
        "    " * (k + 1) + f"for i{k} in range({2 if k % 10 == 3 else 1}):\n" for k in range(45))
    + "    " * 46 + "A[i13] += i3 + 1.0\n",
    "deep_map": "def f(A: f64[N]):\n    for " + ", ".join(f"j{k}" for k in range(25))
    + " in map[" + ", ".join("0:1" if k % 5 else "0:2" for k in range(25)) + "]:\n"
    + "        for i in range(N):\n            A[i] += j20 + i\n",
    "long_sum": "def f(A: f64[N], x: f64):\n    A[0] = " + " + ".join(["x"] * 120) + "\n",
    "long_product": "def f(A: f64[N], x: f64):\n    A[0] = " + " - ".join(["x * 2.0"] * 60) + "\n",
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(EDGES))
@pytest.mark.parametrize("seed", [0, 1])
def test_edge_programs(name, seed):
    program = frontend.parse(EDGES[name])
    symbols = _extents(program)
    assert_same(program, symbols, _inputs(program, symbols, seed))


def test_expression_that_cannot_be_evaluated():
    """A slice outside a subscript raises where it is reached."""
    program = frontend.parse("def f(A: f64[N]):\n    A[0] = 1.0\n    A[1] = 2.0\n")
    program.entry.body[1].value = ESlice(program.entry.body[1].span, None, None, None)
    got = assert_same(program, {"N": 3}, {"A": np.zeros(3)})
    assert got == ("raised", OracleError, "cannot evaluate ESlice")


def test_extent_expressions():
    """A parameter's extent may read an earlier integer parameter."""
    program = frontend.parse("def f(n: i64, A: f64[n + 1, 2 * N]):\n    A[n, 0] = 1.0\n")
    assert_same(program, {"N": 2, "n": 3}, {"A": np.zeros((4, 4))})
    assert_same(program, {"N": 2, "n": 3}, {"A": np.zeros((3, 4))})
    program = frontend.parse("def f(N: f64, A: f64[N]):\n    A[0] = N\n")
    for n in (2, 3):
        assert_same(program, {"N": 3}, {"N": 2.0, "A": np.zeros(n)})


def test_named_function():
    program = frontend.parse(corpus_source("gemm") + "\ndef g(A: f64[N]):\n    A[0] = 1.0\n")
    symbols = dict(KERNEL_SYMBOLS["gemm"])
    inputs = make_inputs(frontend.parse(corpus_source("gemm")), symbols, seed=0)
    assert assert_same(program, symbols, inputs, function="gemm")[0] == "ok"


_CORPUS = {name: frontend.parse(corpus_source(name)) for name in ALL_KERNELS}


@settings(max_examples=60, deadline=None)
@given(name=hst.sampled_from(ALL_KERNELS), data=hst.data())
def test_drawn_extents_and_inputs(name, data):
    program = _CORPUS[name]
    symbols = {s: data.draw(hst.integers(1, 4 if s == "TSTEPS" else 7), label=s)
               for s in sorted(KERNEL_SYMBOLS[name])}
    seed = data.draw(hst.integers(0, 2**16), label="seed")
    assert assert_same(program, symbols, make_inputs(program, symbols, seed=seed))[0] == "ok"


# -- the table of compiled functions -----------------------------------------------


def test_symbol_sets_share_one_compiled_function():
    oracle._compiled.cache_clear()
    program = _CORPUS["doitgen"]
    for symbols in ({"NR": 2, "NQ": 3, "NP": 4}, {"NR": 3, "NQ": 2, "NP": 5}):
        oracle.evaluate_program(program, symbols, make_inputs(program, symbols))
    info = oracle._compiled.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    calls = frontend.parse(CASES["calls"][0])
    for n in (3, 5):
        oracle.evaluate_program(calls, {"N": n, "M": 2}, {
            "A": np.ones((n, 2)), "x": np.ones(2), "y": np.ones(n), "s": 1.5})
    info = oracle._compiled.cache_info()
    assert (info.misses, info.hits) == (3, 3)  # both functions, compiled once each


def test_table_is_bounded():
    maxsize = oracle._compiled.cache_info().maxsize
    assert maxsize is not None and maxsize > 0
    oracle._compiled.cache_clear()
    for k in range(maxsize + 5):
        program = frontend.parse(f"def f(A: f64[N]):\n    A[0] = {k}.0\n")
        out = oracle.evaluate_program(program, {"N": 1}, {"A": np.zeros(1)})
        assert out["A"][0] == k
    assert oracle._compiled.cache_info().currsize == maxsize


def test_warm_and_emptied_tables_agree():
    cases = sorted(n for n in CASES if n.endswith("@test") or n == "calls")

    def digests():
        out = {}
        for name in cases:
            src, symbols, inputs = CASES[name]
            out[name] = _outcome(oracle.evaluate_program, frontend.parse(src), symbols, inputs)
        return out

    digests()
    warm = digests()
    oracle._compiled.cache_clear()
    assert digests() == warm
