"""Direct big-step evaluation of the DSL AST over numpy arrays.

This evaluator is the independent reference for the whole pipeline: it never
touches the graph IR, the symbolic engine, or the interpreter.  Slices are
evaluated with raw Python/numpy semantics (including negative indices), so it
also cross-checks the frontend's symbolic slice rewriting.

Each ``evaluate_program`` call first translates every function body it
reaches, once, into nested Python closures over a frame dict, and then runs
them.  Operators, constant subexpressions and subscript shapes are resolved
while translating; the closures perform the same Python and numpy operations
in the same order as a walk of the tree would, so only the dispatch is gone.
Nothing translated outlives the call.
"""

from __future__ import annotations

import math
import operator
from typing import Callable

import numpy as np

from .dsl_ast import (
    EBin, ECall, EName, ENum, ESlice, ESub, EUn, Expr, FuncDef, Param, Program,
    SAssign, SCall, SFor, SIf, Stmt,
)

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


class OracleError(ValueError):
    pass


def evaluate_program(
    program: Program,
    symbols: dict[str, int],
    inputs: dict[str, np.ndarray | float],
    function: str | None = None,
) -> dict[str, np.ndarray]:
    """Run the entry function on copies of the inputs; returns all parameter
    containers (arrays as ndarrays, scalars as 0-d float64 arrays)."""
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
