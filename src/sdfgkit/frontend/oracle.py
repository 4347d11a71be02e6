"""Direct big-step evaluation of the DSL AST over numpy arrays.

This evaluator is the independent reference for the whole pipeline: it never
touches the graph IR, the symbolic engine, or the interpreter.  Slices are
evaluated with raw Python/numpy semantics (including negative indices), so it
also cross-checks the frontend's symbolic slice rewriting.

Each function an ``evaluate_program`` call reaches is written out as the text
of one Python function of plain loops, subscripts and numpy calls, and that
text is compiled by a bounded table keyed on it (``_compiled``).  The text
depends on the program alone: symbol values, inputs, the constants that have
no literal and the callees are passed in when the function runs, so every
call of a program, whatever its extents, reuses one compiled function per
DSL function.  Operators, constant subexpressions and subscript shapes are
resolved while writing; the generated code performs the same Python and
numpy operations in the same order as a walk of the tree would.  Variables
live in a frame dict, except a loop variable that its loop body never
assigns or rebinds, which lives in a Python local.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .dsl_ast import (
    EBin, ECall, EName, ENum, ESlice, ESub, EUn, Expr, FuncDef, Program,
    SAssign, SCall, SFor, SIf, Stmt,
)

_NP_DTYPES = {"f64": np.float64, "i64": np.int64, "i32": np.int32}

# DSL scalar function -> the helper the generated code calls
_SCALAR_FNS = {
    "sqrt": "_sqrt", "exp": "_exp", "abs": "abs", "pow": "pow",
    "min": "min", "max": "max",
}

# DSL operator -> (Python operator, its precedence, what folds constants)
_BINARY = {
    "+": ("+", 12, operator.add), "-": ("-", 12, operator.sub),
    "*": ("*", 13, operator.mul), "/": ("/", 13, operator.truediv),
    "//": ("//", 13, operator.floordiv), "@": ("@", 13, operator.matmul),
    "<": ("<", 7, operator.lt), "<=": ("<=", 7, operator.le),
    ">": (">", 7, operator.gt), ">=": (">=", 7, operator.ge),
    "==": ("==", 7, operator.eq), "!=": ("!=", 7, operator.ne),
}
_COMPARE = 7
_INT_OPS = ("+", "-", "*", "//")  # an int on each side gives an int
_ATOM = 100  # a literal, a name, a call, a subscript, a parenthesized form
_MAX_LOOPS = 20  # the loops Python nests statically in one function

# Augmented assignment: a variable gets ``x = x + v``, an array element or
# slice ``A[k] += v`` (numpy updates a slice in place).
_COMBINE = {"+=": "+", "-=": "-", "*=": "*"}

# A marker for "not a constant" and "not in the frame"; never a value.
_ABSENT = object()
_WHOLE = slice(None)  # ``:``


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
    run = _Run(program, symbols)
    frame: dict[str, object] = {}  # arrays, floats, ints
    outputs: dict[str, np.ndarray] = {}
    for p in f.params:
        if p.shape:
            if p.name not in inputs:
                raise OracleError(f"missing input array '{p.name}'")
            arr = np.array(inputs[p.name], dtype=_NP_DTYPES[p.dtype])
            want = tuple([run.extent(d, f, frame) for d in p.shape])
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
    run(f, frame)
    return outputs


# -- what the generated code calls ---------------------------------------------


def _load(v, symbols: dict, name: str):
    """A variable's value as the frame held it (``_ABSENT`` if it did not):
    the symbol when unbound, else ``unbound name``; a 0-d box reads as its
    element."""
    if v is _ABSENT:
        if name in symbols:
            return int(symbols[name])
        raise OracleError(f"unbound name '{name}'")
    if isinstance(v, np.ndarray) and v.shape == ():
        return v[()]
    return v


def _symbol(symbols: dict, name: str) -> int:
    """A name that no frame of its function can hold."""
    if name in symbols:
        return int(symbols[name])
    raise OracleError(f"unbound name '{name}'")


def _index(v) -> int:
    """A subscript, range bound or extent as a Python int, a 0-d array
    unwrapped first."""
    if v.__class__ is int:
        return v
    if isinstance(v, np.ndarray):
        v = v[()]
    return int(v)


def _raise(exc: type[Exception], *args):
    """Raises ``exc(*args)`` where an expression is reached."""
    raise exc(*args)


_HELPERS = {
    "_A": _ABSENT, "_nd": np.ndarray, "_Err": OracleError, "_load": _load,
    "_sym": _symbol, "_index": _index, "_raise": _raise, "_array": np.array,
    "_zeros": np.zeros, "_reduce": np.add.reduce, "_npsum": np.sum,
    "_f64": np.float64, "_i64": np.int64, "_sqrt": math.sqrt, "_exp": math.exp,
}


@functools.lru_cache(maxsize=256)
def _compiled(text: str):
    """The function ``_fn(F, S, K, _call)`` that ``text`` defines: ``F`` is
    the frame, ``S`` the symbols, ``K`` the constants without a literal and
    ``_call(name, frame)`` runs a callee."""
    namespace = dict(_HELPERS)
    exec(compile(text, "<dsl oracle>", "exec"), namespace)
    return namespace["_fn"]


class _Run:
    """The functions of one program for one ``evaluate_program`` call, each
    written out and looked up in ``_compiled`` when first reached.  Scalar
    parameters live in 0-d float64 boxes that assignments update in place;
    callees get arrays by reference and fresh scalars."""

    def __init__(self, program: Program, symbols: dict[str, int]):
        self.symbols = dict(symbols)
        self.functions = {f.name: f for f in program.functions}
        self.bodies: dict[int, tuple] = {}  # id(FuncDef) -> (function, constants)

    def __call__(self, f: FuncDef, frame: dict) -> None:
        body = self.bodies.get(id(f))
        if body is None:
            text, consts = _Writer(self.functions).function(f)
            body = self.bodies[id(f)] = (_compiled(text), consts)
        fn, consts = body
        fn(frame, self.symbols, consts, self.call)

    def call(self, name: str, frame: dict) -> None:
        self(self.functions[name], frame)

    def extent(self, e: Expr, f: FuncDef, frame: dict) -> int:
        """An extent of a parameter of ``f``, evaluated at once: an integer
        literal and a symbol that the frame does not hide need no code."""
        if isinstance(e, ENum) and not e.is_float:
            return int(e.value)
        if isinstance(e, EName) and e.id not in frame and e.id in self.symbols:
            return int(self.symbols[e.id])
        text, consts = _Writer(self.functions).extent(e, f)
        return _compiled(text)(frame, self.symbols, consts, self.call)


# -- writing a function out ------------------------------------------------------


def _literal(c) -> str | None:
    """Python text that compiles to the constant ``c``, if there is one."""
    if c.__class__ in (bool, int) or (c.__class__ is float and math.isfinite(c)):
        text = repr(c)
        return f"({text})" if text.startswith("-") else text
    return None


def _wrap(code: str, prec: int, least: int) -> str:
    return code if prec >= least else f"({code})"


class _Writer:
    """Writes one DSL function as Python text.  An expression is written as
    a term ``(constant, code, precedence, is_int)``: ``constant`` is the
    value the expression folds to when it is made of literals only (an
    operation that would raise is left to run time; its code is then
    ``None`` until asked for), else ``_ABSENT``; ``is_int`` says the code
    always gives a Python int."""

    def __init__(self, functions: dict[str, FuncDef]):
        self.functions = functions
        self.lines: list[str] = []
        self.consts: list[object] = []  # K, read into the locals _k0, _k1, ...
        self.locals: dict[str, str] = {}  # loop variable -> its Python local
        self.framed: set[str] = set()  # the names a frame may hold
        self.in_frame: set[int] = set()  # id of each loop whose variables use the frame
        self.ranges = 0  # the map ranges held and nested functions written so far
        self.loops_open = 0  # the loops around the line being written

    def function(self, f: FuncDef) -> tuple[str, tuple]:
        self.framed = {p.name for p in f.params}
        self.plan(f.body)
        self.block(f.body, 1)
        return self.text(), tuple(self.consts)

    def extent(self, e: Expr, f: FuncDef) -> tuple[str, tuple]:
        """``_fn`` returns ``e``, an extent of a parameter of ``f``, as an
        index."""
        self.framed = {p.name for p in f.params}
        self.emit(1, f"return {self.index(e)}")
        return self.text(), tuple(self.consts)

    def text(self) -> str:
        head = "def _fn(F, S, K, _call):\n"
        if self.consts:
            head += "    " + "".join(f"_k{i}, " for i in range(len(self.consts))) + "= K\n"
        return head + "\n".join(self.lines) + "\n"

    def plan(self, stmts: list[Stmt]) -> set[str]:
        """The names ``stmts`` assign or bind as loop variables.  A loop
        whose body assigns or rebinds one of its variables (or a map that
        binds one twice) keeps its variables in the frame; the names a
        frame can hold are the parameters, the assigned names and those
        loops' variables."""
        names = set()
        for s in stmts:
            if isinstance(s, SAssign):
                if isinstance(s.target, EName):
                    names.add(s.target.id)
                    self.framed.add(s.target.id)
            elif isinstance(s, SFor):
                inner = self.plan(s.body)
                bound = s.names[:1] if s.kind == "range" else s.names
                if len(set(bound)) < len(bound) or not inner.isdisjoint(bound):
                    self.in_frame.add(id(s))
                    self.framed.update(bound)
                names |= inner
                names.update(bound)
            elif isinstance(s, SIf):
                names |= self.plan(s.then)
                names |= self.plan(s.orelse)
        return names

    def emit(self, depth: int, *lines: str) -> None:
        """Writes ``lines`` at ``depth``; a line may indent itself further."""
        indent = "    " * depth
        self.lines.append(indent + f"\n{indent}".join(lines))

    def constant(self, c) -> str:
        text = _literal(c)
        if text is None:
            text = f"_k{len(self.consts)}"
            self.consts.append(c)
        return text

    # -- statements --------------------------------------------------------------

    def block(self, stmts: list[Stmt], depth: int) -> None:
        start = len(self.lines)
        for s in stmts:
            self.stmt(s, depth)
        if len(self.lines) == start:
            self.emit(depth, "pass")

    def stmt(self, s: Stmt, depth: int) -> None:
        """A statement that does nothing (``return`` included) writes no line."""
        if isinstance(s, SAssign):
            self.assign(s, depth)
        elif isinstance(s, SFor) and s.kind == "range":
            self.loops(s, [s.names[0]], [self.range_of(*s.ranges)], depth)
        elif isinstance(s, SFor):
            self.map_nest(s, depth)
        elif isinstance(s, SIf):
            self.emit(depth, f"if {self.expr(s.cond)}:")
            self.block(s.then, depth + 1)
            if s.orelse:
                self.emit(depth, "else:")
                self.block(s.orelse, depth + 1)
        elif isinstance(s, SCall):
            self.call(s, depth)

    def map_nest(self, s: SFor, depth: int) -> None:
        """All ranges are evaluated first, outermost first; the nest then
        runs as nested loops, each binding its variable when it advances
        and unbinding it when it ends."""
        held = []
        for r in s.ranges:
            held.append(f"_r{self.ranges}")
            self.emit(depth, f"{held[-1]} = {self.range_of(r.lo, r.hi, r.step)}")
            self.ranges += 1
        if held and len(held) <= len(s.names):
            self.loops(s, s.names, held, depth)
        else:  # the level after the last variable's raises when reached
            self.loops(s, s.names if held else [], held, depth,
                       innermost="raise IndexError('list index out of range')")

    def loops(self, s: SFor, names: list[str], ranges: list[str], depth: int,
              innermost: str | None = None) -> None:
        """One loop per variable of ``names`` over the matching range, the
        body of ``s`` (or the ``innermost`` line) inside the last.  A loop
        nested deeper than Python allows starts a nested function, called
        where the loop starts."""
        in_frame, outer, open_before = id(s) in self.in_frame, dict(self.locals), self.loops_open
        after = []  # (depth, line) to write once the loop at that depth ends
        for var, r in zip(names, ranges):
            if self.loops_open == _MAX_LOOPS:
                nested = f"_d{self.ranges}"
                self.ranges += 1
                self.emit(depth, f"def {nested}():")
                after.append((depth, f"{nested}()"))
                depth, self.loops_open = depth + 1, 0
            if in_frame:
                self.locals.pop(var, None)
                self.emit(depth, f"for _l in {r}:", f"    F[{var!r}] = _l")
            else:
                # a DSL name in a local is prefixed, apart from every helper,
                # temporary and builtin, none of which starts with ``v_``
                self.locals[var] = f"v_{var}"
                self.emit(depth, f"for {self.locals[var]} in {r}:")
            if in_frame or var in self.framed:
                after.append((depth, f"F.pop({var!r}, None)"))
            depth, self.loops_open = depth + 1, self.loops_open + 1
        if innermost is not None:
            self.emit(depth, innermost)
        else:
            self.block(s.body, depth)
        for line in reversed(after):
            self.emit(*line)
        self.locals, self.loops_open = outer, open_before

    def range_of(self, start: Expr | None, stop: Expr, step: Expr | None) -> str:
        """``range(start, stop, step)``, the bounds evaluated in that order;
        an absent start is 0 and an absent step 1."""
        start = self.index(start) if start is not None else "0"
        stop = self.index(stop)
        step = self.index(step) if step is not None else "1"
        return f"range({start}, {stop}, {step})"

    def assign(self, s: SAssign, depth: int) -> None:
        value, target = self.expr(s.value), s.target
        if isinstance(target, EName):
            self.assign_name(target.id, s.op, value, depth)
            return
        op = "=" if s.op == "=" else _COMBINE[s.op] + "="
        message = f"'{target.base}' is not an array"
        # what ``arr[k] = v`` and ``arr[k] += v`` do, the key evaluated once
        self.emit(depth, f"_v = {value}", f"_a = {self.array(target.base)}",
                  "if not isinstance(_a, _nd):", f"    raise _Err({message!r})",
                  f"_a[{self.key(target)}] {op} _v")

    def assign_name(self, name: str, op: str, value: str, depth: int) -> None:
        """Assign to a variable, or into its 0-d box if it holds one."""
        if op == "=":
            self.emit(depth, f"_v = {value}", f"_c = F.get({name!r})",
                      "if isinstance(_c, _nd) and _c.shape == ():", "    _c[()] = _v",
                      "else:", f"    F[{name!r}] = _v")
            return
        combine = _COMBINE[op]
        # combine the element: a 0-d array operand takes numpy's slow path
        self.emit(depth, f"_v = {value}", f"_c = F[{name!r}]",
                  "if isinstance(_c, _nd) and _c.shape == ():",
                  f"    _c[()] = _c[()] {combine} _v",
                  "else:", f"    F[{name!r}] = _c {combine} _v")

    def call(self, s: SCall, depth: int) -> None:
        if s.fn.startswith("comm_"):
            self.emit(depth, "raise _Err('communication statements have no shared-memory oracle')")
            return
        callee = self.functions.get(s.fn)
        if callee is None:
            self.emit(depth, f"raise KeyError({s.fn!r})")
            return
        self.emit(depth, "_s = {}")
        for p, arg in zip(callee.params, s.args):  # binds each parameter in turn
            v, name = self.expr(arg), p.name
            if p.shape:
                message = f"argument '{name}' must be an array"
                self.emit(depth, f"_x = {v}", "if not isinstance(_x, _nd):",
                          f"    raise _Err({message!r})",
                          f"_s[{name!r}] = _x")  # by reference
            elif p.dtype in ("i64", "i32"):
                self.emit(depth, f"_s[{name!r}] = int({v})")
            else:
                self.emit(depth, f"_s[{name!r}] = _array(float({v}), dtype=_f64)")
        self.emit(depth, f"_call({s.fn!r}, _s)")

    # -- expressions -------------------------------------------------------------

    def expr(self, e: Expr) -> str:
        c, code, _, _ = self.term(e)
        return self.constant(c) if code is None else code

    def term(self, e: Expr) -> tuple[object, str | None, int, bool]:
        return _TERMS.get(e.__class__, _Writer.unknown)(self, e)

    def subscript(self, e: ESub) -> tuple[object, str, int, bool]:
        return _ABSENT, f"{self.array(e.base)}[{self.key(e)}]", _ATOM, False

    def number(self, e: ENum) -> tuple[object, None, int, bool]:
        return (float(e.value) if e.is_float else e.value), None, _ATOM, False

    def unary(self, e: EUn) -> tuple[object, str | None, int, bool]:
        c, v, prec, is_int = self.term(e.operand)
        if c is not _ABSENT:
            return (not c) if e.op == "not" else -c, None, _ATOM, False
        if e.op == "not":
            return _ABSENT, f"not {_wrap(v, prec, 6)}", 6, False
        return _ABSENT, f"-{_wrap(v, prec, 14)}", 14, is_int

    def function_call(self, e: ECall) -> tuple[object, str, int, bool]:
        return _ABSENT, self.builtin(e), _ATOM, False

    def unknown(self, e) -> tuple[object, str, int, bool]:
        return _ABSENT, self.raising(OracleError, f"cannot evaluate {type(e).__name__}"), _ATOM, False

    @staticmethod
    def raising(exc: type[Exception], message: str) -> str:
        name = "_Err" if exc is OracleError else exc.__name__
        return f"_raise({name}, {message!r})"

    def array(self, base: str) -> str:
        """What a subscript of ``base`` subscripts: its frame entry, or a
        loop variable's int."""
        return self.locals.get(base) or f"F[{base!r}]"

    def variable(self, e: EName) -> tuple[object, str, int, bool]:
        return self.name(e.id)

    def name(self, n: str) -> tuple[object, str, int, bool]:
        """Frame first, then the symbols, else ``unbound name``; a 0-d box
        reads as its element.  A loop variable in a local is an int."""
        if n in self.locals:
            return _ABSENT, self.locals[n], _ATOM, True
        if n not in self.framed:
            return _ABSENT, f"_sym(S, {n!r})", _ATOM, True
        # an int or an array of one or more dimensions is read as it is
        code = (f"(_t if (_t := F.get({n!r}, _A)).__class__ is int or "
                f"(_t.__class__ is _nd and _t.ndim) else _load(_t, S, {n!r}))")
        return _ABSENT, code, _ATOM, False

    def binary(self, e: EBin) -> tuple[object, str | None, int, bool]:
        (a, left, lp, li), (b, right, rp, ri) = self.term(e.left), self.term(e.right)
        op = e.op
        if op == "and" or op == "or":
            left = self.constant(a) if left is None else left
            right = self.constant(b) if right is None else right
            return _ABSENT, f"(bool({left}) {op} bool({right}))", _ATOM, False
        sym, prec, fold = _BINARY[op]
        if left is None:
            if right is None and op != "@":
                try:
                    return fold(a, b), None, _ATOM, False
                except ArithmeticError:
                    pass
            left, li = self.constant(a), a.__class__ is int
        if right is None:
            right, ri = self.constant(b), b.__class__ is int
        # comparisons chain in Python, so neither side of one goes bare
        if lp < prec or (lp == prec and prec == _COMPARE):
            left = f"({left})"
        if rp <= prec:
            right = f"({right})"
        return _ABSENT, f"{left} {sym} {right}", prec, li and ri and op in _INT_OPS

    def builtin(self, e: ECall) -> str:
        fn, args = e.fn, e.args
        if fn == "sum":
            if not args:
                return self.raising(IndexError, "list index out of range")
            x = self.expr(args[0])
            if len(args) > 1:
                return f"_npsum({x}, axis={self.index(args[1])})"
            # np.sum's value and type, without its dispatch
            return f"_reduce({x}, axis=None)"
        if fn in _SCALAR_FNS:
            return f"{_SCALAR_FNS[fn]}({', '.join(map(self.expr, args))})"
        if fn in ("zeros", "empty"):
            extents = "".join(f"{self.index(x)}, " for x in args)
            return f"_zeros(({extents}), dtype=_f64)"
        if fn == "requests":
            if not args:
                return self.raising(IndexError, "list index out of range")
            return f"_zeros(({self.index(args[0])},), dtype=_i64)"
        if fn in ("block_scatter", "block_gather"):
            return self.raising(OracleError, "communication has no shared-memory oracle")
        return self.raising(OracleError, f"unknown function '{fn}'")

    def index(self, e: Expr) -> str:
        c, code = self.index_term(e)
        return self.constant(c) if code is None else code

    def index_term(self, e: Expr) -> tuple[object, str | None]:
        """``e`` as a Python int, a 0-d array unwrapped first; the constant
        and its code as in ``term``."""
        c, code, _, is_int = self.term(e)
        if c is not _ABSENT:
            try:
                return int(c), None
            except (OverflowError, ValueError):
                code = self.constant(c)
        if is_int:
            return _ABSENT, code
        if isinstance(e, EName):
            # an int variable is read straight from the frame; anything else
            # takes the full evaluation
            n = e.id
            return _ABSENT, (f"(_t if (_t := F.get({n!r}, _A)).__class__ is int "
                             f"else _index(_load(_t, S, {n!r})))")
        return _ABSENT, f"(_t if (_t := {code}).__class__ is int else _index(_t))"

    def key(self, e: ESub) -> str:
        """The subscript tuple of ``e``: ints for points, slices (bounds
        ``None`` where absent) for ranges, built left to right."""
        parts, fixed = [], True  # (constant or _ABSENT, code or None)
        for ix in e.indices:
            if isinstance(ix, ESlice):
                if ix.lo is None and ix.hi is None and ix.step is None:
                    parts.append((_WHOLE, None))
                    continue
                ends = [(None, "") if b is None else self.index_term(b)
                        for b in (ix.lo, ix.hi, ix.step)]
                if all(c is not _ABSENT for c, _ in ends):
                    parts.append((slice(*(c for c, _ in ends)), None))
                    continue
                lo, hi, st = (self.constant(c) if code is None else code for c, code in ends)
                part = (_ABSENT, f"{lo}:{hi}:{st}" if st else f"{lo}:{hi}")
            else:
                part = self.index_term(ix)
            parts.append(part)
            fixed = fixed and part[1] is None
        if fixed:
            return self.constant(tuple(c for c, _ in parts))
        return "".join(f"{self.constant(c) if code is None else code}, " for c, code in parts)


# the writer of each kind of expression
_TERMS = {
    EName: _Writer.variable, ESub: _Writer.subscript, EBin: _Writer.binary,
    ENum: _Writer.number, EUn: _Writer.unary, ECall: _Writer.function_call,
}
