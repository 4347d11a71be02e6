"""Name resolution, type/shape classification, and language restrictions.

Integer scalar parameters are promoted to symbols (they configure control
flow and sizes); float scalar parameters become scalar containers.  Shape
annotations implicitly declare size symbols with a lower bound of 1; promoted
integer parameters get a lower bound of 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .. import symbolic
from ..symbolic import SymExpr
from .dsl_ast import (
    EXPR_BUILTINS, STMT_BUILTINS, Diagnostic, EBin, ECall, EName, ENum, ESlice,
    ESub, EUn, Expr, FuncDef, Program, SAssign, SCall, SFor, SIf, Span, Stmt, walk,
)


class SemanticError(ValueError):
    def __init__(self, message: str, span: Span):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.raw_message = message


@dataclass
class Ty:
    """Classification of an expression value."""

    kind: str  # 'array' | 'scalar' | 'index'
    dtype: str = "f64"
    shape: tuple[SymExpr, ...] = ()

    @property
    def is_array(self) -> bool:
        return self.kind == "array"


@dataclass
class FuncInfo:
    func: FuncDef
    arrays: dict[str, tuple[str, tuple[SymExpr, ...]]] = field(default_factory=dict)
    float_scalars: dict[str, str] = field(default_factory=dict)  # name -> dtype
    int_params: list[str] = field(default_factory=list)  # promoted to symbols


@dataclass
class ProgramInfo:
    symbols: dict[str, int] = field(default_factory=dict)  # name -> lower bound
    funcs: dict[str, FuncInfo] = field(default_factory=dict)

    def with_bodies(self, functions: list[FuncDef]) -> ProgramInfo:
        """The same analysis for ``functions``, the analyzed functions with
        rewritten bodies: symbols and environments depend on parameters only."""
        return ProgramInfo(self.symbols,
                           {f.name: replace(self.funcs[f.name], func=f) for f in functions})


def analyze(program: Program) -> ProgramInfo:
    """Build the program-wide symbol table and per-function environments.

    Fills ``program.diagnostics`` with name-resolution errors (use before
    definition, container/symbol confusion) instead of raising, and stores
    the result as ``program.info``.
    """
    pi = ProgramInfo()
    diags = program.diagnostics

    # Pass 1: declare symbols from all shape annotations; collect params.
    for f in program.functions:
        fi = FuncInfo(f)
        pi.funcs[f.name] = fi
        for p in f.params:
            if p.shape:
                shape = []
                for dim in p.shape:
                    for name in _expr_names(dim):
                        if name not in pi.symbols:
                            pi.symbols[name] = 1
                for dim in p.shape:
                    try:
                        shape.append(to_symexpr(dim, pi, fi, set()))
                    except SemanticError as ex:
                        diags.append(Diagnostic("error", ex.span, ex.raw_message))
                        shape.append(symbolic.Const(1))
                fi.arrays[p.name] = (p.dtype, tuple(shape))
            elif p.dtype in ("i64", "i32"):
                fi.int_params.append(p.name)
                pi.symbols.setdefault(p.name, 1)
            else:
                fi.float_scalars[p.name] = p.dtype

    # Shape symbols must not collide with containers or scalar params.
    for f in program.functions:
        fi = pi.funcs[f.name]
        for p in f.params:
            if p.name in pi.symbols and (p.name in fi.arrays or p.name in fi.float_scalars):
                diags.append(
                    Diagnostic("error", p.span,
                               f"'{p.name}' is used both as a size symbol and a container")
                )

    # Pass 2: per-function name resolution (use-before-def, arity).
    for f in program.functions:
        _resolve_function(pi, pi.funcs[f.name], diags)
    program.info = pi
    return pi


def program_info(program: Program) -> ProgramInfo:
    """The analysis ``parse`` stored on ``program``.  A program built another
    way is analyzed on first use, without adding to its diagnostics."""
    if program.info is None:
        program.info = analyze(Program(program.functions, program.source))
    return program.info


def _expr_names(e: Expr) -> list[str]:
    return [x.id if isinstance(x, EName) else x.base
            for x in walk(e) if isinstance(x, (EName, ESub))]


def to_symexpr(e: Expr, pi: ProgramInfo, fi: FuncInfo, loop_vars: set[str]) -> SymExpr:
    """Convert an index-position expression into a symbolic integer."""
    if isinstance(e, ENum):
        if e.is_float:
            raise SemanticError("float literal in index position", e.span)
        return symbolic.Const(int(e.value))
    if isinstance(e, EName):
        if e.id in loop_vars or e.id in pi.symbols:
            return symbolic.Sym(e.id)
        if e.id in fi.arrays or e.id in fi.float_scalars:
            raise SemanticError(f"container '{e.id}' used in index position", e.span)
        raise SemanticError(f"unknown symbol '{e.id}' in index expression", e.span)
    if isinstance(e, EUn) and e.op == "-":
        return symbolic.Mul(symbolic.Const(-1), to_symexpr(e.operand, pi, fi, loop_vars))
    if isinstance(e, EBin) and e.op in ("+", "-", "*", "//"):
        l = to_symexpr(e.left, pi, fi, loop_vars)
        r = to_symexpr(e.right, pi, fi, loop_vars)
        ctor = {"+": symbolic.Add, "-": symbolic.Sub, "*": symbolic.Mul,
                "//": symbolic.FloorDiv}[e.op]
        return ctor(l, r)
    if isinstance(e, ECall) and e.fn in ("min", "max") and len(e.args) == 2:
        l = to_symexpr(e.args[0], pi, fi, loop_vars)
        r = to_symexpr(e.args[1], pi, fi, loop_vars)
        return symbolic.Min(l, r) if e.fn == "min" else symbolic.Max(l, r)
    raise SemanticError("expression not usable in index position", e.span)


def _resolve_function(pi: ProgramInfo, fi: FuncInfo, diags: list[Diagnostic]) -> None:
    defined: set[str] = (
        set(fi.arrays) | set(fi.float_scalars) | set(fi.int_params) | set(pi.symbols)
    )

    def check_expr(e: Expr | None, loop_vars: set[str]):
        if e is None:
            return
        for x in walk(e):
            if isinstance(x, (EName, ESub)):
                name = x.id if isinstance(x, EName) else x.base
                if name not in defined and name not in loop_vars:
                    diags.append(Diagnostic("error", x.span, f"use of undefined name '{name}'"))
            elif isinstance(x, ECall) and x.fn not in EXPR_BUILTINS and x.fn not in pi.funcs:
                diags.append(Diagnostic("error", x.span, f"unknown function '{x.fn}'"))

    def walk_stmts(stmts: list[Stmt], loop_vars: set[str]):
        for s in stmts:
            if isinstance(s, SAssign):
                check_expr(s.value, loop_vars)
                if isinstance(s.target, ESub):
                    check_expr(s.target, loop_vars)
                elif isinstance(s.target, EName):
                    if s.op != "=" and s.target.id not in defined and s.target.id not in loop_vars:
                        diags.append(
                            Diagnostic("error", s.target.span,
                                       f"augmented assignment to undefined '{s.target.id}'")
                        )
                    defined.add(s.target.id)
            elif isinstance(s, SFor):
                for r in s.ranges:
                    check_expr(r, loop_vars)
                if s.kind == "range" and len(s.names) != 1:
                    diags.append(
                        Diagnostic("error", s.span, "range loops bind exactly one variable")
                    )
                elif s.kind != "range" and len(s.names) != len(s.ranges):
                    diags.append(
                        Diagnostic("error", s.span,
                                   f"map binds {len(s.ranges)} dimensions to "
                                   f"{len(s.names)} names")
                    )
                walk_stmts(s.body, loop_vars | set(s.names))
            elif isinstance(s, SIf):
                check_expr(s.cond, loop_vars)
                walk_stmts(s.then, loop_vars)
                walk_stmts(s.orelse, loop_vars)
            elif isinstance(s, SCall):
                if s.fn not in pi.funcs and s.fn not in STMT_BUILTINS:
                    diags.append(Diagnostic("error", s.span, f"unknown function '{s.fn}'"))
                for a in s.args:
                    check_expr(a, loop_vars)

    walk_stmts(fi.func.body, set())


# ---------------------------------------------------------------------------
# Expression classification (shared by desugaring and lowering)


class TypeCtx:
    """Per-function typing context, updated as locals are assigned."""

    def __init__(self, pi: ProgramInfo, fi: FuncInfo):
        self.pi = pi
        self.fi = fi
        self.loop_vars: dict[str, int] = {}  # name -> assumed lower bound
        self.local_types: dict[str, Ty] = {}
        self.warnings: list[Diagnostic] = []

    def assumptions(self) -> symbolic.Assumptions:
        a = symbolic.Assumptions(dict(self.pi.symbols))
        for v, lb in self.loop_vars.items():
            a = a.with_bound(v, lb)
        return a

    def lookup(self, name: str, span: Span) -> Ty:
        if name in self.fi.arrays:
            dt, shape = self.fi.arrays[name]
            return Ty("array", dt, shape)
        if name in self.fi.float_scalars:
            return Ty("scalar", self.fi.float_scalars[name])
        if name in self.local_types:
            return self.local_types[name]
        if name in self.loop_vars or name in self.pi.symbols:
            return Ty("index", "i64")
        raise SemanticError(f"use of undefined name '{name}'", span)

    def symexpr(self, e: Expr) -> SymExpr:
        return to_symexpr(e, self.pi, self.fi, set(self.loop_vars))


def _shapes_conform(a: tuple, b: tuple, asm: symbolic.Assumptions) -> symbolic.Ternary:
    if len(a) != len(b):
        return symbolic.Ternary.FALSE
    verdicts = [symbolic.eq(x, y, asm) for x, y in zip(a, b)]
    return symbolic.t_and(*verdicts) if verdicts else symbolic.Ternary.TRUE


def resolve_subscript(ctx: TypeCtx, e: ESub) -> tuple["symbolic.SubsetRange", list[bool]]:
    """Resolve a subscript into a full-rank subset plus a kept-dimension mask.

    Negative begin/end values are rewritten against the symbolic dimension
    size (Python semantics); an index of unprovable sign is an error.
    """
    ty = ctx.lookup(e.base, e.span)
    if not ty.is_array:
        raise SemanticError(f"'{e.base}' is not an array", e.span)
    if (
        len(e.indices) == 1
        and len(ty.shape) > 1
        and isinstance(e.indices[0], ESlice)
        and e.indices[0].lo is None
        and e.indices[0].hi is None
        and e.indices[0].step is None
    ):
        # `A[:]` addresses the whole container whatever its rank
        e = ESub(e.span, e.base, [ESlice(e.span, None, None, None) for _ in ty.shape])
    if len(e.indices) != len(ty.shape):
        raise SemanticError(
            f"'{e.base}' has rank {len(ty.shape)}, subscript has {len(e.indices)}", e.span
        )
    asm = ctx.assumptions()
    dims = []
    kept = []

    def resolve_point(x: Expr, size: SymExpr, *, end_excl: bool = False) -> SymExpr:
        v = symbolic.simplify(ctx.symexpr(x))
        nonneg = symbolic.compare(symbolic.Const(0), v, asm)
        negative = symbolic.compare(v, symbolic.Const(-1), asm)
        if nonneg is symbolic.Ternary.TRUE:
            return v
        if negative is symbolic.Ternary.TRUE:
            return symbolic.simplify(symbolic.Add(size, v))
        raise SemanticError(f"sign of index '{v}' is not provable", x.span)

    for ix, size in zip(e.indices, ty.shape):
        if isinstance(ix, ESlice):
            b = resolve_point(ix.lo, size) if ix.lo is not None else symbolic.Const(0)
            if ix.hi is not None:
                hi = resolve_point(ix.hi, size)
                en = symbolic.simplify(symbolic.Sub(hi, symbolic.Const(1)))
            else:
                en = symbolic.simplify(symbolic.Sub(size, symbolic.Const(1)))
            st = symbolic.simplify(ctx.symexpr(ix.step)) if ix.step is not None else symbolic.Const(1)
            dims.append((b, en, st))
            kept.append(True)
        else:
            p = resolve_point(ix, size)
            dims.append((p, p, symbolic.Const(1)))
            kept.append(False)
    return symbolic.SubsetRange.make(dims), kept


def _logical(ctx: TypeCtx, *operands: Expr) -> Ty:
    """The type of a comparison or logical operation: element-wise over a
    whole-array operand, else a scalar ``bool``.  Other operands are checked
    where they are lowered."""
    for x in operands:
        if isinstance(x, EName):
            ty = ctx.lookup(x.id, x.span)
            if ty.is_array:
                return Ty("array", "bool", ty.shape)
    return Ty("scalar", "bool")


def array_operand(ctx: TypeCtx, cond: Expr) -> Expr | None:
    """The first operand of a condition's comparisons and logical operations
    whose value is an array, or None: a condition must be one truth value."""
    if isinstance(cond, EUn) and cond.op == "not":
        return array_operand(ctx, cond.operand)
    if isinstance(cond, EBin) and cond.op in _LOGICAL_OPS:
        return array_operand(ctx, cond.left) or array_operand(ctx, cond.right)
    return cond if classify(ctx, cond).is_array else None


_LOGICAL_OPS = ("<", "<=", ">", ">=", "==", "!=", "and", "or")


def classify(ctx: TypeCtx, e: Expr) -> Ty:
    """Type and symbolic shape of an expression."""
    if isinstance(e, ENum):
        return Ty("index", "i64") if not e.is_float else Ty("scalar", "f64")
    if isinstance(e, EName):
        return ctx.lookup(e.id, e.span)
    if isinstance(e, ESub):
        sub, kept = resolve_subscript(ctx, e)
        ty = ctx.lookup(e.base, e.span)
        lengths = [ln for ln, k in zip(sub.lengths(), kept) if k]
        if not lengths:
            return Ty("scalar", ty.dtype)
        return Ty("array", ty.dtype, tuple(lengths))
    if isinstance(e, EUn):
        if e.op == "not":
            return _logical(ctx, e.operand)
        return classify(ctx, e.operand)
    if isinstance(e, EBin):
        if e.op == "@":
            return _classify_matmul(ctx, e)
        if e.op in _LOGICAL_OPS:
            return _logical(ctx, e.left, e.right)
        lt_, rt = classify(ctx, e.left), classify(ctx, e.right)
        if lt_.is_array and rt.is_array:
            verdict = _shapes_conform(lt_.shape, rt.shape, ctx.assumptions())
            if verdict is symbolic.Ternary.FALSE:
                raise SemanticError(
                    f"shape mismatch in element-wise '{e.op}': "
                    f"{[str(s) for s in lt_.shape]} vs {[str(s) for s in rt.shape]}",
                    e.span,
                )
            if verdict is symbolic.Ternary.UNKNOWN:
                ctx.warnings.append(
                    Diagnostic("warning", e.span,
                               "element-wise shapes not provably equal")
                )
            return Ty("array", _join_dtype(lt_.dtype, rt.dtype), lt_.shape)
        if lt_.is_array:
            return lt_
        if rt.is_array:
            return rt
        if lt_.kind == "index" and rt.kind == "index" and e.op in ("+", "-", "*", "//"):
            return Ty("index", "i64")
        return Ty("scalar", _join_dtype(lt_.dtype, rt.dtype))
    if isinstance(e, ECall):
        if e.fn == "sum":
            arg = classify(ctx, e.args[0])
            if not arg.is_array:
                raise SemanticError("sum() needs an array argument", e.span)
            if len(e.args) == 1:
                return Ty("scalar", arg.dtype)
            axis = _const_int(ctx, e.args[1], e.span)
            if not 0 <= axis < len(arg.shape):
                raise SemanticError(f"sum() axis {axis} out of range", e.span)
            shape = tuple(s for i, s in enumerate(arg.shape) if i != axis)
            return Ty("array", arg.dtype, shape) if shape else Ty("scalar", arg.dtype)
        if e.fn in ("sqrt", "exp", "abs", "pow", "min", "max"):
            for a in e.args:
                if classify(ctx, a).is_array:
                    raise SemanticError(f"{e.fn}() takes scalar arguments", e.span)
            return Ty("scalar", "f64")
        if e.fn in ("zeros", "empty"):
            shape = tuple(symbolic.simplify(ctx.symexpr(a)) for a in e.args)
            return Ty("array", "f64", shape)
        if e.fn == "requests":
            return Ty("array", "i64", (symbolic.simplify(ctx.symexpr(e.args[0])),))
        if e.fn in ("block_scatter", "block_gather"):
            arg = classify(ctx, e.args[0])
            return Ty("array", arg.dtype, ())  # shape taken from the target
        if e.fn in ctx.pi.funcs:
            raise SemanticError("function calls are statements, not expressions", e.span)
        raise SemanticError(f"unknown function '{e.fn}'", e.span)
    raise SemanticError("expression not allowed here", e.span)


def _classify_matmul(ctx: TypeCtx, e: EBin) -> Ty:
    lt_, rt = classify(ctx, e.left), classify(ctx, e.right)
    if not lt_.is_array or not rt.is_array:
        raise SemanticError("'@' needs array operands", e.span)
    lr, rr = len(lt_.shape), len(rt.shape)
    asm = ctx.assumptions()

    def inner_check(a: SymExpr, b: SymExpr):
        verdict = symbolic.eq(a, b, asm)
        if verdict is symbolic.Ternary.FALSE:
            raise SemanticError(f"inner dimension mismatch in '@': {a} vs {b}", e.span)
        if verdict is symbolic.Ternary.UNKNOWN:
            ctx.warnings.append(
                Diagnostic("warning", e.span, f"inner dimensions of '@' not provably equal")
            )

    dt = _join_dtype(lt_.dtype, rt.dtype)
    if lr == 2 and rr == 2:
        inner_check(lt_.shape[1], rt.shape[0])
        return Ty("array", dt, (lt_.shape[0], rt.shape[1]))
    if lr == 2 and rr == 1:
        inner_check(lt_.shape[1], rt.shape[0])
        return Ty("array", dt, (lt_.shape[0],))
    if lr == 1 and rr == 2:
        inner_check(lt_.shape[0], rt.shape[0])
        return Ty("array", dt, (rt.shape[1],))
    raise SemanticError(f"rank mismatch for '@': {lr}-d @ {rr}-d", e.span)


def loop_var_bounds(ctx: TypeCtx, s: SFor) -> dict[str, int]:
    """Provable lower bounds for the variables a for-statement binds."""
    if s.kind != "range":
        return {name: max(0, _const_value(ctx, rng.lo) or 0)
                for name, rng in zip(s.names, s.ranges)}
    start, stop, step = s.ranges
    stepv = _const_value(ctx, step)
    if stepv is None or stepv > 0:
        lb = _const_value(ctx, start)
    elif stepv < 0:
        lb = _const_value(ctx, stop)
        lb = None if lb is None else lb + 1
    else:
        lb = None
    return {s.names[0]: 0 if lb is None else max(0, lb)}


def _const_value(ctx: TypeCtx, e: Expr | None) -> int | None:
    """The value of an index expression that simplifies to a constant."""
    if e is None:
        return None
    try:
        v = symbolic.simplify(ctx.symexpr(e))
    except SemanticError:
        return None
    return v.value if isinstance(v, symbolic.Const) else None


def _join_dtype(a: str, b: str) -> str:
    order = {"bool": 0, "i32": 1, "i64": 2, "f64": 3}
    return a if order.get(a, 3) >= order.get(b, 3) else b


def _const_int(ctx: TypeCtx, e: Expr, span: Span) -> int:
    v = symbolic.simplify(ctx.symexpr(e))
    if isinstance(v, symbolic.Const):
        return v.value
    raise SemanticError("expected an integer constant", span)


def contains_array_op(ctx: TypeCtx, e: Expr) -> bool:
    """Whether the expression contains an array-valued operation or a
    matmul/reduction anywhere (not counting plain atoms)."""
    if isinstance(e, (ENum, EName)) or isinstance(e, ESub):
        return False
    if isinstance(e, EUn):
        return classify(ctx, e).is_array or contains_array_op(ctx, e.operand)
    if isinstance(e, EBin):
        if e.op == "@":
            return True
        return (
            classify(ctx, e).is_array
            or contains_array_op(ctx, e.left)
            or contains_array_op(ctx, e.right)
        )
    if isinstance(e, ECall):
        if e.fn in ("sum", "zeros", "empty", "requests", "block_scatter", "block_gather"):
            return True
        return any(contains_array_op(ctx, a) for a in e.args)
    return False


# ---------------------------------------------------------------------------
# Restriction checks


def check_restrictions(program: Program) -> list[Diagnostic]:
    """Language restrictions, one diagnostic id per restriction:

    R1  non-array container parameters (unparseable in this grammar; reserved)
    R2  dynamic typing constructs (unparseable in this grammar; reserved)
    R3  control-dependent variable state: a local first assigned under a
        condition or loop and used after the branch
    R4  recursion (direct or mutual)
    """
    diags: list[Diagnostic] = []
    pi = program_info(program)

    for f in program.functions:
        fi = pi.funcs[f.name]
        always = set(fi.arrays) | set(fi.float_scalars) | set(fi.int_params) | set(pi.symbols)
        _check_control_dependent(f.body, set(always), diags, set())

    # R4: call-graph cycles
    calls: dict[str, set[str]] = {f.name: set() for f in program.functions}
    for f in program.functions:
        calls[f.name] |= {x.fn for x in walk(*f.body) if isinstance(x, SCall) and x.fn in calls}

    state: dict[str, int] = {}

    def has_cycle(fn: str) -> bool:
        state[fn] = 1
        for callee in sorted(calls[fn]):
            if state.get(callee) == 1:
                return True
            if state.get(callee, 0) == 0 and has_cycle(callee):
                return True
        state[fn] = 2
        return False

    for f in program.functions:
        if state.get(f.name, 0) == 0 and has_cycle(f.name):
            diags.append(
                Diagnostic("error", f.span, f"recursion involving '{f.name}'", "R4")
            )
    return diags


def _check_control_dependent(
    stmts: list[Stmt], defined: set[str], diags: list[Diagnostic], loop_vars: set[str]
) -> set[str]:
    """Walk straight-line code tracking definitely-assigned locals; a use of a
    name only assigned on some paths is control-dependent variable state."""

    def check_use(e: Expr | None):
        if e is None:
            return
        for name in _expr_names(e):
            if name in maybe and name not in defined and name not in loop_vars:
                diags.append(
                    Diagnostic(
                        "error", e.span,
                        f"control-dependent variable state: '{name}' may be undefined",
                        "R3",
                    )
                )

    maybe: set[str] = set()  # assigned on some path only
    for s in stmts:
        if isinstance(s, SAssign):
            check_use(s.value)
            if isinstance(s.target, ESub):
                for i in s.target.indices:
                    check_use(i)
                check_use(EName(s.target.span, s.target.base))
            else:
                assert isinstance(s.target, EName)
                if s.op != "=":
                    check_use(s.target)
                defined.add(s.target.id)
                maybe.discard(s.target.id)
        elif isinstance(s, SIf):
            check_use(s.cond)
            d_then = _check_control_dependent(
                s.then, set(defined), diags, loop_vars
            )
            d_else = _check_control_dependent(
                s.orelse, set(defined), diags, loop_vars
            )
            new_both = (d_then & d_else) - defined
            new_any = (d_then | d_else) - defined
            defined |= new_both
            maybe |= new_any - new_both
        elif isinstance(s, SFor):
            for r in s.ranges:
                check_use(r)
            inner = _check_control_dependent(
                s.body, set(defined), diags, loop_vars | set(s.names)
            )
            maybe |= inner - defined  # body may run zero times
        elif isinstance(s, SCall):
            for a in s.args:
                check_use(a)
    return defined
