"""Single-operation form: compound array expressions become chains of
transient temporaries (`tmp0`, `tmp1`, ...) in evaluation order.

Pure-scalar expressions are left whole (they become one tasklet); array-valued
operations, matrix products, and reductions each get their own statement.
Assignments into a *partial* subset additionally compute into a temporary and
copy, so that every operation writes a whole fresh container.
"""

from __future__ import annotations

import copy

from .dsl_ast import (
    Diagnostic, EBin, ECall, EName, ENum, ESlice, ESub, EUn, Expr, FuncDef,
    Program, SAssign, SFor, SIf, Stmt,
)
from .sema import (
    ProgramInfo, SemanticError, Ty, TypeCtx, array_operand, contains_array_op,
    loop_var_bounds, program_info,
)

_ALLOC_FNS = ("zeros", "empty", "requests")
_COMM_EXPR_FNS = ("block_scatter", "block_gather")


class _Desugarer:
    def __init__(self, pi: ProgramInfo, fname: str):
        fi = pi.funcs[fname]
        self.ctx = TypeCtx(pi, fi)
        self.counter = 0
        self.taken = set(fi.arrays) | set(fi.float_scalars) | set(pi.symbols)

    def fresh_temp(self) -> str:
        while True:
            name = f"tmp{self.counter}"
            self.counter += 1
            if name not in self.taken:
                self.taken.add(name)
                return name

    def run(self, body: list[Stmt]) -> list[Stmt]:
        return self.stmts(body, in_map=False)

    def stmts(self, body: list[Stmt], in_map: bool) -> list[Stmt]:
        out: list[Stmt] = []
        for s in body:
            self.stmt(s, out, in_map)
        return out

    def stmt(self, s: Stmt, out: list[Stmt], in_map: bool) -> None:
        if isinstance(s, SAssign):
            self.assign(s, out, in_map)
        elif isinstance(s, SFor):
            saved = dict(self.ctx.loop_vars)
            self.ctx.loop_vars.update(loop_var_bounds(self.ctx, s))
            body = self.stmts(s.body, in_map or s.kind == "map")
            self.ctx.loop_vars = saved
            out.append(SFor(s.span, s.names, s.kind, s.ranges, body))
        elif isinstance(s, SIf):
            operand = array_operand(self.ctx, s.cond)
            if operand is not None:
                raise SemanticError("array-valued operand in a condition", operand.span)
            out.append(
                SIf(s.span, s.cond, self.stmts(s.then, in_map), self.stmts(s.orelse, in_map))
            )
        else:
            out.append(s)

    def assign(self, s: SAssign, out: list[Stmt], in_map: bool) -> None:
        if in_map:
            # map bodies are scalar-valued; keep whole expressions in one tasklet
            if contains_array_op(self.ctx, s.value) or self.ctx.type_of(s.value).is_array:
                raise SemanticError("array-valued operation inside a map body", s.span)
            if isinstance(s.target, EName):
                self.ctx.local_types.setdefault(s.target.id, Ty("scalar", "f64"))
            out.append(s)
            return

        value = s.value
        # allocations and communication intrinsics stay whole
        if isinstance(value, ECall) and value.fn in _ALLOC_FNS + _COMM_EXPR_FNS:
            if value.fn in _ALLOC_FNS:
                if not isinstance(s.target, EName):
                    raise SemanticError(f"{value.fn}() must assign to a plain name", s.span)
                name, ty = s.target.id, self.ctx.type_of(value)
                fi = self.ctx.fi
                if name in fi.arrays or name in fi.float_scalars:
                    raise SemanticError(f"{value.fn}() cannot rebind parameter '{name}'", s.span)
                # a container has one type, taken where it is first made
                old = self.ctx.local_types.setdefault(name, ty)
                if old != ty:
                    raise SemanticError(f"'{name}' is reallocated as {_spelled(ty)}; "
                                        f"it was made as {_spelled(old)}", s.span)
            out.append(s)
            return

        # rewrite augmented assignment outside maps: t ⊕= v  ->  t = t ⊕ v
        if s.op != "=":
            op = s.op[0]
            value = EBin(s.span, op, copy.deepcopy(s.target), value)

        value = self.split_root(value, out)
        target_ty = self.ctx.type_of(value)
        if isinstance(s.target, EName):
            self.ctx.local_types.setdefault(s.target.id, target_ty)
        elif self.is_partial_target(s.target) and not self.is_atom(value):
            # partial subset writes are plain copies of a fresh temporary
            tmp = self.fresh_temp()
            self.ctx.local_types[tmp] = target_ty
            out.append(SAssign(s.span, EName(s.span, tmp), "=", value))
            value = EName(s.span, tmp)
        out.append(SAssign(s.span, s.target, "=", value))

    def is_partial_target(self, target: Expr) -> bool:
        """Array-valued subset targets that do not cover the whole container.

        Fully-indexed element targets stay in place (a scalar tasklet); whole
        containers are written directly by the producing operation.
        """
        if not isinstance(target, ESub):
            return False
        if not any(isinstance(ix, ESlice) for ix in target.indices):
            return False  # scalar element target
        return not all(
            isinstance(ix, ESlice) and ix.lo is None and ix.hi is None and ix.step is None
            for ix in target.indices
        )

    def is_atom(self, e: Expr) -> bool:
        return isinstance(e, (ENum, EName, ESub))

    def split_root(self, e: Expr, out: list[Stmt]) -> Expr:
        """Split children, keeping the root operation in place."""
        if self.is_atom(e):
            return e
        # pure scalar expressions stay whole
        if not contains_array_op(self.ctx, e) and not self.ctx.type_of(e).is_array:
            return e
        # a node whose operands stay is kept, and so are its derivations
        if isinstance(e, EUn):
            operand = self.split_inner(e.operand, out)
            return e if operand is e.operand else EUn(e.span, e.op, operand)
        if isinstance(e, EBin):
            left = self.split_inner(e.left, out)
            right = self.split_inner(e.right, out)
            if left is e.left and right is e.right:
                return e
            return EBin(e.span, e.op, left, right)
        if isinstance(e, ECall) and e.fn == "sum":
            arg = self.split_inner(e.args[0], out)
            return e if arg is e.args[0] else ECall(e.span, e.fn, [arg, *e.args[1:]])
        raise SemanticError("expression not allowed here", e.span)

    def split_inner(self, e: Expr, out: list[Stmt]) -> Expr:
        if self.is_atom(e):
            return e
        if not contains_array_op(self.ctx, e) and not self.ctx.type_of(e).is_array:
            return e  # scalar subexpression, evaluated inside the tasklet
        root = self.split_root(e, out)
        tmp = self.fresh_temp()
        self.ctx.local_types[tmp] = self.ctx.type_of(root)
        out.append(SAssign(e.span, EName(e.span, tmp), "=", root))
        return EName(e.span, tmp)


def _spelled(ty: Ty) -> str:
    """``ty`` as a parameter declaration spells it."""
    return f"{ty.dtype}[{', '.join(map(str, ty.shape))}]" if ty.is_array else ty.dtype


def desugar(program: Program) -> Program:
    """Return a program in single-operation form (see module docstring).
    Its analysis holds each function's typing table, so that lowering reads
    the types desugaring derived instead of deriving them again."""
    pi = program_info(program)
    funcs = []
    typing = {}
    diags = list(program.diagnostics)
    for f in program.functions:
        d = _Desugarer(pi, f.name)
        try:
            body = d.run(f.body)
        except SemanticError as ex:
            diags.append(Diagnostic("error", ex.span, ex.raw_message))
            body = f.body
        diags.extend(d.ctx.warnings)
        funcs.append(FuncDef(f.name, f.params, body, f.span))
        typing[f.name] = d.ctx.table
    return Program(funcs, program.source, diags, pi.with_bodies(funcs, typing))
