"""Lowering from the desugared DSL AST to a statement-per-state graph.

Element-wise operations and slice assignments become parallel map scopes with
a per-element tasklet; `@` becomes a matmul library node; `sum()` a reduction
library node; scalar assignments become tasklets; `for range` loops become
guard/body states with condition and increment on the transitions; `map[..]`
blocks become parallel map scopes; `if` becomes branch conditions on
transitions; function calls become nested graphs.  Augmented assignments in a
map that cannot be proven conflict-free get write-conflict resolution.
"""

from __future__ import annotations

from .. import symbolic, texpr
from ..ir import (
    AccessNode, DType, LibKind, LibraryNode, MapEntry, MapExit, Memlet,
    NestedSdfg, Schedule, Sdfg, State, Tasklet, Wcr,
)
from ..symbolic import Const, SubsetRange, Sym, SymExpr, element_subset, propagate_subset
from ..texpr import TBin, TCall, TExpr, TNum, TRef, TUn
from .dsl_ast import (
    EBin, ECall, EName, ENum, ESlice, ESub, EUn, Expr, FuncDef, Program,
    SAssign, SCall, SFor, SIf, Span, SReturn, Stmt,
)
from .sema import (
    ProgramInfo, SemanticError, Ty, TypeCtx, analyze, classify, loop_var_bounds,
    resolve_subscript,
)

_WCR_FOR_OP = {"+=": Wcr.ADD, "-=": Wcr.ADD, "*=": Wcr.MUL}


class LowerError(SemanticError):
    pass


def lower(program: Program) -> Sdfg:
    """Lower the program's entry function (the last one in the file)."""
    pi = analyze(Program(program.functions, program.source, []))
    lw = _Lowerer(pi)
    return lw.lower_function(program.entry.name)


class _Lowerer:
    def __init__(self, pi: ProgramInfo):
        self.pi = pi
        self._memo: dict[str, Sdfg] = {}

    # -- function-level -------------------------------------------------------

    def lower_function(self, fname: str) -> Sdfg:
        if fname in self._memo:
            return self._memo[fname]
        fi = self.pi.funcs[fname]
        f = fi.func
        g = Sdfg(fname)
        for name, lb in self.pi.symbols.items():
            g.add_symbol(name, lb)
        for p in f.params:
            if p.name in fi.arrays:
                dt, shape = fi.arrays[p.name]
                g.add_array(p.name, DType(dt), shape)
            elif p.name in fi.float_scalars:
                g.add_scalar(p.name, DType(p.dtype))
            # integer parameters were promoted to symbols
        fl = _FuncLowerer(self, g, fi)
        fl.run(f.body)
        self._memo[fname] = g
        return g


class _Pending:
    """A dangling control-flow edge waiting for its destination state."""

    def __init__(self, src: str, condition=None, assignments=None):
        self.src = src
        self.condition = condition
        self.assignments = assignments or {}


class _FuncLowerer:
    def __init__(self, parent: _Lowerer, g: Sdfg, fi):
        self.parent = parent
        self.pi = parent.pi
        self.g = g
        self.fi = fi
        self.ctx = TypeCtx(self.pi, fi)
        self.pending: list[_Pending] = []
        self.counter = 0
        self.loop_counter = 0

    # -- state chaining --------------------------------------------------------

    def new_state(self, label: str | None = None) -> State:
        if label is None:
            label = f"s{self.counter}"
            self.counter += 1
        st = self.g.add_state(label)
        for p in self.pending:
            self.g.add_transition(p.src, label, p.condition, p.assignments)
        self.pending = [_Pending(label)]
        return st

    def run(self, body: list[Stmt]) -> None:
        self.pending = []
        self.stmts(body)
        if not self.g.states:
            self.new_state()
        elif len(self.pending) != 1 or self.pending[0].condition is not None:
            self.new_state("exit")
        if self.g.start is None:
            self.g.start = self.g.states[0].label

    def stmts(self, body: list[Stmt]) -> None:
        for i, s in enumerate(body):
            if isinstance(s, SReturn):
                if i != len(body) - 1:
                    raise LowerError("return must be the last statement", s.span)
                continue
            self.stmt(s)

    # -- statements -------------------------------------------------------------

    def stmt(self, s: Stmt) -> None:
        if isinstance(s, SAssign):
            self.assign(s)
        elif isinstance(s, SFor) and s.kind == "range":
            self.for_range(s)
        elif isinstance(s, SFor):
            self.for_map(s)
        elif isinstance(s, SIf):
            self.if_stmt(s)
        elif isinstance(s, SCall):
            self.call_stmt(s)
        else:
            raise LowerError(f"cannot lower {type(s).__name__}", s.span)

    def declare_local(self, name: str, ty: Ty, span: Span) -> None:
        if name in self.g.containers or name in self.pi.symbols:
            return
        if ty.is_array:
            self.g.add_array(name, DType(ty.dtype), ty.shape, transient=True)
        else:
            self.g.add_scalar(name, DType(ty.dtype if ty.dtype != "bool" else "f64"),
                              transient=True)
        self.ctx.local_types.setdefault(name, ty)

    def assign(self, s: SAssign) -> None:
        value = s.value
        if isinstance(value, ECall) and value.fn in ("zeros", "empty", "requests"):
            assert isinstance(s.target, EName)
            self.declare_local(s.target.id, classify(self.ctx, value), s.span)
            return
        if isinstance(value, ECall) and value.fn in ("block_scatter", "block_gather"):
            self.comm_collective(s, value)
            return

        target_ty, target_sub, target_kept, tname = self.resolve_target(s.target, value, s.span)
        vt = classify(self.ctx, value)

        if isinstance(value, EBin) and value.op == "@":
            self.matmul_stmt(s, tname, target_sub, target_kept)
            return
        if isinstance(value, ECall) and value.fn == "sum":
            self.reduce_stmt(s, tname, target_sub, target_kept)
            return
        if not vt.is_array and not target_ty.is_array:
            self.scalar_tasklet_stmt(s, tname)
            return
        self.elementwise_stmt(s, tname, target_sub, target_kept, value)

    def resolve_target(self, target: Expr, value: Expr, span: Span):
        if isinstance(target, EName):
            name = target.id
            if name not in self.g.containers and name not in self.pi.symbols:
                ty = classify(self.ctx, value)
                self.declare_local(name, ty, span)
            ty = self.ctx.lookup(name, span)
            if ty.is_array:
                sub = SubsetRange.full(ty.shape)
                return ty, sub, [True] * len(ty.shape), name
            return ty, SubsetRange(()), [], name
        assert isinstance(target, ESub)
        sub, kept = resolve_subscript(self.ctx, target)
        base_ty = self.ctx.lookup(target.base, target.span)
        lens = [ln for ln, k in zip(sub.lengths(), kept) if k]
        ty = Ty("array", base_ty.dtype, tuple(lens)) if lens else Ty("scalar", base_ty.dtype)
        return ty, sub, kept, target.base

    # -- scalar tasklet ---------------------------------------------------------

    def scalar_tasklet_stmt(self, s: SAssign, tname: str) -> None:
        st = self.new_state()
        router = _Router(self, st)
        code = router.to_texpr(s.value)
        if s.op != "=":
            # augmented scalar assignment at statement level (sequential)
            in_conn = router.route(tname, self.target_subset(s.target))
            op = {"+=": "+", "-=": "-", "*=": "*"}[s.op]
            code = TBin(op, TRef(in_conn), code)
        t = st.add(Tasklet(f"assign_{tname}", tuple(router.conn_order), ("out",),
                           (("out", code),)))
        router.connect_inputs(t)
        out_access = st.add(AccessNode(tname))
        st.add_edge(t, out_access, Memlet(tname, self.target_subset(s.target)),
                    src_conn="out")

    def target_subset(self, target: Expr) -> SubsetRange:
        if isinstance(target, EName):
            ty = self.ctx.lookup(target.id, target.span)
            return SubsetRange.full(ty.shape) if ty.is_array else SubsetRange(())
        assert isinstance(target, ESub)
        sub, _ = resolve_subscript(self.ctx, target)
        return sub

    # -- element-wise map -------------------------------------------------------

    def fresh_params(self, n: int) -> list[str]:
        taken = set(self.g.containers) | set(self.g.symbols) | set(self.ctx.loop_vars)
        out = []
        k = 0
        while len(out) < n:
            name = f"k{k}"
            k += 1
            if name not in taken:
                out.append(name)
        return out

    def elementwise_stmt(self, s: SAssign, tname, target_sub, target_kept, value) -> None:
        st = self.new_state()
        lens = [ln for ln, k in zip(target_sub.lengths(), target_kept) if k]
        params = self.fresh_params(len(lens))
        entry = st.add(
            MapEntry(
                tuple(
                    (p, (Const(0), symbolic.simplify(ln - 1), Const(1)))
                    for p, ln in zip(params, lens)
                ),
                Schedule.PARALLEL,
            )
        )
        exit_node = st.add(MapExit(entry))
        router = _Router(self, st, entry=entry, params=params,
                         target_kept=target_kept, target_sub=target_sub)
        code = router.to_texpr(value)
        t = st.add(Tasklet("compute", tuple(router.conn_order), ("out",), (("out", code),)))
        router.connect_inputs(t)
        elem = element_subset(target_sub, target_kept, params)
        st.add_edge(t, exit_node, Memlet(tname, elem), src_conn="out", dst_conn="IN_w0")
        out_access = st.add(AccessNode(tname))
        st.add_edge(exit_node, out_access, Memlet(tname, target_sub), src_conn="OUT_w0")

    # -- library statements ------------------------------------------------------

    def matmul_stmt(self, s: SAssign, tname, target_sub, target_kept) -> None:
        st = self.new_state()
        assert isinstance(s.value, EBin)
        node = st.add(LibraryNode(LibKind.MATMUL, "matmul"))
        for conn, operand in (("a", s.value.left), ("b", s.value.right)):
            sub, base, kept = self.atom_view(operand)
            node.attributes[f"{conn}_kept"] = kept
            acc = st.add(AccessNode(base))
            st.add_edge(acc, node, Memlet(base, sub), dst_conn=conn)
        node.attributes["out_kept"] = list(target_kept)
        out = st.add(AccessNode(tname))
        st.add_edge(node, out, Memlet(tname, target_sub), src_conn="out")

    def reduce_stmt(self, s: SAssign, tname, target_sub, target_kept) -> None:
        st = self.new_state()
        assert isinstance(s.value, ECall)
        arg = s.value.args[0]
        axes = None
        if len(s.value.args) > 1:
            axes = [int(symbolic.simplify(self.ctx.symexpr(s.value.args[1])).value)]
        sub, base, kept = self.atom_view(arg)
        node = st.add(LibraryNode(LibKind.REDUCE, "sum",
                                  {"op": "add", "axes": axes, "a_kept": kept,
                                   "out_kept": list(target_kept)}))
        acc = st.add(AccessNode(base))
        st.add_edge(acc, node, Memlet(base, sub), dst_conn="a")
        out = st.add(AccessNode(tname))
        st.add_edge(node, out, Memlet(tname, target_sub), src_conn="out")

    def atom_view(self, e: Expr) -> tuple[SubsetRange, str, list[bool]]:
        if isinstance(e, EName):
            ty = self.ctx.lookup(e.id, e.span)
            if not ty.is_array:
                raise LowerError(f"'{e.id}' is not an array", e.span)
            return SubsetRange.full(ty.shape), e.id, [True] * len(ty.shape)
        if isinstance(e, ESub):
            sub, kept = resolve_subscript(self.ctx, e)
            return sub, e.base, kept
        raise LowerError("expected an array operand", e.span)

    # -- control flow -------------------------------------------------------------

    def cond_texpr(self, e: Expr) -> TExpr:
        if isinstance(e, ENum):
            return TNum(e.value)
        if isinstance(e, EName):
            return TRef(e.id)
        if isinstance(e, EUn):
            return TUn("-" if e.op == "-" else "not", self.cond_texpr(e.operand))
        if isinstance(e, EBin):
            return TBin(e.op, self.cond_texpr(e.left), self.cond_texpr(e.right))
        if isinstance(e, ECall) and e.fn in ("sqrt", "exp", "abs", "pow", "min", "max"):
            return TCall(e.fn, tuple(self.cond_texpr(a) for a in e.args))
        raise LowerError("unsupported expression in condition", e.span)

    def for_range(self, s: SFor) -> None:
        var = s.names[0]
        start = symbolic.simplify(self.ctx.symexpr(s.ranges[0])) if s.ranges[0] is not None else Const(0)
        stop_e = s.ranges[1]
        stop = symbolic.simplify(self.ctx.symexpr(stop_e))
        step = 1
        if s.ranges[2] is not None:
            se = symbolic.simplify(self.ctx.symexpr(s.ranges[2]))
            if not isinstance(se, Const) or se.value == 0:
                raise LowerError("loop step must be a nonzero integer constant", s.span)
            step = se.value
        lb = loop_var_bounds(self.ctx, s)[var]
        self.g.add_symbol(var, lb)
        self.ctx.loop_vars[var] = lb

        if not self.pending:
            self.new_state()  # loop entry needs a predecessor for the init edge
        lid = self.loop_counter
        self.loop_counter += 1
        guard_label = f"loop{lid}_guard"
        guard = self.g.add_state(guard_label)
        for p in self.pending:
            self.g.add_transition(p.src, guard_label, p.condition,
                                  {**p.assignments, var: start})
        # condition uses the symbolic bound rendered into the scalar grammar
        cond = TBin("<" if step > 0 else ">", TRef(var),
                    texpr.parse_texpr(str(stop)))
        self.pending = [_Pending(guard_label, cond)]
        self.stmts(s.body)
        incr = {var: symbolic.simplify(Sym(var) + Const(step))}
        if len(self.pending) == 1 and self.pending[0].src == guard_label:
            # empty body: degenerate self-loop
            self.g.add_transition(guard_label, guard_label, cond, incr)
        else:
            for p in self.pending:
                self.g.add_transition(p.src, guard_label, p.condition,
                                      {**p.assignments, **incr})
        self.pending = [_Pending(guard_label, texpr.negated(cond))]
        del self.ctx.loop_vars[var]

    def if_stmt(self, s: SIf) -> None:
        if not self.pending:
            self.new_state()  # branches need a predecessor to hang conditions on
        cond = self.cond_texpr(s.cond)
        entry_pending = list(self.pending)
        self.pending = [
            _Pending(p.src, _and(p.condition, cond), p.assignments) for p in entry_pending
        ]
        self.stmts(s.then)
        then_pending = self.pending
        self.pending = [
            _Pending(p.src, _and(p.condition, texpr.negated(cond)), p.assignments)
            for p in entry_pending
        ]
        if s.orelse:
            self.stmts(s.orelse)
        self.pending = then_pending + self.pending

    # -- explicit parallel maps ----------------------------------------------------

    def for_map(self, s: SFor) -> None:
        st = self.new_state()
        params = []
        bounds = loop_var_bounds(self.ctx, s)
        for name, rng in zip(s.names, s.ranges):
            assert isinstance(rng, ESlice)
            b = symbolic.simplify(self.ctx.symexpr(rng.lo)) if rng.lo is not None else Const(0)
            if rng.hi is None:
                raise LowerError("map dimensions need an explicit end", s.span)
            e = symbolic.simplify(self.ctx.symexpr(rng.hi) - 1)
            stp = symbolic.simplify(self.ctx.symexpr(rng.step)) if rng.step is not None else Const(1)
            params.append((name, (b, e, stp)))
            self.ctx.loop_vars[name] = bounds[name]
        entry = st.add(MapEntry(tuple(params), Schedule.PARALLEL))
        exit_node = st.add(MapExit(entry))
        scope = _MapScopeLowerer(self, st, entry, exit_node, [p for p, _ in params])
        for stmt in s.body:
            if not isinstance(stmt, SAssign):
                raise LowerError("only assignments are allowed in map bodies", stmt.span)
            scope.assign(stmt)
        scope.finish()
        for name, _ in params:
            del self.ctx.loop_vars[name]

    # -- calls ------------------------------------------------------------------

    def call_stmt(self, s: SCall) -> None:
        if s.fn in ("comm_isend", "comm_irecv"):
            self.comm_p2p(s)
            return
        if s.fn == "comm_waitall":
            self.comm_waitall(s)
            return
        callee = self.pi.funcs.get(s.fn)
        if callee is None:
            raise LowerError(f"unknown function '{s.fn}'", s.span)
        inner_proto = self.parent.lower_function(s.fn)
        inner = inner_proto.copy()
        st = self.new_state()
        fi = callee

        # positional binding: arrays/scalars by name, integers feed symbols
        symbol_map: dict[str, SymExpr] = {sy: Sym(sy) for sy in inner.free_symbols()}
        node = st.add(NestedSdfg(inner, symbol_map))
        written = _written_params(callee.func)
        for p, arg in zip(callee.func.params, s.args):
            if p.name in fi.int_params:
                if not isinstance(arg, EName):
                    raise LowerError("integer arguments must be plain symbols", s.span)
                symbol_map[p.name] = Sym(arg.id)
                continue
            if not isinstance(arg, EName):
                raise LowerError("container arguments must be plain names", s.span)
            outer = arg.id
            ty = self.ctx.lookup(outer, arg.span)
            sub = SubsetRange.full(ty.shape) if ty.is_array else SubsetRange(())
            acc_in = st.add(AccessNode(outer))
            st.add_edge(acc_in, node, Memlet(outer, sub), dst_conn=p.name)
            if p.name in written:
                acc_out = st.add(AccessNode(outer))
                st.add_edge(node, acc_out, Memlet(outer, sub), src_conn=p.name)

    # -- communication statements --------------------------------------------------

    def comm_p2p(self, s: SCall) -> None:
        if len(s.args) != 4:
            raise LowerError(f"{s.fn} takes (view, peer, tag, request)", s.span)
        view, peer, tag, req = s.args
        sub, base, _ = self.atom_view(view)
        peer_e = symbolic.simplify(self.ctx.symexpr(peer))
        tag_e = symbolic.simplify(self.ctx.symexpr(tag))
        if not isinstance(req, ESub):
            raise LowerError("request argument must be a request-array element", s.span)
        req_sub, _ = resolve_subscript(self.ctx, req)
        st = self.new_state()
        kind = LibKind.ISEND if s.fn == "comm_isend" else LibKind.IRECV
        node = st.add(LibraryNode(kind, s.fn, {"peer": peer_e, "tag": tag_e}))
        if kind is LibKind.ISEND:
            acc = st.add(AccessNode(base))
            st.add_edge(acc, node, Memlet(base, sub), dst_conn="buf")
        else:
            acc = st.add(AccessNode(base))
            st.add_edge(node, acc, Memlet(base, sub), src_conn="buf")
        racc = st.add(AccessNode(req.base))
        st.add_edge(node, racc, Memlet(req.base, req_sub), src_conn="req")

    def comm_waitall(self, s: SCall) -> None:
        if len(s.args) != 1 or not isinstance(s.args[0], EName):
            raise LowerError("comm_waitall takes the request array", s.span)
        name = s.args[0].id
        ty = self.ctx.lookup(name, s.span)
        st = self.new_state()
        node = st.add(LibraryNode(LibKind.WAITALL, "comm_waitall"))
        a_in = st.add(AccessNode(name))
        a_out = st.add(AccessNode(name))
        sub = SubsetRange.full(ty.shape)
        st.add_edge(a_in, node, Memlet(name, sub), dst_conn="req")
        st.add_edge(node, a_out, Memlet(name, sub), src_conn="req")

    def comm_collective(self, s: SAssign, call: ECall) -> None:
        view_sub, view_base, _ = self.atom_view(call.args[0])
        tgt_sub = self.target_subset(s.target)
        tname = s.target.id if isinstance(s.target, EName) else s.target.base
        st = self.new_state()
        kind = LibKind.BLOCK_SCATTER if call.fn == "block_scatter" else LibKind.BLOCK_GATHER
        node = st.add(LibraryNode(kind, call.fn, {"scheme": "block"}))
        src = st.add(AccessNode(view_base))
        st.add_edge(src, node, Memlet(view_base, view_sub), dst_conn="a")
        dst = st.add(AccessNode(tname))
        st.add_edge(node, dst, Memlet(tname, tgt_sub), src_conn="out")


def _and(a: TExpr | None, b: TExpr) -> TExpr:
    return b if a is None else TBin("and", a, b)


def _written_params(f: FuncDef) -> set[str]:
    out: set[str] = set()

    def walk(stmts):
        for s in stmts:
            if isinstance(s, SAssign):
                t = s.target
                out.add(t.id if isinstance(t, EName) else t.base)
            elif isinstance(s, SFor):
                walk(s.body)
            elif isinstance(s, SIf):
                walk(s.then)
                walk(s.orelse)
            elif isinstance(s, SCall):
                if s.fn in ("comm_irecv",):
                    if isinstance(s.args[0], (EName, ESub)):
                        a = s.args[0]
                        out.add(a.id if isinstance(a, EName) else a.base)
                    out.add(s.args[3].base if isinstance(s.args[3], ESub) else s.args[3].id)
                elif s.fn == "comm_isend":
                    out.add(s.args[3].base if isinstance(s.args[3], ESub) else s.args[3].id)
                elif s.fn == "comm_waitall":
                    a = s.args[0]
                    out.add(a.id if isinstance(a, EName) else a.base)

    walk(f.body)
    return {n for n in out if n in {p.name for p in f.params}}


class _Router:
    """Connector allocation and input routing for a tasklet being built.

    At statement level, array atoms resolve to per-element subsets indexed by
    the surrounding map parameters; scalar containers are routed whole.
    """

    def __init__(self, fl: _FuncLowerer, st: State, entry: MapEntry | None = None,
                 params: list[str] | None = None, target_kept=None, target_sub=None):
        self.fl = fl
        self.st = st
        self.entry = entry
        self.params = params or []
        self.target_kept = target_kept
        self.target_sub = target_sub
        self.routes: dict[tuple, str] = {}
        self.conn_order: list[str] = []
        self.edges: list[tuple[str, str, SubsetRange, SubsetRange]] = []
        # (conn, container, outer subset, elem subset)

    def route(self, container: str, elem: SubsetRange, outer: SubsetRange | None = None) -> str:
        key = (container, str(elem))
        if key in self.routes:
            return self.routes[key]
        conn = f"in{len(self.conn_order)}"
        self.routes[key] = conn
        self.conn_order.append(conn)
        self.edges.append((conn, container, outer if outer is not None else elem, elem))
        return conn

    def connect_inputs(self, tasklet: Tasklet) -> None:
        for conn, container, outer, elem in self.edges:
            acc = self.st.add(AccessNode(container))
            if self.entry is not None:
                self.st.add_edge(acc, self.entry, Memlet(container, outer),
                                 dst_conn=f"IN_{conn}")
                self.st.add_edge(self.entry, tasklet, Memlet(container, elem),
                                 src_conn=f"OUT_{conn}", dst_conn=conn)
            else:
                self.st.add_edge(acc, tasklet, Memlet(container, elem), dst_conn=conn)
        if self.entry is not None and not self.edges:
            self.st.add_edge(self.entry, tasklet)  # dependency-only edge

    def to_texpr(self, e: Expr) -> TExpr:
        ctx = self.fl.ctx
        if isinstance(e, ENum):
            return TNum(e.value)
        if isinstance(e, EName):
            ty = ctx.lookup(e.id, e.span)
            if ty.kind == "index":
                return TRef(e.id)
            if ty.kind == "scalar":
                return TRef(self.route(e.id, SubsetRange(())))
            # whole-array operand: element access aligned with the target
            elem, outer = self.array_elem(e.id, SubsetRange.full(ty.shape),
                                          [True] * len(ty.shape))
            return TRef(self.route(e.id, elem, outer))
        if isinstance(e, ESub):
            sub, kept = resolve_subscript(ctx, e)
            if all(not k for k in kept):  # fully indexed: a scalar element
                return TRef(self.route(e.base, sub, self.propagate(sub)))
            elem, outer = self.array_elem(e.base, sub, kept)
            return TRef(self.route(e.base, elem, outer))
        if isinstance(e, EUn):
            return TUn("-" if e.op == "-" else "not", self.to_texpr(e.operand))
        if isinstance(e, EBin):
            return TBin(e.op, self.to_texpr(e.left), self.to_texpr(e.right))
        if isinstance(e, ECall) and e.fn in ("sqrt", "exp", "abs", "pow", "min", "max"):
            return TCall(e.fn, tuple(self.to_texpr(a) for a in e.args))
        raise LowerError("expression not allowed inside a tasklet", e.span)

    def array_elem(self, base: str, sub: SubsetRange, kept: list[bool]):
        """Element subset of an array operand, aligned with target kept dims."""
        kept_params = [p for p in self.params]
        n_kept = sum(1 for k in kept if k)
        if n_kept != len(kept_params):
            raise LowerError(
                f"operand '{base}' has {n_kept} iterated dimensions, "
                f"statement iterates {len(kept_params)}",
                self.fl.fi.func.span,
            )
        elem = element_subset(sub, kept, kept_params)
        return elem, sub

    def propagate(self, elem: SubsetRange) -> SubsetRange:
        return propagate_subset(elem, self.entry.params if self.entry else ())


class _MapScopeLowerer:
    """Lowers scalar-valued statements inside an explicit parallel map."""

    def __init__(self, fl: _FuncLowerer, st: State, entry: MapEntry, exit_node: MapExit,
                 params: list[str]):
        self.fl = fl
        self.st = st
        self.entry = entry
        self.exit = exit_node
        self.params = params
        self.scope_values: dict[str, AccessNode] = {}  # per-iteration scalar locals
        self.wrote_through_exit = False
        self.used_entry = False

    def assign(self, s: SAssign) -> None:
        ctx = self.fl.ctx
        router = _ScopeRouter(self, s.span)
        code = router.to_texpr(s.value)
        wcr: Wcr | None = None
        if isinstance(s.target, EName):
            tname = s.target.id
            ty = ctx.local_types.get(tname) or (
                ctx.lookup(tname, s.span)
                if tname in self.fl.g.containers
                else None
            )
            if ty is None or tname not in self.fl.g.containers:
                # per-iteration scalar local
                self.fl.declare_local(tname, Ty("scalar", "f64"), s.span)
            t_sub = SubsetRange(())
            is_param_local = tname in self.scope_values or self.fl.g.containers[tname].transient
        else:
            assert isinstance(s.target, ESub)
            tname = s.target.base
            t_sub, _ = resolve_subscript(ctx, s.target)
            is_param_local = False

        if s.op != "=":
            if _conflicts(t_sub, set(self.params)):
                wcr = _WCR_FOR_OP[s.op]
                if s.op == "-=":
                    code = TUn("-", code)
                elif s.op == "*=" and wcr is Wcr.MUL:
                    pass
            else:
                in_conn = router.route(tname, t_sub)
                op = {"+=": "+", "-=": "-", "*=": "*"}[s.op]
                code = TBin(op, TRef(in_conn), code)

        t = self.st.add(Tasklet(f"map_assign_{tname}", tuple(router.conn_order),
                                ("out",), (("out", code),)))
        router.connect(t)
        if isinstance(s.target, EName) and is_param_local:
            acc = self.st.add(AccessNode(tname))
            self.st.add_edge(t, acc, Memlet(tname, t_sub), src_conn="out")
            self.scope_values[tname] = acc
        else:
            m = Memlet(tname, t_sub, wcr=wcr)
            conn = f"w{len(self.st.out_edges(self.exit))}"
            self.st.add_edge(t, self.exit, m, src_conn="out", dst_conn=f"IN_{conn}")
            outer = propagate_subset(t_sub, self.entry.params)
            acc = self.st.add(AccessNode(tname))
            self.st.add_edge(self.exit, acc, Memlet(tname, outer, wcr=wcr),
                             src_conn=f"OUT_{conn}")
            self.wrote_through_exit = True

    def finish(self) -> None:
        if not self.wrote_through_exit:
            raise LowerError("map body never writes through the map exit",
                             self.fl.fi.func.span)


def _conflicts(t_sub: SubsetRange, params: set[str]) -> bool:
    """Whether two iterations may write the same cells (needs wcr)."""
    from ..ir import _pinned  # shared with validation

    return not _pinned(params, t_sub, t_sub) >= params


class _ScopeRouter:
    """Routes tasklet inputs inside an explicit map scope."""

    def __init__(self, scope: _MapScopeLowerer, span: Span):
        self.scope = scope
        self.span = span
        self.routes: dict[tuple, str] = {}
        self.conn_order: list[str] = []
        self.edges = []  # (conn, container, subset, via_scope_value)

    def route(self, container: str, sub: SubsetRange) -> str:
        key = (container, str(sub))
        if key in self.routes:
            return self.routes[key]
        conn = f"in{len(self.conn_order)}"
        self.routes[key] = conn
        self.conn_order.append(conn)
        self.edges.append((conn, container, sub))
        return conn

    def to_texpr(self, e: Expr) -> TExpr:
        ctx = self.scope.fl.ctx
        if isinstance(e, ENum):
            return TNum(e.value)
        if isinstance(e, EName):
            ty = ctx.lookup(e.id, e.span)
            if ty.kind == "index":
                return TRef(e.id)
            return TRef(self.route(e.id, SubsetRange(())))
        if isinstance(e, ESub):
            sub, kept = resolve_subscript(ctx, e)
            if any(kept):
                raise LowerError("sliced operands are not allowed in map bodies", e.span)
            return TRef(self.route(e.base, sub))
        if isinstance(e, EUn):
            return TUn("-" if e.op == "-" else "not", self.to_texpr(e.operand))
        if isinstance(e, EBin):
            return TBin(e.op, self.to_texpr(e.left), self.to_texpr(e.right))
        if isinstance(e, ECall) and e.fn in ("sqrt", "exp", "abs", "pow", "min", "max"):
            return TCall(e.fn, tuple(self.to_texpr(a) for a in e.args))
        raise LowerError("expression not allowed inside a tasklet", e.span)

    def connect(self, tasklet: Tasklet) -> None:
        st = self.scope.st
        for conn, container, sub in self.edges:
            if container in self.scope.scope_values:
                st.add_edge(self.scope.scope_values[container], tasklet,
                            Memlet(container, sub), dst_conn=conn)
                continue
            acc = st.add(AccessNode(container))
            outer = propagate_subset(sub, self.scope.entry.params)
            st.add_edge(acc, self.scope.entry, Memlet(container, outer),
                        dst_conn=f"IN_{conn}")
            st.add_edge(self.scope.entry, tasklet, Memlet(container, sub),
                        src_conn=f"OUT_{conn}", dst_conn=conn)
        if not self.edges:
            st.add_edge(self.scope.entry, tasklet)
