"""Readable C99-style source emission.

The emitter specializes a copy of the graph for the CPU first
(:func:`autoopt.specialize`: write-conflict tiling, then library expansion),
so matrix products, reductions and transposes reach C as native loops.
One function per graph; states become labeled blocks joined by gotos that
mirror the interstate transitions; parallel maps carry a `/* parallel-for */`
annotation.  Persistent transients are hoisted to lazily allocated statics,
stack transients to local arrays.  The output is a presentation artifact
checked against golden files, not compiled by the test suite.
"""

from __future__ import annotations

from . import symbolic
from .autoopt import needs_specialization, specialize
from .ir import (
    AccessNode, DataKind, DType, LibraryNode, Lifetime, MapEntry, MapExit,
    NestedSdfg, Schedule, Sdfg, State, Storage, Tasklet, Wcr,
)
from .symbolic import SubsetRange, SymExpr
from .texpr import TBin, TCall, TExpr, TNum, TRef, TSelect, TUn


class EmitError(ValueError):
    pass


_CTYPE = {DType.F64: "double", DType.I64: "int64_t", DType.I32: "int32_t",
          DType.BOOL: "int8_t"}


def _cexpr(e: SymExpr) -> str:
    # the symbolic grammar maps onto C except floor division and min/max
    if isinstance(e, symbolic.Const):
        return str(e.value)
    if isinstance(e, symbolic.Sym):
        return e.name
    if isinstance(e, symbolic.Add):
        return f"({_cexpr(e.left)} + {_cexpr(e.right)})"
    if isinstance(e, symbolic.Sub):
        return f"({_cexpr(e.left)} - {_cexpr(e.right)})"
    if isinstance(e, symbolic.Mul):
        return f"({_cexpr(e.left)} * {_cexpr(e.right)})"
    if isinstance(e, symbolic.FloorDiv):
        return f"({_cexpr(e.left)} / {_cexpr(e.right)})"
    if isinstance(e, symbolic.Min):
        return f"MIN({_cexpr(e.left)}, {_cexpr(e.right)})"
    if isinstance(e, symbolic.Max):
        return f"MAX({_cexpr(e.left)}, {_cexpr(e.right)})"
    raise EmitError(f"cannot emit {type(e).__name__}")


def _ctexpr(e: TExpr, ren: dict[str, str]) -> str:
    if isinstance(e, TNum):
        if isinstance(e.value, float):
            s = repr(e.value)
            return s if any(c in s for c in ".eE") else s + ".0"
        return str(e.value)
    if isinstance(e, TRef):
        return ren.get(e.name, e.name)
    if isinstance(e, TUn):
        op = "!" if e.op == "not" else "-"
        return f"({op}{_ctexpr(e.operand, ren)})"
    if isinstance(e, TBin):
        op = {"and": "&&", "or": "||", "//": "/"}.get(e.op, e.op)
        return f"({_ctexpr(e.left, ren)} {op} {_ctexpr(e.right, ren)})"
    if isinstance(e, TSelect):
        return (f"({_ctexpr(e.cond, ren)} ? {_ctexpr(e.then, ren)} : "
                f"{_ctexpr(e.other, ren)})")
    if isinstance(e, TCall):
        fn = {"abs": "fabs", "min": "MIN", "max": "MAX"}.get(e.fn, e.fn)
        return f"{fn}({', '.join(_ctexpr(a, ren) for a in e.args)})"
    raise EmitError(type(e).__name__)


class _Emitter:
    def __init__(self, g: Sdfg):
        self.g = g
        self.lines: list[str] = []
        self.indent = 0
        self.tmp_counter = 0

    def w(self, text: str = "") -> None:
        self.lines.append(("    " * self.indent + text) if text else "")

    def fresh(self, base: str) -> str:
        self.tmp_counter += 1
        return f"_{base}{self.tmp_counter}"

    # -- container addressing ---------------------------------------------------

    def addr(self, name: str, indices: list[str]) -> str:
        """Element lvalue for a container at the given index expressions."""
        d = self.g.containers[name]
        if d.kind is DataKind.SCALAR:
            return name if d.transient else f"(*{name})"
        flat = None
        for dim, ix in enumerate(indices):
            stride = ""
            for rest in d.shape[dim + 1:]:
                stride += f" * {_cexpr(rest)}"
            term = f"({ix}){stride}"
            flat = term if flat is None else f"{flat} + {term}"
        return f"{name}[{flat}]"

    def point_indices(self, sub: SubsetRange) -> list[str]:
        out = []
        for b, e, s in sub.dims:
            if symbolic.simplify(b) != symbolic.simplify(e):
                raise EmitError(f"expected a point subset, got {sub}")
            out.append(_cexpr(b))
        return out

    # -- program structure --------------------------------------------------------

    def emit(self) -> str:
        g = self.g
        self.w("/* generated C99-style source */")
        self.w("#include <stdint.h>")
        self.w("#include <stdlib.h>")
        self.w("#include <math.h>")
        self.w()
        self.w("#define MIN(a, b) ((a) < (b) ? (a) : (b))")
        self.w("#define MAX(a, b) ((a) > (b) ? (a) : (b))")
        self.w()
        for st in g.states:
            for n in st.nodes.values():
                if isinstance(n, NestedSdfg):
                    _Emitter._emit_nested_fn(self, n)
        self.emit_function(g.name, g)
        return "\n".join(self.lines) + "\n"

    def _emit_nested_fn(self, node: NestedSdfg) -> None:
        sub = _Emitter(node.sdfg)
        sub.tmp_counter = self.tmp_counter
        sub.emit_function(f"nested_{node.sdfg.name}", node.sdfg, static=True)
        self.lines.extend(sub.lines)
        self.lines.append("")
        self.tmp_counter = sub.tmp_counter

    def emit_function(self, fname: str, g: Sdfg, static: bool = False) -> None:
        free = g.free_symbols()
        sym_params = [s for s in g.symbols if s in free]
        args = [f"int64_t {s}" for s in sym_params]
        for d in g.containers.values():
            if d.transient:
                continue
            ct = _CTYPE[d.dtype]
            if d.kind is DataKind.SCALAR:
                args.append(f"{ct} *{d.name}")
            else:
                shape = " x ".join(str(s) for s in d.shape)
                args.append(f"{ct} *{d.name} /* {shape} */")
        prefix = "static void" if static else "void"
        self.w(f"{prefix} {fname}({', '.join(args)})")
        self.w("{")
        self.indent += 1

        assigned = sorted(g.assigned_symbols())
        if assigned:
            self.w("int64_t " + ", ".join(f"{s} = 0" for s in assigned) + ";")
        heap: list[str] = []
        for d in g.containers.values():
            if not d.transient:
                continue
            ct = _CTYPE[d.dtype]
            if d.kind is DataKind.SCALAR:
                self.w(f"{ct} {d.name} = 0;")
            elif d.storage is Storage.STACK:
                n = 1
                for s in d.shape:
                    n *= s.evaluate({})
                self.w(f"{ct} {d.name}[{n}] = {{0}};")
            elif d.lifetime is Lifetime.PERSISTENT:
                count = " * ".join(f"({_cexpr(s)})" for s in d.shape)
                self.w(f"static {ct} *{d.name} = NULL;")
                self.w(f"if (!{d.name}) {d.name} = calloc((size_t)({count}), sizeof({ct}));")
            else:
                count = " * ".join(f"({_cexpr(s)})" for s in d.shape)
                self.w(f"{ct} *{d.name} = calloc((size_t)({count}), sizeof({ct}));")
                heap.append(d.name)
        self.w()

        if g.start != g.states[0].label:
            self.w(f"goto {g.start};")
        for st in g.states:
            self.emit_state(st)
        self.w("__done:;")
        for name in heap:
            self.w(f"free({name});")
        self.indent -= 1
        self.w("}")

    def emit_state(self, st: State) -> None:
        self.w(f"{st.label}:;")
        self.w("{")
        self.indent += 1
        scopes = st.facts().scopes
        for node in scopes[None]:
            self.emit_node(st, node, scopes)
        self.indent -= 1
        self.w("}")
        outs = self.g.out_transitions(st.label)
        if not outs:
            self.w("goto __done;")
            return
        for t in outs:
            assigns = "".join(f" {k} = {_cexpr(v)};" for k, v in t.assignments.items())
            if t.condition is None:
                self.w(f"{{{assigns} goto {t.dst}; }}")
                return
            cond = _ctexpr(t.condition, self._scalar_renames(t.condition))
            self.w(f"if ({cond}) {{{assigns} goto {t.dst}; }}")
        self.w("goto __done;")

    def _scalar_renames(self, cond: TExpr) -> dict[str, str]:
        ren = {}
        for name in cond.free_names():
            if name in self.g.containers:
                d = self.g.containers[name]
                ren[name] = name if d.transient else f"(*{name})"
        return ren

    # -- node emission ---------------------------------------------------------------

    def emit_node(self, st: State, node, scopes) -> None:
        if isinstance(node, AccessNode):
            for e in st.in_edges(node):
                if isinstance(e.src, AccessNode) and e.memlet is not None:
                    self.emit_copy(st, e)
            return
        if isinstance(node, Tasklet):
            self.emit_tasklet(st, node)
            return
        if isinstance(node, MapEntry):
            self.emit_map(st, node, scopes)
            return
        if isinstance(node, MapExit):
            return
        if isinstance(node, NestedSdfg):
            self.emit_call(st, node)
            return
        if isinstance(node, LibraryNode):
            raise EmitError(f"library node '{node.kind.value}' has no C lowering")
        raise EmitError(type(node).__name__)

    def emit_copy(self, st: State, e) -> None:
        """One loop nest over the memlet's subset: the subset indexes the
        container the memlet names, the loop counters index the other side."""
        m = e.memlet
        src, dst = e.src.container, e.dst.container
        self.w(f"/* copy {m} -> {dst} */")
        strided, counters = [], []
        for b, en, sp in m.subset.dims:
            v = self.fresh("c")
            self.w(f"for (int64_t {v} = 0; {v} <= {_cexpr(symbolic.simplify((en - b) // sp))}; {v}++) {{")
            self.indent += 1
            strided.append(f"{_cexpr(b)} + {v} * {_cexpr(sp)}")
            counters.append(v)
        src_ix, dst_ix = (strided, counters) if m.container == src else (counters, strided)
        self.w(f"{self.addr(dst, dst_ix)} = {self.addr(src, src_ix)};")
        for _ in m.subset.dims:
            self.indent -= 1
            self.w("}")

    def emit_tasklet(self, st: State, t: Tasklet) -> None:
        ren: dict[str, str] = {}
        for e in st.in_edges(t):
            if e.memlet is None:
                continue
            ren[e.dst_conn] = self.addr(e.memlet.container,
                                        self.point_indices(e.memlet.subset))
        results = {}
        for conn, code in t.code:
            results[conn] = _ctexpr(code, ren)
        for e in st.out_edges(t):
            if e.memlet is None:
                continue
            lhs = self.addr(e.memlet.container, self.point_indices(e.memlet.subset))
            rhs = results[e.src_conn if e.src_conn in results else t.outputs[0]]
            if e.memlet.wcr is Wcr.ADD:
                self.w(f"{lhs} += {rhs};")
            elif e.memlet.wcr is Wcr.MUL:
                self.w(f"{lhs} *= {rhs};")
            elif e.memlet.wcr is Wcr.MIN:
                self.w(f"{lhs} = MIN({lhs}, {rhs});")
            elif e.memlet.wcr is Wcr.MAX:
                self.w(f"{lhs} = MAX({lhs}, {rhs});")
            else:
                self.w(f"{lhs} = {rhs};")

    def emit_map(self, st: State, entry: MapEntry, scopes) -> None:
        if entry.schedule is Schedule.PARALLEL:
            self.w("/* parallel-for */")
        for p, (b, e, s) in entry.params:
            self.w(f"for (int64_t {p} = {_cexpr(b)}; {p} <= {_cexpr(e)}; "
                   f"{p} += {_cexpr(s)}) {{")
            self.indent += 1
        for node in scopes[entry]:
            self.emit_node(st, node, scopes)
        for _ in entry.params:
            self.indent -= 1
            self.w("}")

    def emit_call(self, st: State, node: NestedSdfg) -> None:
        inner = node.sdfg
        free = inner.free_symbols()
        args = []
        for s in inner.symbols:
            if s in free:
                args.append(_cexpr(node.symbol_map.get(s, symbolic.Sym(s))))
        seen = set()
        for d in inner.containers.values():
            if d.transient:
                continue
            edge = None
            for e in list(st.in_edges(node)) + list(st.out_edges(node)):
                conn = e.dst_conn if e.dst is node else e.src_conn
                if conn == d.name and e.memlet is not None:
                    edge = e
                    break
            if edge is None or d.name in seen:
                continue
            seen.add(d.name)
            outer = edge.memlet.container
            if self.g.containers[outer].kind is DataKind.SCALAR:
                args.append(f"&{outer}" if self.g.containers[outer].transient else outer)
            else:
                args.append(outer)
        self.w(f"nested_{inner.name}({', '.join(args)});")


def lowered(g: Sdfg, tile: int = 16) -> Sdfg:
    """The graph :func:`emit_c` emits: a copy of ``g`` specialized for the
    CPU, with write-conflict maps tiled by ``tile``, or ``g`` itself when
    specialization would not change it."""
    if not needs_specialization(g):
        return g
    out = g.copy()
    specialize(out, tile=tile)
    return out


def emit_c(g: Sdfg, tile: int = 16) -> str:
    """Emit the graph, specialized for the CPU on a copy, as
    compilable-by-inspection C-style text."""
    return _Emitter(lowered(g, tile)).emit()
