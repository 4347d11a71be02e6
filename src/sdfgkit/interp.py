"""Deterministic reference interpreter for validated graphs.

Maps always run in lexicographic iteration order (even with a parallel
schedule), so results are bitwise reproducible and usable as golden oracles.
Communication library nodes are *yielded* as events; the plain entry point
:func:`interpret` rejects them, while the rank simulator drives the same
generator and services the events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from . import symbolic, texpr
from .ir import (
    COMM_KINDS, AccessNode, DataKind, DType, Edge, LibKind, LibraryNode, Lifetime,
    MapEntry, MapExit, Memlet, NestedSdfg, Sdfg, State, Tasklet, Wcr,
)
from .symbolic import SubsetRange


class InterpreterError(RuntimeError):
    pass


class OutOfBoundsError(InterpreterError):
    pass


@dataclass
class TensorValue:
    """Shape + row-major payload; the tensor file format unit."""

    dtype: DType
    array: np.ndarray

    @staticmethod
    def of(array: np.ndarray | float | int, dtype: DType | None = None) -> "TensorValue":
        arr = np.asarray(array)
        if dtype is None:
            kind = arr.dtype.kind
            dtype = DType.F64 if kind == "f" else (DType.I64 if kind in "iu" else DType.BOOL)
        return TensorValue(dtype, np.ascontiguousarray(arr.astype(dtype.np)))

    def to_json(self) -> dict:
        return {
            "dtype": self.dtype.value,
            "shape": list(self.array.shape),
            "data": [x.item() for x in self.array.reshape(-1)],
        }

    @staticmethod
    def from_json(doc: dict) -> "TensorValue":
        dt = DType(doc["dtype"])
        arr = np.array(doc["data"], dtype=dt.np).reshape(doc["shape"])
        return TensorValue(dt, arr)

    @staticmethod
    def load(path) -> "TensorValue":
        with open(path) as f:
            return TensorValue.from_json(json.load(f))

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json(), f, indent=1)
            f.write("\n")


@dataclass
class Counters:
    wcr_commits: int = 0
    map_iterations: int = 0
    bytes_moved: int = 0
    messages_posted: int = 0
    messages_delivered: int = 0
    collective_calls: int = 0
    comm_bytes: int = 0

    def as_dict(self) -> dict:
        return {
            "wcr_commits": self.wcr_commits,
            "map_iterations": self.map_iterations,
            "bytes_moved": self.bytes_moved,
            "messages_posted": self.messages_posted,
            "messages_delivered": self.messages_delivered,
            "collective_calls": self.collective_calls,
            "comm_bytes": self.comm_bytes,
        }


@dataclass
class ExecContext:
    """Symbol bindings, container store, persistent cache, and counters."""

    bindings: dict[str, int] = field(default_factory=dict)
    store: dict[str, np.ndarray] = field(default_factory=dict)
    persistent: dict[str, np.ndarray] = field(default_factory=dict)
    counters: Counters = field(default_factory=Counters)
    rank: int = 0

    def bind_inputs(self, inputs: Mapping[str, np.ndarray | float]) -> "ExecContext":
        for k, v in inputs.items():
            self.store[k] = np.asarray(v)
        return self


@dataclass
class InterpOptions:
    reverse_maps: bool = False  # iterate every map in reversed order
    max_transitions: int = 10_000_000


# Communication events yielded to the rank simulator.


@dataclass
class CollectiveEvent:
    kind: LibKind
    node: LibraryNode
    state: str
    args: dict
    machine: "Machine" = None


@dataclass
class P2PEvent:
    kind: LibKind  # ISEND | IRECV | WAITALL
    node: LibraryNode
    state: str
    args: dict
    machine: "Machine" = None


def interpret(
    g: Sdfg,
    ctx: ExecContext,
    options: InterpOptions | None = None,
) -> dict[str, np.ndarray]:
    """Execute the graph; returns the non-transient container store."""
    machine = Machine(g, ctx, options)
    for ev in machine.run():
        raise InterpreterError(
            f"communication node '{ev.node.kind.value}' requires the rank simulator"
        )
    return machine.outputs()


def run_twice_determinism(g: Sdfg, ctx: ExecContext) -> bool:
    """Two interpretations with identical contexts are bitwise identical."""
    import copy

    out1 = interpret(g, copy.deepcopy(ctx))
    out2 = interpret(g, copy.deepcopy(ctx))
    if set(out1) != set(out2):
        return False
    return all(np.array_equal(out1[k], out2[k]) for k in out1)


class Machine:
    """One logical execution of a graph (one rank, in the simulator)."""

    def __init__(self, g: Sdfg, ctx: ExecContext, options: InterpOptions | None = None):
        self.g = g
        self.ctx = ctx
        self.opt = options or InterpOptions()
        self.sym: dict[str, int] = {}
        self.store: dict[str, np.ndarray] = {}
        self._prepared = False
        # set by the rank simulator: container locality and root-only skipping
        self.dist_classification: dict[str, str] | None = None
        self.dist_nonroot = False

    # -- setup -----------------------------------------------------------------

    def prepare(self) -> None:
        if self._prepared:
            return
        g, ctx = self.g, self.ctx
        errors = [d for d in g.validate() if d.severity == "error"]
        if errors:
            raise InterpreterError(
                "graph does not validate: " + "; ".join(d.message for d in errors)
            )
        missing = g.free_symbols() - set(ctx.bindings)
        if missing:
            raise InterpreterError(f"missing symbol bindings: {sorted(missing)}")
        self.sym = {k: int(v) for k, v in ctx.bindings.items()}
        for name, desc in g.containers.items():
            if desc.kind is DataKind.STREAM and self._stream_used(name):
                raise InterpreterError(
                    f"stream '{name}' is declarative only and cannot be executed")
            unbound = {s for d in desc.shape for s in d.free_symbols()} - set(self.sym)
            if unbound:
                # containers are sized once, before any transition assigns a symbol
                raise InterpreterError(
                    f"cannot size container '{name}': its shape uses unbound symbol "
                    + ", ".join(f"'{s}'" for s in sorted(unbound)))
            shape = tuple(d.evaluate(self.sym) for d in desc.shape)
            if not desc.transient:
                if name not in ctx.store:
                    if self.dist_nonroot:
                        # root-resident container: a placeholder this rank never reads
                        self.store[name] = np.zeros(
                            shape if desc.kind is not DataKind.SCALAR else (),
                            dtype=desc.dtype.np)
                        continue
                    raise InterpreterError(f"missing input container '{name}'")
                arr = np.asarray(ctx.store[name], dtype=desc.dtype.np)
                if desc.kind is DataKind.SCALAR:
                    arr = arr.reshape(())
                elif arr.shape != shape:
                    raise InterpreterError(
                        f"input '{name}' has shape {arr.shape}, descriptor says {shape}"
                    )
                self.store[name] = arr.copy()
            elif desc.lifetime is Lifetime.PERSISTENT:
                if name not in ctx.persistent:
                    ctx.persistent[name] = np.zeros(shape, dtype=desc.dtype.np)
                self.store[name] = ctx.persistent[name]
            else:
                self.store[name] = np.zeros(shape, dtype=desc.dtype.np)
        self._prepared = True

    def _stream_used(self, name: str) -> bool:
        for st in self.g.states:
            for e in st.edges:
                if e.memlet is not None and e.memlet.container == name:
                    return True
        return False

    def outputs(self) -> dict[str, np.ndarray]:
        return {
            name: self.store[name]
            for name, d in self.g.containers.items()
            if not d.transient
        }

    # -- state machine -----------------------------------------------------------

    def run(self) -> Iterator[CollectiveEvent | P2PEvent]:
        self.prepare()
        g = self.g
        current = g.start
        steps = 0
        while current is not None:
            state = g.state(current)
            yield from self.exec_state(state)
            nxt = None
            transitions = g.out_transitions(current)
            if not transitions:
                break
            for t in transitions:
                if t.condition is None or self.eval_cond(t.condition):
                    for k, v in t.assignments.items():
                        self.sym[k] = v.evaluate(self.sym)
                    nxt = t.dst
                    break
            if nxt is None:
                raise InterpreterError(f"no transition taken out of state '{current}'")
            current = nxt
            steps += 1
            if steps > self.opt.max_transitions:
                raise InterpreterError("transition budget exceeded (infinite loop?)")

    def eval_cond(self, cond: texpr.TExpr) -> bool:
        env: dict[str, float | int] = {}
        for name in cond.free_names():
            if name in self.sym:
                env[name] = self.sym[name]
            elif name in self.store:
                env[name] = self.store[name][()]
            else:
                raise InterpreterError(f"condition references unknown name '{name}'")
        return bool(texpr.evaluate(cond, env))

    # -- data movement -------------------------------------------------------------

    def _concrete(self, sub: SubsetRange, env: Mapping[str, int]) -> tuple[range, ...]:
        return sub.evaluate(env)

    def _key(self, ranges: tuple[range, ...]):
        return tuple(slice(r.start, r.stop, r.step) for r in ranges)

    def _check_bounds(self, container: str, ranges: tuple[range, ...], state: str, nid: int):
        arr = self.store[container]
        if len(ranges) != arr.ndim:
            raise OutOfBoundsError(
                f"rank mismatch on '{container}' at node {nid} in state '{state}'"
            )
        for d, r in enumerate(ranges):
            if len(r) == 0:
                continue
            last = r[-1]
            if r.start < 0 or last >= arr.shape[d]:
                raise OutOfBoundsError(
                    f"out-of-bounds access {container}[dim {d}: {r.start}..{last}] "
                    f"(extent {arr.shape[d]}) at node {nid} in state '{state}'"
                )

    def read(self, m: Memlet, env: Mapping[str, int], state: str, nid: int) -> np.ndarray:
        ranges = self._concrete(m.subset, env)
        self._check_bounds(m.container, ranges, state, nid)
        arr = self.store[m.container][self._key(ranges)]
        esize = self.g.containers[m.container].dtype.nbytes
        self.ctx.counters.bytes_moved += arr.size * esize
        return arr

    def read_scalar(self, m: Memlet, env, state, nid):
        v = self.read(m, env, state, nid)
        return v.reshape(-1)[0] if v.ndim else v[()]

    def write(self, m: Memlet, value, env: Mapping[str, int], state: str, nid: int) -> None:
        ranges = self._concrete(m.subset, env)
        self._check_bounds(m.container, ranges, state, nid)
        arr = self.store[m.container]
        key = self._key(ranges)
        esize = self.g.containers[m.container].dtype.nbytes
        n = int(np.prod([len(r) for r in ranges])) if ranges else 1
        self.ctx.counters.bytes_moved += n * esize
        if m.wcr is not None:
            arr[key] = m.wcr.apply(arr[key], value)
            self.ctx.counters.wcr_commits += n
        else:
            arr[key] = value

    def squeeze(self, value: np.ndarray, kept: list[bool] | None) -> np.ndarray:
        if kept is None:
            return value
        key = tuple(slice(None) if k else 0 for k in kept)
        return value[key]

    # -- state execution -------------------------------------------------------------

    def exec_state(self, state: State) -> Iterator:
        scopes = state.scopes()
        for node in scopes[None]:
            if self._dist_skip(state, node):
                continue
            yield from self.exec_node(state, node, dict(self.sym), scopes)

    def _dist_skip(self, state: State, node) -> bool:
        """Non-root ranks skip nodes that touch only root-resident data."""
        cls = self.dist_classification
        if cls is None or not self.dist_nonroot:
            return False
        if isinstance(node, LibraryNode) and node.kind in COMM_KINDS:
            return False
        if isinstance(node, LibraryNode) and node.attributes.get("comm"):
            return False
        edges = list(state.in_edges(node)) + list(state.out_edges(node))
        if isinstance(node, MapEntry):
            exit_node = state.exit_of(node)
            edges += list(state.in_edges(exit_node)) + list(state.out_edges(exit_node))
        conts = {e.memlet.container for e in edges if e.memlet is not None}
        if not conts:
            return False
        return all(cls.get(c, "global") == "global" for c in conts)

    def exec_node(self, state: State, node, env: dict[str, int], scopes) -> Iterator:
        if isinstance(node, AccessNode):
            for e in state.in_edges(node):
                if isinstance(e.src, AccessNode) and e.memlet is not None:
                    self.exec_copy(state, e, env)
            return
        if isinstance(node, Tasklet):
            self.exec_tasklet(state, node, env)
            return
        if isinstance(node, MapEntry):
            yield from self.exec_map(state, node, env, scopes)
            return
        if isinstance(node, MapExit):
            return
        if isinstance(node, LibraryNode):
            yield from self.exec_library(state, node, env)
            return
        if isinstance(node, NestedSdfg):
            yield from self.exec_nested(state, node, env)
            return
        raise InterpreterError(f"cannot execute node {type(node).__name__}")

    def exec_copy(self, state: State, e: Edge, env) -> None:
        src, dst = e.src, e.dst
        assert isinstance(src, AccessNode) and isinstance(dst, AccessNode)
        m = e.memlet
        if m.container == src.container:
            data = self.read(m, env, state.label, src.nid)
            data = data.reshape(self.store[dst.container].shape)
            full = Memlet(dst.container, SubsetRange.full(self.store[dst.container].shape),
                          wcr=m.wcr)
            self.write(full, data, env, state.label, dst.nid)
        else:
            whole = Memlet(src.container, SubsetRange.full(self.store[src.container].shape))
            data = self.read(whole, env, state.label, src.nid)
            ranges = self._concrete(m.subset, env)
            want = tuple(len(r) for r in ranges)
            self.write(m, data.reshape(want), env, state.label, dst.nid)

    def exec_tasklet(self, state: State, node: Tasklet, env) -> None:
        tenv: dict[str, float | int] = {}
        for e in state.in_edges(node):
            if e.memlet is None:
                continue
            tenv[e.dst_conn] = self.read_scalar(e.memlet, env, state.label, node.nid)
        for _, code in node.code:
            for name in code.free_names():
                if name not in tenv:
                    if name in env:
                        tenv[name] = env[name]
                    elif name in self.sym:
                        tenv[name] = self.sym[name]
        results = {conn: texpr.evaluate(code, tenv) for conn, code in node.code}
        for e in state.out_edges(node):
            if e.memlet is None:
                continue
            v = results[e.src_conn if e.src_conn in results else node.outputs[0]]
            self.write(e.memlet, v, env, state.label, node.nid)

    def exec_map(self, state: State, entry: MapEntry, env, scopes) -> Iterator:
        """Run the scope's members (from ``State.scopes``) once per point."""
        children = scopes[entry]
        ranges = []
        for p, (b, e, s) in entry.params:
            bv, ev, sv = b.evaluate(env), e.evaluate(env), s.evaluate(env)
            ranges.append((p, range(bv, ev + 1, sv)))
        gen = _product([r for _, r in ranges])
        if self.opt.reverse_maps:
            gen = reversed(list(gen))
        for point in gen:
            ienv = dict(env)
            for (p, _), v in zip(entry.params, point):
                ienv[p] = v
            self.ctx.counters.map_iterations += 1
            for child in children:
                yield from self.exec_node(state, child, ienv, scopes)

    def exec_library(self, state: State, node: LibraryNode, env) -> Iterator:
        if node.kind in COMM_KINDS or node.attributes.get("comm"):
            ev = self.comm_event(state, node, env)
            yield ev
            return
        ins = {e.dst_conn: e for e in state.in_edges(node) if e.memlet is not None}
        outs = [e for e in state.out_edges(node) if e.memlet is not None]
        if node.kind is LibKind.MATMUL:
            a_raw = self.read(ins["a"].memlet, env, state.label, node.nid)
            b_raw = self.read(ins["b"].memlet, env, state.label, node.nid)
            a = self.squeeze(a_raw, node.attributes.get("a_kept"))
            b = self.squeeze(b_raw, node.attributes.get("b_kept"))
            out = np.matmul(a, b)
            e = outs[0]
            ranges = self._concrete(e.memlet.subset, env)
            self.write(e.memlet, out.reshape(tuple(len(r) for r in ranges)),
                       env, state.label, node.nid)
            return
        if node.kind is LibKind.REDUCE:
            a = self.squeeze(self.read(ins["a"].memlet, env, state.label, node.nid),
                             node.attributes.get("a_kept"))
            axes = node.attributes.get("axes")
            op = Wcr(node.attributes.get("op", "add"))
            fn = {Wcr.ADD: np.add, Wcr.MUL: np.multiply,
                  Wcr.MIN: np.minimum, Wcr.MAX: np.maximum}[op]
            out = fn.reduce(a, axis=None if axes is None else tuple(axes))
            e = outs[0]
            ranges = self._concrete(e.memlet.subset, env)
            shape = tuple(len(r) for r in ranges)
            self.write(e.memlet, np.asarray(out).reshape(shape), env, state.label, node.nid)
            return
        if node.kind is LibKind.TRANSPOSE:
            a = self.read(ins["a"].memlet, env, state.label, node.nid)
            e = outs[0]
            ranges = self._concrete(e.memlet.subset, env)
            self.write(e.memlet, a.T.reshape(tuple(len(r) for r in ranges)),
                       env, state.label, node.nid)
            return
        raise InterpreterError(f"unknown library node kind {node.kind}")

    def comm_event(self, state: State, node: LibraryNode, env):
        ins = {e.dst_conn: e for e in state.in_edges(node) if e.memlet is not None}
        outs = {e.src_conn: e for e in state.out_edges(node) if e.memlet is not None}
        args = {"env": dict(env), "ins": ins, "outs": outs}
        if node.kind in (LibKind.ISEND, LibKind.IRECV, LibKind.WAITALL):
            return P2PEvent(node.kind, node, state.label, args, self)
        return CollectiveEvent(node.kind, node, state.label, args, self)

    def exec_nested(self, state: State, node: NestedSdfg, env) -> Iterator:
        inner_bindings = {}
        for s in node.sdfg.free_symbols():
            expr = node.symbol_map.get(s, symbolic.Sym(s))
            inner_bindings[s] = expr.evaluate({**self.sym, **env})
        inner_ctx = ExecContext(
            bindings=inner_bindings,
            counters=self.ctx.counters,
            persistent={},
            rank=self.ctx.rank,
        )
        for e in state.in_edges(node):
            if e.memlet is None:
                continue
            data = self.read(e.memlet, env, state.label, node.nid)
            desc = node.sdfg.containers[e.dst_conn]
            if desc.kind is DataKind.SCALAR:
                inner_ctx.store[e.dst_conn] = np.asarray(data).reshape(())
            else:
                ranges = self._concrete(e.memlet.subset, env)
                inner_ctx.store[e.dst_conn] = data.reshape(tuple(len(r) for r in ranges))
        inner = Machine(node.sdfg, inner_ctx, self.opt)
        yield from inner.run()
        for e in state.out_edges(node):
            if e.memlet is None:
                continue
            self.write(e.memlet, inner.store[e.src_conn], env, state.label, node.nid)


def _product(ranges: list[range]):
    if not ranges:
        yield ()
        return
    import itertools

    yield from itertools.product(*ranges)
