"""Deterministic reference interpreter for validated graphs.

Maps always run in lexicographic iteration order (even with a parallel
schedule), so results are bitwise reproducible and usable as golden oracles.
Each run compiles the per-node work once (memlet accesses with their bounds
checks, tasklet bodies, map ranges, transitions) and then only calls the
compiled functions.  A map whose body is tasklets over affine point memlets
(and possibly inner maps of such tasklets and reductions of what they
write) also gets a vector launch that runs all its points at once with
NumPy slices, equal bit for bit to the point-by-point order (see
:func:`_compile_vector`).  Communication library nodes are *yielded* as events;
the plain entry point :func:`interpret` rejects them, while the rank
simulator drives the same generator and services the events.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from . import symbolic, texpr
from .ir import (
    COMM_KINDS, AccessNode, DataKind, DType, Edge, InterstateEdge, LibKind, LibraryNode,
    Lifetime, MapEntry, MapExit, Memlet, NestedSdfg, Sdfg, State, StateFacts, Tasklet, Wcr,
)
from .symbolic import SubsetRange, SymExpr


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
    # run qualifying maps as one vector launch; False keeps every map on the
    # point-by-point reference path
    vectorize: bool = True


MAX_TRANSITIONS = 10_000_000


@dataclass
class CommEvent:
    """A communication node reached by a machine, yielded to the rank
    simulator.  ``ins`` and ``outs`` map the node's connectors to their
    memlets, evaluated in ``env`` (a snapshot of the environment)."""

    node: LibraryNode
    state: str
    env: dict
    ins: dict[str, Memlet]
    outs: dict[str, Memlet]
    machine: "Machine"

    def read(self, conn: str) -> np.ndarray:
        """The view of input ``conn``, bounds-checked and counted."""
        return self.machine._access(self.ins[conn], "read", self.state, self.node.nid)(self.env)

    def write(self, conn: str, value) -> None:
        """Store ``value`` into output ``conn``, bounds-checked and counted."""
        self.machine._access(self.outs[conn], "write", self.state, self.node.nid)(
            self.env, value)


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


class Machine:
    """One logical execution of a graph (one rank, in the simulator).

    Each state is planned on its first execution: its edges are indexed by
    node, and every node that does work becomes a step (a compiled tasklet,
    a copy, a library call, a map launch), and each map is planned on its
    first launch.  Memlet accesses, tasklet bodies, map ranges and
    transitions are compiled once per machine (see :class:`_Source`), so
    executing a map point only calls compiled code."""

    def __init__(self, g: Sdfg, ctx: ExecContext, options: InterpOptions | None = None):
        self.g = g
        self.ctx = ctx
        self.opt = options or InterpOptions()
        # shared with the machines of nested graphs (and of the other ranks)
        self._shared = _Shared()
        self.sym: dict[str, int] = {}
        self.store: dict[str, np.ndarray] = {}
        self._prepared = False
        self._plans: dict[State, _StatePlan] = {}
        self._accessors: dict[tuple, tuple[Memlet, Callable]] = {}
        # Set by the rank simulator on the non-root ranks of a global-view
        # program: the containers this rank holds.  Top-level steps whose
        # memlets touch none of them are dropped, and missing inputs get a
        # placeholder.
        self.rank_local: frozenset[str] | None = None

    # -- setup -----------------------------------------------------------------

    def prepare(self) -> None:
        if self._prepared:
            return
        g, ctx, shared = self.g, self.ctx, self._shared
        if g not in shared.validated:
            errors = [d for d in g.validate(shared.facts) if d.severity == "error"]
            if errors:
                raise InterpreterError(
                    "graph does not validate: " + "; ".join(d.message for d in errors)
                )
            shared.validated.add(g)
        missing = shared.free_symbols(g) - set(ctx.bindings)
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
                    if self.rank_local is not None:
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

    def run(self) -> Iterator[CommEvent]:
        self.prepare()
        g = self.g
        leaving: dict[str, list[_Transition]] = {}
        for t in g.transitions:
            leaving.setdefault(t.src, []).append(_Transition(t, self.store))
        # each label's state and the transitions that leave it
        states: dict[str, tuple[State, list[_Transition] | None]] = {}
        for s in g.states:
            states.setdefault(s.label, (s, leaving.get(s.label)))
        sym = self.sym
        current = g.start
        steps = 0
        while current is not None:
            here = states.get(current)
            if here is None:
                raise KeyError(f"no state '{current}'")
            state, transitions = here
            events = self.exec_state(state)
            if events:
                yield from events
            if not transitions:
                break
            nxt = None
            for t in transitions:
                if t.holds is None or t.holds(sym):
                    for k, fn in t.assignments:
                        sym[k] = fn(sym)
                    nxt = t.dst
                    break
            if nxt is None:
                raise InterpreterError(f"no transition taken out of state '{current}'")
            current = nxt
            steps += 1
            if steps > MAX_TRANSITIONS:
                raise InterpreterError("transition budget exceeded (infinite loop?)")

    # -- data movement -------------------------------------------------------------

    def _access(self, m: Memlet, mode: str, state: str, nid: int) -> Callable:
        """The compiled accessor of ``m`` in ``mode`` (see :func:`_compile_access`),
        built on first use.  The cache holds ``m`` so its id stays unique."""
        key = (id(m), mode, state, nid)
        hit = self._accessors.get(key)
        if hit is None:
            desc = self.g.containers[m.container]
            fn = _compile_access(m, mode, self.store[m.container], desc.dtype.nbytes,
                                 self.ctx.counters, state, nid)
            hit = self._accessors[key] = (m, fn)
        return hit[1]

    # -- state execution -------------------------------------------------------------

    def exec_state(self, state: State) -> Iterable[CommEvent]:
        """Execute one state.  A state that can reach a communication node
        returns a generator of its events, which runs the state as it is
        driven; any other state runs at once and returns ``()``.  The
        state's environment is the symbol table, which no step writes and
        no transition changes before the state is done."""
        plan = self._plans.get(state)
        if plan is None:
            plan = self._plans[state] = self._plan_state(state)
        env = self.sym
        if plan.events:
            return _drive(plan.top, env)
        for fn in plan.top:
            fn(env)
        return ()

    def exec_map(self, plan: "_StatePlan", entry: MapEntry, env) -> Iterable[CommEvent]:
        """One launch of a map.  A map with a vector launch runs all its points
        at once if that launch succeeds; otherwise the scope's steps run once
        per point.  Returns the events of the per-point steps, as
        :meth:`exec_state` does."""
        launch = plan.maps.get(entry.nid)
        if launch is None:
            launch = plan.maps[entry.nid] = self._plan_map(plan, entry)
        if launch.vector is not None and launch.vector(env):
            return ()
        return self._run_points(launch, env)

    def _run_points(self, launch: "_MapPlan", env) -> Iterable[CommEvent]:
        """Run the scope's steps once per point, in lexicographic order: at
        once, or as a generator of events if the scope can raise any."""
        points = itertools.product(*launch.ranges(env))
        if self.opt.reverse_maps:
            points = reversed(list(points))
        names, steps = launch.names, launch.steps()
        ienv = dict(env)
        counters = self.ctx.counters
        if launch.events:
            return _drive_points(points, names, steps, ienv, counters)
        for point in points:
            ienv.update(zip(names, point))
            counters.map_iterations += 1
            for fn in steps:
                fn(ienv)
        return ()

    # -- planning ---------------------------------------------------------------------

    def _plan_state(self, state: State) -> "_StatePlan":
        facts = self._shared.facts.get(state)
        if facts is None:
            facts = self._shared.facts[state] = state.facts()
        plan = _StatePlan(facts)
        plan.top = self._scope_steps(plan, None, facts.scopes[None])
        return plan

    def _plan_map(self, plan: "_StatePlan", scope: MapEntry) -> "_MapPlan":
        """A map's plan, made on its first launch.  The maps inside a map
        with a vector launch are planned only if a launch falls back to the
        per-point steps, which launch them."""
        members = plan.facts.scopes[scope]
        ranges = _compile_ranges(scope.params)
        return _MapPlan(ranges, scope.param_names,
                        self._vector_launch(plan, scope, members, ranges),
                        functools.partial(self._scope_steps, plan, scope, members),
                        scope in plan.event_scopes)

    def _scope_steps(self, plan: "_StatePlan", scope: MapEntry | None, members) -> list:
        steps = []
        for node in members:
            if scope is None and self._root_only(plan, node):
                continue
            try:
                steps += self._steps(plan, node)
            except Exception as ex:  # a malformed node fails when it executes
                steps.append(_raiser(ex))
        return steps

    def _vector_launch(self, plan: "_StatePlan", scope: MapEntry, members,
                       ranges: Callable) -> Callable | None:
        """The map's vector launch (see :func:`_compile_vector`), or None when
        vectorizing is off or the map does not qualify."""
        if not self.opt.vectorize:
            return None
        try:
            return _compile_vector(plan, scope, members, ranges, self.store,
                                   self.g.containers, self.ctx.counters,
                                   self.opt.reverse_maps)
        except _NotVector:
            return None

    def _root_only(self, plan: "_StatePlan", node) -> bool:
        """On a non-root rank: a top-level node other than a communication
        node whose memlets (a map's entry and exit edges) all touch
        containers this rank does not hold."""
        if self.rank_local is None:
            return False
        if isinstance(node, LibraryNode) and node.kind in COMM_KINDS:
            return False
        edges = plan.ins[node.nid] + plan.outs[node.nid]
        if isinstance(node, MapEntry):
            exit_node = plan.facts.exits[node]
            edges += plan.ins[exit_node.nid] + plan.outs[exit_node.nid]
        conts = {e.memlet.container for e in edges if e.memlet is not None}
        return bool(conts) and conts.isdisjoint(self.rank_local)

    def _steps(self, plan: "_StatePlan", node) -> list[Callable]:
        """The steps that execute ``node``; none for a node with nothing to
        do, such as an access node without an incoming copy."""
        if isinstance(node, AccessNode):
            return [self._copy_step(plan.state.label, e) for e in plan.ins[node.nid]
                    if isinstance(e.src, AccessNode) and e.memlet is not None]
        if isinstance(node, Tasklet):
            return [self._tasklet_step(plan, node)]
        if isinstance(node, MapEntry):
            return [lambda env: self.exec_map(plan, node, env)]
        if isinstance(node, MapExit):
            return []
        if isinstance(node, LibraryNode):
            return [self._library_step(plan, node)]
        if isinstance(node, NestedSdfg):
            return [lambda env: self.exec_nested(plan, node, env)]
        raise InterpreterError(f"cannot execute node {type(node).__name__}")

    def _copy_step(self, label: str, e: Edge) -> Callable:
        """A copy between access nodes.  A memlet on the source container
        fills the whole destination; one on the destination container
        receives the whole source."""
        src, dst, m = e.src, e.dst, e.memlet
        if m.container == src.container:
            read = self._access(m, "read", label, src.nid)
            shape = self.store[dst.container].shape
            m = Memlet(dst.container, SubsetRange.full(shape), wcr=m.wcr)
        else:
            whole = Memlet(src.container, SubsetRange.full(self.store[src.container].shape))
            read = self._access(whole, "read", label, src.nid)
        lengths = _compile_lengths(m)
        write = self._access(m, "write", label, dst.nid)

        def copy(env):
            data, shape = read(env), lengths(env)
            try:
                data = data.reshape(shape)
            except ValueError:
                raise InterpreterError(
                    f"copy of {data.size} elements from '{src.container}' does not fit "
                    f"the {shape} elements of '{dst.container}' at node {dst.nid} "
                    f"in state '{label}'") from None
            write(env, data)

        return copy

    def _tasklet_step(self, plan: "_StatePlan", node: Tasklet) -> Callable:
        """One function that reads the inputs, evaluates every output's code
        and writes the outputs, in the order of the edges and of ``code``."""
        label, src = plan.state.label, _Source()
        conns: dict[str, str] = {}
        for i, e in enumerate(e for e in plan.ins[node.nid] if e.memlet is not None):
            read = self._access(e.memlet, "scalar", label, node.nid)
            src.lines.append(f"_a{i} = {src.value(read)}(_e)")
            conns[e.dst_conn] = f"_a{i}"
        results: dict[str, str] = {}
        body = []
        for j, (conn, code) in enumerate(node.code):
            body.append(f"    _o{j} = {src.texpr(code, conns)}")
            results[conn] = f"_o{j}"
        if body:
            src.lines += ["try:", *body, "except KeyError as _x:",
                          "    raise _unbound_name(_x) from None"]
        for e in plan.outs[node.nid]:
            if e.memlet is None:
                continue
            write = self._access(e.memlet, "pwrite", label, node.nid)
            value = results[e.src_conn if e.src_conn in results else node.outputs[0]]
            src.lines.append(f"{src.value(write)}(_e, {value})")
        return src.build("_e")

    def _library_step(self, plan: "_StatePlan", node: LibraryNode) -> Callable:
        label, nid = plan.state.label, node.nid
        ins = {e.dst_conn: e for e in plan.ins[nid] if e.memlet is not None}
        if node.kind in COMM_KINDS:
            ins = {c: e.memlet for c, e in ins.items()}
            outs = {e.src_conn: e.memlet for e in plan.outs[nid] if e.memlet is not None}

            def comm(env):
                yield CommEvent(node, label, dict(env), ins, outs, self)

            return comm
        outs = [e for e in plan.outs[nid] if e.memlet is not None]
        if node.kind not in (LibKind.MATMUL, LibKind.REDUCE, LibKind.TRANSPOSE):
            raise InterpreterError(f"unknown library node kind {node.kind}")
        read_a = self._access(ins["a"].memlet, "read", label, nid)
        out = outs[0].memlet
        lengths = _compile_lengths(out)
        write = self._access(out, "write", label, nid)
        attrs = node.attributes

        def fit(env, result: np.ndarray) -> np.ndarray:
            shape = lengths(env)
            try:
                return result.reshape(shape)
            except ValueError:
                raise InterpreterError(
                    f"{node.kind.value} result of {result.size} elements does not fit the "
                    f"{shape} elements of '{out.container}' at node {nid} "
                    f"in state '{label}'") from None

        if node.kind is LibKind.MATMUL:
            read_a = _squeezed(read_a, attrs.get("a_kept"))
            read_b = _squeezed(self._access(ins["b"].memlet, "read", label, nid),
                               attrs.get("b_kept"))

            def matmul(env):
                a, b = read_a(env), read_b(env)
                write(env, fit(env, np.matmul(a, b)))

            return matmul
        if node.kind is LibKind.REDUCE:
            axes = attrs.get("axes")
            axes = None if axes is None else tuple(axes)
            fn = _REDUCE_UFUNCS[Wcr(attrs.get("op", "add"))]
            read_a = _squeezed(read_a, attrs.get("a_kept"))

            def reduce(env):
                write(env, fit(env, np.asarray(fn.reduce(read_a(env), axis=axes))))

            return reduce

        def transpose(env):
            a = read_a(env)
            write(env, fit(env, a.T))

        return transpose

    def exec_nested(self, plan: "_StatePlan", node: NestedSdfg, env) -> Iterator:
        label = plan.state.label
        symbol_map = self._shared.symbol_maps.get(node)
        if symbol_map is None:
            symbol_map = self._shared.symbol_maps[node] = [
                (s, _compile_sym(node.symbol_map.get(s, symbolic.Sym(s))))
                for s in self._shared.free_symbols(node.sdfg)]
        outer = {**self.sym, **env}
        inner_bindings = {s: fn(outer) for s, fn in symbol_map}
        inner_ctx = ExecContext(
            bindings=inner_bindings,
            counters=self.ctx.counters,
            persistent={},
            rank=self.ctx.rank,
        )
        for e in plan.ins[node.nid]:
            if e.memlet is None:
                continue
            data = self._access(e.memlet, "read", label, node.nid)(env)
            desc = node.sdfg.containers[e.dst_conn]
            if desc.kind is DataKind.SCALAR:
                inner_ctx.store[e.dst_conn] = np.asarray(data).reshape(())
            else:
                lengths = _compile_lengths(e.memlet)(env)
                inner_ctx.store[e.dst_conn] = data.reshape(lengths)
        inner = Machine(node.sdfg, inner_ctx, self.opt)
        inner._shared = self._shared
        yield from inner.run()
        for e in plan.outs[node.nid]:
            if e.memlet is None:
                continue
            self._access(e.memlet, "write", label, node.nid)(env, inner.store[e.src_conn])


_REDUCE_UFUNCS = {Wcr.ADD: np.add, Wcr.MUL: np.multiply,
                  Wcr.MIN: np.minimum, Wcr.MAX: np.maximum}


class _Shared:
    """What the machines of one run share, so that it is derived once: the
    graphs validated so far, the snapshots of their states, the free symbols
    of each graph, and the compiled symbol map of each nested graph node."""

    def __init__(self):
        self.validated: set[Sdfg] = set()
        self.facts: dict[State, StateFacts] = {}
        self.free: dict[Sdfg, set[str]] = {}
        self.symbol_maps: dict[NestedSdfg, list[tuple[str, Callable]]] = {}

    def free_symbols(self, g: Sdfg) -> set[str]:
        free = self.free.get(g)
        if free is None:
            free = self.free[g] = g.free_symbols()
        return free


def _squeezed(read: Callable, kept: list[bool] | None) -> Callable:
    """``read`` without the dimensions ``kept`` marks False."""
    if kept is None:
        return read
    key = tuple(slice(None) if k else 0 for k in kept)
    return lambda env: read(env)[key]


def _drive(steps: list[Callable], env) -> Iterator[CommEvent]:
    """Run ``steps`` in order, passing on the events of those that return
    any."""
    for fn in steps:
        events = fn(env)
        if events is not None:
            yield from events


def _drive_points(points, names, steps, env, counters: Counters) -> Iterator[CommEvent]:
    """:meth:`Machine._run_points` for a scope that can raise events."""
    for point in points:
        env.update(zip(names, point))
        counters.map_iterations += 1
        yield from _drive(steps, env)


def _event_scopes(facts: StateFacts) -> frozenset:
    """The scopes (None for the top level) that hold a communication node or
    a nested graph at any depth: their steps can raise events."""
    out = set()
    for node in facts.order:
        if isinstance(node, NestedSdfg) or (isinstance(node, LibraryNode)
                                            and node.kind in COMM_KINDS):
            scope = facts.parents[node.nid]
            while scope not in out:
                out.add(scope)
                if scope is None:
                    break
                scope = facts.parents[scope.nid]
    return frozenset(out)


class _StatePlan:
    """A state's snapshot and its edges indexed by node id (in edge order),
    the steps of its top level, the scopes that can raise events (``events``:
    whether the top level can) and the :class:`_MapPlan` of each map
    launched so far.  A step takes the environment and returns None or an
    iterable of events."""

    def __init__(self, facts: StateFacts):
        self.facts, self.state = facts, facts.state
        self.ins, self.outs = facts.ins, facts.outs
        self.event_scopes = _event_scopes(facts)
        self.events = None in self.event_scopes
        self.top: list[Callable] = []
        self.maps: dict[int, _MapPlan] = {}


class _MapPlan:
    """A map's compiled ranges, its parameter names, its vector launch (None
    if it has none), its per-point steps, compiled on first use, and whether
    they can raise events."""

    def __init__(self, ranges: Callable, names: tuple[str, ...], vector: Callable | None,
                 compile_steps: Callable[[], list], events: bool):
        self.ranges, self.names, self.vector = ranges, names, vector
        self._compile_steps = compile_steps
        self._steps: list | None = None
        self.events = events

    def steps(self) -> list:
        if self._steps is None:
            self._steps = self._compile_steps()
        return self._steps


class _Transition:
    """An interstate edge with its condition and assignments compiled."""

    def __init__(self, t: InterstateEdge, store: Mapping[str, np.ndarray]):
        self.holds = None if t.condition is None else _compile_condition(t.condition, store)
        self.assignments = [(k, _compile_sym(v)) for k, v in t.assignments.items()]
        self.dst = t.dst


# -- compilation -------------------------------------------------------------------
#
# Accessors, tasklets, map ranges and symbolic expressions are compiled to
# Python functions from generated source.  No graph name or token appears in
# the source as code: every name and constant of the graph is a parameter of
# a factory (``_k0, _k1, ...``, bound as closure cells), and operators and
# intrinsics come from the fixed tables below.  Equal sources share one
# compiled factory.

_SYM_OPS = {symbolic.Add: "+", symbolic.Sub: "-", symbolic.Mul: "*"}
_SYM_CALLS = {symbolic.FloorDiv: "_fdiv", symbolic.Min: "_min", symbolic.Max: "_max"}
_TEXPR_OPS = {op: op for op in ("+", "-", "*", "/", "//", *texpr.COMPARISONS)}
_WCR_UPDATE = {Wcr.ADD: "{old} + _v", Wcr.MUL: "{old} * _v",
               Wcr.MIN: "_minimum({old}, _v)", Wcr.MAX: "_maximum({old}, _v)"}


def _fdiv(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("symbolic floor division by zero")
    return a // b


def _unbound_symbol(ex: KeyError) -> KeyError:
    return KeyError(f"unbound symbol '{ex.args[0]}'")


def _unbound_name(ex: KeyError) -> KeyError:
    return KeyError(f"unbound name '{ex.args[0]}' in scalar expression")


def _raiser(ex: BaseException) -> Callable:
    def fail(env):
        raise ex

    return fail


_GLOBALS = {
    "__builtins__": {}, "KeyError": KeyError, "IndexError": IndexError, "slice": slice,
    "_range": range, "_bool": bool, "_min": min, "_max": max, "_fdiv": _fdiv,
    "_minimum": np.minimum, "_maximum": np.maximum,
    "_unbound_symbol": _unbound_symbol, "_unbound_name": _unbound_name,
    "Exception": Exception, "_len": len, "_f64": np.float64, "_bcast": np.broadcast_to,
    "_concat": np.concatenate, "_contig": np.ascontiguousarray,
}


@functools.lru_cache(maxsize=1024)
def _factory(source: str) -> Callable:
    namespace = dict(_GLOBALS)
    exec(compile(source, "<sdfgkit.interp>", "exec"), namespace)
    return namespace["_make"]


class _Source:
    """The body of one generated function and the values it closes over."""

    def __init__(self):
        self.values: list = []
        self.lines: list[str] = []

    def value(self, v) -> str:
        self.values.append(v)
        return f"_k{len(self.values) - 1}"

    def sym(self, e: SymExpr) -> str:
        if isinstance(e, symbolic.Const):
            return self.value(e.value)
        if isinstance(e, symbolic.Sym):
            return f"_e[{self.value(e.name)}]"
        left, right = self.sym(e.left), self.sym(e.right)
        if type(e) in _SYM_OPS:
            return f"({left} {_SYM_OPS[type(e)]} {right})"
        return f"{_SYM_CALLS[type(e)]}({left}, {right})"

    def texpr(self, e: texpr.TExpr, conns: Mapping[str, str]) -> str:
        if isinstance(e, texpr.TNum):
            return self.value(e.value)
        if isinstance(e, texpr.TRef):
            return conns.get(e.name) or f"_e[{self.value(e.name)}]"
        if isinstance(e, texpr.TUn):
            operand = self.texpr(e.operand, conns)
            return f"(not {operand})" if e.op == "not" else f"(-{operand})"
        if isinstance(e, texpr.TBin):
            left, right = self.texpr(e.left, conns), self.texpr(e.right, conns)
            if e.op in ("and", "or"):
                joiner = " and " if e.op == "and" else " or "
                return f"(_bool({left}){joiner}_bool({right}))"
            if e.op not in _TEXPR_OPS:
                raise ValueError(f"unknown operator {e.op!r}")
            return f"({left} {_TEXPR_OPS[e.op]} {right})"
        if isinstance(e, texpr.TSelect):
            cond, then, other = (self.texpr(x, conns) for x in (e.cond, e.then, e.other))
            return f"({then} if {cond} else {other})"
        if isinstance(e, texpr.TCall):
            fn = self.value(texpr._INTRINSICS[e.fn])
            return f"{fn}({', '.join(self.texpr(a, conns) for a in e.args)})"
        raise TypeError(type(e).__name__)

    def build(self, params: str) -> Callable:
        body = "\n        ".join(self.lines or ["pass"])
        source = (f"def _make({_value_names(len(self.values))}):\n    def _f({params}):\n"
                  f"        {body}\n    return _f\n")
        return _factory(source)(*self.values)


@functools.lru_cache(maxsize=None)
def _value_names(n: int) -> str:
    return ", ".join(f"_k{i}" for i in range(n))


@functools.lru_cache(maxsize=1024)
def _compile_sym(e: SymExpr) -> Callable:
    """``fn(env) -> int``, raising symbolic's unbound-symbol KeyError.
    Cached: the function binds nothing but ``e``."""
    src = _Source()
    src.lines = [f"try:", f"    return {src.sym(e)}", "except KeyError as _x:",
                 "    raise _unbound_symbol(_x) from None"]
    return src.build("_e")


def _compile_condition(cond: texpr.TExpr, store: Mapping[str, np.ndarray]) -> Callable:
    """``fn(sym) -> bool``.  Every name of the condition is resolved first,
    to a symbol or else to a container's scalar value, and then the
    condition is evaluated like a tasklet body."""
    src, conns = _Source(), {}
    for i, name in enumerate(cond.free_names()):
        key = src.value(name)
        unknown = InterpreterError(f"condition references unknown name '{name}'")
        other = (f"{src.value(store[name])}[()]" if name in store
                 else f"{src.value(_raiser(unknown))}(None)")
        src.lines.append(f"_c{i} = _e[{key}] if {key} in _e else {other}")
        conns[name] = f"_c{i}"
    try:
        src.lines.append(f"return _bool({src.texpr(cond, conns)})")
    except (KeyError, TypeError, ValueError) as ex:  # raised when evaluated
        src.lines.append(f"{src.value(_raiser(ex))}(None)")
    return src.build("_e")


def _compile_ranges(params) -> Callable:
    """``fn(env) -> (range, ...)`` over a map's parameters."""
    return _ranges_of(tuple((p, tuple(dim)) for p, dim in params))


@functools.lru_cache(maxsize=1024)
def _ranges_of(params) -> Callable:
    """:func:`_compile_ranges`, cached: the function binds nothing but the
    ranges."""
    src = _Source()
    ranges = "".join(f"_range({src.sym(b)}, {src.sym(e)} + 1, {src.sym(s)}), "
                     for _, (b, e, s) in params)
    src.lines = ["try:", f"    return ({ranges})", "except KeyError as _x:",
                 "    raise _unbound_symbol(_x) from None"]
    return src.build("_e")


def _evaluate_subset(src: _Source, m: Memlet) -> tuple[list[bool], list[str]]:
    """Append the evaluation of every dimension of ``m``'s subset (its begin
    ``_b<d>``, stop ``_t<d>`` and stride ``_s<d>``, each stride checked) to
    ``src``; returns which dimensions are points and the length expressions.
    A dimension whose begin and end are the same expression with stride 1 is
    a point: only its begin is evaluated."""
    subset = m.subset
    point = [b == e and s == symbolic.Const(1) for b, e, s in subset.dims]
    lines, lengths = [], []
    for d, (b, e, s) in enumerate(subset.dims):
        lines.append(f"    _b{d} = {src.sym(b)}")
        if point[d]:
            lengths.append("1")
            continue
        lines += [f"    _t{d} = {src.sym(e)} + 1", f"    _s{d} = {src.sym(s)}"]
        if s == symbolic.Const(1):
            lengths.append(f"_max(0, _t{d} - _b{d})")
            continue
        if not (isinstance(s, symbolic.Const) and s.value >= 1):
            lines.append(f"    if _s{d} < 1: {src.value(_stride_error(m))}(_s{d})")
        lengths.append(f"_max(0, (_t{d} - _b{d} + _s{d} - 1) // _s{d})")
    if lines:
        src.lines += ["try:", *lines, "except KeyError as _x:",
                      "    raise _unbound_symbol(_x) from None"]
    return point, lengths


def _compile_lengths(m: Memlet) -> Callable:
    """``fn(env)`` -> the length of every dimension of ``m``'s subset."""
    src = _Source()
    _, lengths = _evaluate_subset(src, m)
    src.lines.append(f"return ({''.join(f'{x}, ' for x in lengths)})")
    return src.build("_e")


def _compile_access(m: Memlet, mode: str, arr: np.ndarray, nbytes: int,
                    counters: Counters, state: str, nid: int) -> Callable:
    """Compile the access of ``m`` to ``arr`` in one of four modes:

    - ``read``: ``fn(env)`` -> the subset as an array view;
    - ``scalar``: ``fn(env)`` -> the subset's first element (a tasklet input);
    - ``write``: ``fn(env, value)`` stores ``value`` into the subset, through
      ``m.wcr`` if set;
    - ``pwrite``: like ``write``, storing a tasklet's scalar result.

    Each evaluates the subset, checks the rank and the bounds, and counts
    ``bytes_moved`` (and ``wcr_commits``).  A subset of points only is
    indexed directly in ``scalar`` and ``pwrite`` mode."""
    rank = m.subset.rank
    if rank != arr.ndim:
        raise OutOfBoundsError(f"rank mismatch on '{m.container}' at node {nid} "
                               f"in state '{state}'")
    src = _Source()
    point, lengths = _evaluate_subset(src, m)
    triples, outside = [], []
    for d in range(rank):
        extent = src.value(arr.shape[d])
        if point[d]:
            triples.append(f"(_b{d}, _b{d} + 1, 1), ")
            outside.append(f"not 0 <= _b{d} < {extent}")
            continue
        triples.append(f"(_b{d}, _t{d}, _s{d}), ")
        last = (f"_t{d} - 1" if m.subset.dims[d][2] == symbolic.Const(1)
                else f"_b{d} + (_t{d} - 1 - _b{d}) // _s{d} * _s{d}")
        outside.append(f"(_t{d} > _b{d} and (_b{d} < 0 or {last} >= {extent}))")
    if outside:
        fail = src.value(_bounds_error(m.container, arr.shape, state, nid))
        src.lines.append(f"if {' or '.join(outside)}: {fail}(({''.join(triples)}))")

    a, c, nb = src.value(arr), src.value(counters), src.value(nbytes)
    slices = "".join(f"slice(_b{d}, _b{d} + 1, 1), " if point[d] else
                     f"slice(_b{d}, _t{d}, _s{d}), " for d in range(rank))
    index = ", ".join(f"_b{d}" for d in range(rank)) or "()"
    direct = all(point) and mode in ("scalar", "pwrite")
    if mode == "scalar" and direct:
        src.lines += [f"{c}.bytes_moved += {nb}", f"return {a}[{index}]"]
    elif mode in ("scalar", "read"):
        src.lines += [f"_r = {a}[({slices})]", f"{c}.bytes_moved += _r.size * {nb}"]
        if mode == "read":
            src.lines.append("return _r")
        else:
            empty = src.value(_empty_error(m, state, nid))
            src.lines += ["try:", "    return _r.reshape(-1)[0] if _r.ndim else _r[()]",
                          "except IndexError:", f"    {empty}()"]
    else:
        key = index if direct else "_key"
        if not direct:
            src.lines.append(f"_key = ({slices})")
        count = " * ".join(x for x in lengths if x != "1") or "1"
        src.lines += [f"_n = {count}", f"{c}.bytes_moved += _n * {nb}"]
        if m.wcr is None:
            src.lines.append(f"{a}[{key}] = _v")
        else:
            update = _WCR_UPDATE[m.wcr].format(old=f"{a}[{key}]")
            src.lines += [f"{a}[{key}] = {update}", f"{c}.wcr_commits += _n"]
    return src.build("_e, _v" if mode in ("write", "pwrite") else "_e")


def _stride_error(m: Memlet) -> Callable:
    def fail(stride):
        raise InterpreterError(f"stride {stride} < 1 in subset {m.subset} of '{m.container}'")

    return fail


def _empty_error(m: Memlet, state: str, nid: int) -> Callable:
    def fail():
        raise InterpreterError(f"tasklet reads the empty subset {m.subset} of "
                               f"'{m.container}' at node {nid} in state '{state}'")

    return fail


def _bounds_error(container: str, shape: tuple[int, ...], state: str, nid: int) -> Callable:
    def fail(triples):
        for d, (begin, stop, stride) in enumerate(triples):
            r = range(begin, stop, stride)
            if len(r) == 0:
                continue
            last = r[-1]
            if r.start < 0 or last >= shape[d]:
                raise OutOfBoundsError(
                    f"out-of-bounds access {container}[dim {d}: {r.start}..{last}] "
                    f"(extent {shape[d]}) at node {nid} in state '{state}'"
                )

    return fail


# -- vector launches ---------------------------------------------------------------
#
# A map qualifies for a vector launch when its members are tasklets, access
# nodes without a copy, inner maps whose members are tasklets and such access
# nodes, and REDUCE library nodes, over f64 containers.  Tasklet code must be
# arithmetic (+ - * / and unary -) over connectors and numbers, and every
# tasklet memlet a point whose dimensions are ``parameter + offset`` or free
# of the parameters.  The launch runs over a grid with one axis per
# parameter of the map and one more per parameter of each inner map.  Reads
# become strided views aligned to the grid, tasklets become array
# expressions, and stores happen only after every value is computed.  An
# inner map reads only containers the map's body does not write, and writes
# only intermediates (see :func:`_intermediates`): each is materialized
# C-contiguous over the map's axes and the inner map's, so a REDUCE of it
# reduces the last axes row by row exactly as the per-point path reduces the
# transient.  The hazard rules of :func:`_vector_roles` keep the result
# bitwise equal to the points run one by one in iteration order; a launch
# whose bounds check or evaluation fails stores nothing and returns False,
# and the caller reruns it point by point.

_VEC_OPS = ("+", "-", "*", "/")
_FOLD_UFUNCS = {"+": np.add, "*": np.multiply}
_ZERO, _ONE = symbolic.Const(0), symbolic.Const(1)
# the most elements of a nested launch's grid; a larger launch runs point by
# point rather than allocate its intermediates
_GRID_LIMIT = 1 << 21


class _NotVector(Exception):
    """The map does not qualify for a vector launch."""


@dataclass(slots=True)
class _Value:
    """A value of the generated vector code."""

    code: str
    axes: frozenset  # the grid axes it varies with


def _copy_free(plan: "_StatePlan", n) -> bool:
    """``n`` is an access node without an incoming copy."""
    return isinstance(n, AccessNode) and not any(
        isinstance(e.src, AccessNode) and e.memlet is not None for e in plan.ins[n.nid])


def _vector_members(plan: "_StatePlan", scope: MapEntry, members) -> tuple[list, list, list]:
    """The tasklets and REDUCE nodes of the map's body in execution order,
    each with its level (0 for the map, ``i`` for its ``i``-th inner map);
    the inner maps, whose ranges must not use the map's parameters; and the
    REDUCE nodes."""
    order, inner, reduces = [], [], []
    for n in members:
        if isinstance(n, Tasklet):
            order.append((n, 0))
        elif isinstance(n, LibraryNode) and n.kind is LibKind.REDUCE:
            order.append((n, 0))
            reduces.append(n)
        elif isinstance(n, MapEntry):
            used = {s for _, dim in n.params for x in dim for s in x.free_symbols()}
            if not used.union(n.param_names).isdisjoint(scope.param_names):
                raise _NotVector("an inner range uses the map's parameters")
            inner.append(n)
            for m in plan.facts.scopes[n]:
                if isinstance(m, Tasklet):
                    order.append((m, len(inner)))
                elif not _copy_free(plan, m):
                    raise _NotVector("an inner member other than a tasklet")
        elif not (isinstance(n, MapExit) or _copy_free(plan, n)):
            raise _NotVector("a member other than a tasklet, an inner map or a reduction")
    return order, inner, reduces


@functools.lru_cache(maxsize=4096)
def _affine(subset: SubsetRange, params: tuple[str, ...]) -> tuple[tuple[int | None, SymExpr], ...]:
    """Per dimension of a point subset, ``(d, offset)`` for ``params[d] +
    offset`` or ``(None, index)`` for an index free of ``params``.  Cached:
    graphs repeat the same few subsets."""
    out, used = [], set()
    for b, e, s in subset.dims:
        if b is not e or s is not _ONE:
            raise _NotVector("not a point")
        names = b.free_symbols()
        present = [d for d, p in enumerate(params) if p in names]
        if not present:
            out.append((None, b))
            continue
        d, p = present[-1], params[present[-1]]
        if len(present) > 1 or d in used:
            raise _NotVector("a parameter twice, or two in one dimension")
        offset = _param_offset(b, p)
        if offset is None:
            raise _NotVector("not parameter + offset")
        used.add(d)
        out.append((d, offset))
    return tuple(out)


@functools.lru_cache(maxsize=4096)
def _param_offset(b: SymExpr, p: str) -> SymExpr | None:
    """``offset`` when ``b`` is ``p + offset`` (coefficient 1), else None.
    Cached: graphs repeat the same few index expressions."""
    if symbolic.linear_coeff(b, p) != 1:
        return None
    return symbolic.simplify(b - symbolic.Sym(p))


def _vector_roles(accesses, dims, k: int, store) -> dict[str, str]:
    """The role of every container the body touches:

    - ``read``: never written;
    - ``plain``: written without WCR through a subset that uses every
      parameter, and every access uses that same subset;
    - ``temp``: a rank-0 intermediate, written before it is read;
    - ``fold``: rank 0, read and written by one tasklet only (``c = c OP x``);
    - ``wcr``: written through WCR, with no other access."""
    by_container: dict[str, list] = {}
    for a in accesses:
        by_container.setdefault(a[1].memlet.container, []).append(a)
    roles = {}
    for c, acc in by_container.items():
        writes = [e for _, e, w, _ in acc if w]
        if not writes:
            roles[c] = "read"
        elif any(e.memlet.wcr is not None for e in writes):
            if len(acc) != 1:
                raise _NotVector(f"'{c}' is written through WCR and accessed again")
            roles[c] = "wcr"
        elif store[c].ndim == 0:
            if acc[0][2]:
                roles[c] = "temp"
            elif len(acc) == 2 and acc[1][0] is acc[0][0]:
                roles[c] = "fold"
            else:
                raise _NotVector(f"'{c}' is read before it is written")
        else:
            sub = writes[0].memlet.subset
            if (sorted(d for d, _ in dims[id(writes[0].memlet)] if d is not None) != list(range(k))
                    or any(e.memlet.subset != sub for _, e, _, _ in acc)):
                raise _NotVector(f"'{c}' is written and accessed through other subsets")
            roles[c] = "plain"
    return roles


def _fold(t: Tasklet, conn: str, outs: list[Edge]) -> tuple[np.ufunc, texpr.TExpr]:
    """``(ufunc, x)`` of a tasklet ``c = c OP x`` whose input ``conn`` reads c."""
    if len(t.code) != 1 or len(outs) != 1:
        raise _NotVector("not a fold")
    out, e = t.code[0]
    if outs[0].src_conn != out and out not in t.outputs[:1]:  # the write stores another value
        raise _NotVector("not a fold")
    if isinstance(e, texpr.TBin) and e.op in _FOLD_UFUNCS:
        for c, x in ((e.left, e.right), (e.right, e.left)):
            if c == texpr.TRef(conn) and conn not in x.free_names():
                return _FOLD_UFUNCS[e.op], x
    raise _NotVector("not a fold")


def _intermediates(accesses, dims, levels, inner, containers) -> dict[str, Memlet]:
    """The write memlet of every container an inner map writes.  Each must
    be an intermediate: a transient that no other memlet of a tasklet
    touches, written without WCR through one memlet whose dimension ``d``
    is the inner map's ``d``-th parameter plus an offset that makes the
    inner range cover the dimension exactly, so that every element is
    written before a REDUCE reads it at the same point of the map."""
    grids = {e.memlet.container: (lv, e.memlet) for _, e, w, lv in accesses if w and lv}
    for c, (lv, m) in grids.items():
        entry, own = inner[lv - 1], levels[lv][len(levels[0]):]
        if sum(e.memlet.container == c for _, e, _, _ in accesses) != 1:
            raise _NotVector(f"'{c}' is an intermediate touched twice")
        desc = containers[c]
        if not desc.transient or m.wcr is not None or len(desc.shape) != len(own):
            raise _NotVector(f"'{c}' is not a transient of the inner map's rank")
        for (d, off), axis, (_, (b, e, s)), extent in zip(dims[id(m)], own, entry.params,
                                                           desc.shape):
            if d != axis or s != _ONE or symbolic.simplify(b + off) != _ZERO or (
                    symbolic.simplify(e + off) != symbolic.simplify(extent - 1)):
                raise _NotVector(f"the inner map does not write all of '{c}'")
    return {c: m for c, (_, m) in grids.items()}


def _reduction(node: LibraryNode, ins: list[Edge], outs: list[Edge], store,
               containers) -> tuple[Edge, np.ufunc]:
    """``(input edge, ufunc)`` of a REDUCE node that reads one whole
    container and reduces its last axes to a single element (the axes it
    keeps have extent 1), written through one memlet."""
    attrs = node.attributes
    if len(ins) != 1 or ins[0].dst_conn != "a" or len(outs) != 1 or not all(
            attrs.get("a_kept") or ()):
        raise _NotVector("not a reduction of one input to one output")
    m = ins[0].memlet
    if m.container not in store or m.subset != containers[m.container].full_subset():
        raise _NotVector("a reduction of part of a container")
    try:
        ufunc = _REDUCE_UFUNCS[Wcr(attrs.get("op", "add"))]
    except ValueError:
        raise _NotVector("an unknown reduction") from None
    shape, axes = store[m.container].shape, attrs.get("axes")
    kept = 0 if axes is None else len(shape) - len(axes)
    if axes is not None and sorted(axes) != list(range(kept, len(shape))) or any(
            n != 1 for n in shape[:kept]):
        raise _NotVector("a reduction that keeps axes")
    return ins[0], ufunc


def _compile_vector(plan: "_StatePlan", scope: MapEntry, members, ranges: Callable,
                    store: Mapping[str, np.ndarray], containers, counters: Counters,
                    reverse: bool) -> Callable:
    """Compile the vector launch of ``scope``: ``fn(env) -> bool``, True
    when it ran every point (it also counts them), False when it stored
    nothing and the launch must run point by point.  Raises
    :class:`_NotVector` when the map does not qualify."""
    outer = scope.param_names
    k = len(outer)
    order, inner, reduces = _vector_members(plan, scope, members)
    # the grid axes and the parameter names of each level: the map's, then
    # each inner map's, whose own axes follow those of the maps before it
    levels, names, params = [tuple(range(k))], [outer], scope.params
    for entry in inner:
        levels.append(levels[0] + tuple(range(len(params), len(params) + len(entry.params))))
        names.append(outer + entry.param_names)
        params += entry.params
    ins = {t.nid: [e for e in plan.ins[t.nid] if e.memlet is not None] for t, _ in order}
    outs = {t.nid: [e for e in plan.outs[t.nid] if e.memlet is not None] for t, _ in order}
    reductions = {}
    for t in reduces:  # its input is an intermediate, not a point memlet
        reductions[t.nid] = _reduction(t, ins[t.nid], outs[t.nid], store, containers)
        ins[t.nid] = []
    # (node, edge, is a write, level) of every point memlet
    accesses = [(t, e, w, lv) for t, lv in order
                for w, edges in ((False, ins[t.nid]), (True, outs[t.nid])) for e in edges]
    dims: dict[int, list] = {}  # by memlet id, with the grid axes of the parameters
    for _, e, _, lv in accesses:
        m = e.memlet
        if m.container not in store or containers[m.container].dtype is not DType.F64:
            raise _NotVector(f"'{m.container}' is not an f64 container")
        if m.subset.rank != store[m.container].ndim:
            raise _NotVector("rank mismatch")
        dims[id(m)] = _affine(m.subset, names[lv])
        if lv:  # the inner map's parameters are grid axes after the map's
            dims[id(m)] = [(d if d is None else levels[lv][d], x) for d, x in dims[id(m)]]
    if not k or any(len(set(e.dst_conn for e in ins[t.nid])) != len(ins[t.nid])
                    for t, _ in order):
        raise _NotVector("no parameters, or an input connector fed twice")
    grids = _intermediates(accesses, dims, levels, inner, containers) if inner else {}
    roles = _vector_roles([a for a in accesses if a[1].memlet.container not in grids]
                          if grids else accesses, dims, k, store)
    if inner and any(lv and not w and roles[e.memlet.container] != "read"
                     for _, e, w, lv in accesses):
        raise _NotVector("an inner map reads what the map's body writes")

    src = _Source()
    numbers: dict[tuple, str] = {}
    offsets: dict[SymExpr, str] = {}
    prelude: list[str] = []
    checks: dict[str, None] = {}
    body: list[str] = []
    stores: list[str] = []
    unit = [isinstance(s, symbolic.Const) and s.value == 1 for _, (_, _, s) in params]
    arrays = {c: src.value(store[c]) for c in (*roles, *grids)}

    def num(v) -> str:
        key = (type(v), v)
        if key not in numbers:
            numbers[key] = src.value(v)
        return numbers[key]

    def term(x: SymExpr) -> str:
        if isinstance(x, symbolic.Const):
            return num(x.value)
        if x not in offsets:
            offsets[x] = f"_q{len(offsets)}"
            prelude.append(f"{offsets[x]} = {src.sym(x)}")
        return offsets[x]

    def index(m: Memlet) -> tuple[str, list[int]]:
        """The bounds-checked index of ``m`` and the grid axes of its
        dimensions, in dimension order."""
        parts, present = [], []
        for dim, (d, x) in enumerate(dims[id(m)]):
            extent = store[m.container].shape[dim]
            if d is None:
                if isinstance(x, symbolic.Const) and not 0 <= x.value < extent:
                    raise _NotVector("index out of bounds at every launch")
                i = term(x)
                if not isinstance(x, symbolic.Const):
                    checks[f"not 0 <= {i} < {num(extent)}"] = None
                parts.append(i)
                continue
            off = "" if x == _ZERO else f" + {term(x)}"
            checks[f"_a{d}{off} < 0 or _z{d}{off} >= {num(extent)}"] = None
            step = "" if unit[d] else f":_r{d}.step"
            parts.append(f"_a{d}{off}:_z{d}{off} + 1{step}")
            present.append(d)
        return ", ".join(parts), present

    def aligned(code: str, present: list[int]) -> str:
        """``code``, a view with one axis per grid axis of ``present``,
        transposed to grid order."""
        order = sorted(present)
        if order != present:
            code += f".transpose({src.value(tuple(present.index(d) for d in order))})"
        return code

    def read(m: Memlet, lv: int) -> tuple[str, frozenset]:
        idx, present = index(m)
        code = f"{arrays[m.container]}[{idx or '()'}]"
        if not present:
            return code, frozenset()
        code = aligned(code, present)
        axes = levels[lv][levels[lv].index(min(present)):]
        expand = tuple(slice(None) if d in present else None for d in axes)
        if None in expand:
            code += f"[{src.value(expand)}]"
        return code, frozenset(present)

    def vexpr(e: texpr.TExpr, conns: Mapping[str, _Value]) -> _Value:
        if isinstance(e, texpr.TNum) and type(e.value) in (int, float):
            return _Value(num(e.value), frozenset())
        if isinstance(e, texpr.TRef):
            if e.name not in conns:
                raise _NotVector(f"'{e.name}' is not a connector")
            return conns[e.name]
        if isinstance(e, texpr.TUn) and e.op == "-":
            x = vexpr(e.operand, conns)
            return _Value(f"(-{x.code})", x.axes)
        if isinstance(e, texpr.TBin) and e.op in _VEC_OPS:
            a, b = vexpr(e.left, conns), vexpr(e.right, conns)
            return _Value(f"({a.code} {e.op} {b.code})", a.axes | b.axes)
        raise _NotVector(f"{type(e).__name__} stays scalar")

    def f64(v: _Value) -> _Value:
        """``v`` as an f64 value, as a store converts it.  A value that
        varies is an f64 array already; one that does not may be a Python
        number, which the per-point path rounds when it stores it."""
        return v if v.axes else _Value(f"_f64({v.code})", v.axes)

    def grid(v: _Value, lv: int) -> str:
        """``v`` with the full shape of the grid of level ``lv``."""
        if len(v.axes) == len(levels[lv]):
            return v.code
        needs_grid.add(lv)
        return f"_bcast({v.code}, _g{lv})"

    def fresh(prefix: str, code: str) -> str:
        name = f"{prefix}{len(body)}"
        body.append(f"{name} = {code}")
        return name

    def output(m: Memlet, v: _Value) -> None:
        """Record the write of ``v`` through ``m`` at the map's level."""
        c = m.container
        if roles[c] == "wcr":
            wcrs.append((m, v))
        elif roles[c] == "temp":
            current[c] = temps[c] = v
        else:
            current[c] = v
            plain[c] = (m, v)

    current: dict[str, _Value] = {}  # a written container's value
    views: dict[str, _Value] = {}  # by the code of the view
    plain: dict[str, tuple[Memlet, _Value]] = {}
    temps: dict[str, _Value] = {}
    wcrs: list[tuple[Memlet, _Value]] = []
    inters: dict[str, str] = {}  # an intermediate's grid-shaped array
    needs_grid: set[int] = set()
    for t, lv in order:
        if t.nid in reductions:
            e, ufunc = reductions[t.nid]
            x = inters.get(e.memlet.container)
            if x is None:
                raise _NotVector("a reduction reads an intermediate before it is written")
            needs_grid.add(0)
            v = fresh("_o", f"{src.value(ufunc)}.reduce({x}.reshape(_g0 + (-1,)), axis=-1)")
            output(outs[t.nid][0].memlet, _Value(v, frozenset(levels[0])))
            continue
        conns: dict[str, _Value] = {}
        fold = None
        for e in ins[t.nid]:
            c = e.memlet.container
            role = roles[c]
            if role == "fold":
                fold = (c, *_fold(t, e.dst_conn, outs[t.nid]))
            elif role == "read":
                code, axes = read(e.memlet, lv)
                if code not in views:
                    views[code] = _Value(fresh("_v", code), axes)
                conns[e.dst_conn] = views[code]
            elif c in current:
                conns[e.dst_conn] = current[c]
            else:  # a plain container read before it is written: copy its old values
                code, axes = read(e.memlet, lv)
                conns[e.dst_conn] = _Value(fresh("_v", code + ".copy()"), axes)
        if fold is not None:
            c, ufunc, x = fold
            v = f64(vexpr(x, conns))
            vals = grid(v, 0) + ("" if k == 1 and len(v.axes) == k else ".reshape(-1)")
            w = fresh("_w", f"{src.value(ufunc)}.accumulate(_concat(({arrays[c]}.reshape(1), "
                            f"{vals}{'[::-1]' if reverse else ''})))[-1]")
            stores.append(f"{arrays[c]}[()] = {w}")
            continue
        results = {}
        for conn, code in t.code:
            v = f64(vexpr(code, conns))
            results[conn] = _Value(fresh("_o", v.code), v.axes)
        for e in outs[t.nid]:
            conn = e.src_conn if e.src_conn in results else t.outputs[0] if t.outputs else None
            if conn not in results:
                raise _NotVector("an output without code")
            if lv:  # an intermediate, C-contiguous over the whole grid of the level
                inters[e.memlet.container] = fresh("_x", f"_contig({grid(results[conn], lv)})")
            else:
                output(e.memlet, results[conn])

    for m, v in wcrs:
        idx, present = index(m)
        target = fresh("_t", aligned(f"{arrays[m.container]}[{idx + ', ' if idx else ''}...]",
                                     present))
        ufunc = src.value(_REDUCE_UFUNCS[m.wcr])
        reduced = [d for d in range(k) if d not in present]
        if not reduced:
            w = fresh("_w", f"{ufunc}({target}, {v.code})")
        else:
            vals = grid(v, 0)
            perm = sorted(present) + reduced
            if perm != list(range(k)):
                vals += f".transpose({src.value(tuple(perm))})"
            vals += f".reshape({target}.shape + (-1,))" + ("[..., ::-1]" if reverse else "")
            w = fresh("_w", f"{ufunc}.accumulate(_concat(({target}[..., None], {vals}), "
                            "axis=-1), axis=-1)[..., -1]")
        stores.append(f"{target}[...] = {w}")
    last = "0" if reverse else "-1"  # the index of the last point of an axis
    for c, v in temps.items():
        code = v.code
        if v.axes:
            code += f"[{', '.join([last] * (k - min(v.axes)))}]"
        stores.append(f"{arrays[c]}[()] = {fresh('_l', code)}")
    for c, x in inters.items():  # what the last point leaves in the transient
        stores.append(f"{arrays[c]}[...] = {x}[{', '.join([last] * k)}]")
        for (d, shift), extent in zip(dims[id(grids[c])], store[c].shape):
            off = "" if shift == _ZERO else f" + {term(shift)}"
            checks[f"_a{d}{off} != 0 or _z{d}{off} != {num(extent - 1)}"] = None
    for c, (m, v) in plain.items():
        idx, present = index(m)
        target = f"{arrays[c]}[{idx}]"
        if sorted(present) != present:
            target = aligned(target, present) + "[...]"
        stores.append(f"{target} = {v.code}")

    def lens(axes) -> str:
        return " * ".join(f"_len(_r{d})" for d in axes)

    head = [f"{''.join(f'_r{d}, ' for d in range(k))}= {src.value(ranges)}(_e)",
            f"if not ({' and '.join(f'_r{d}' for d in range(k))}): return True"]
    for entry, axes in zip(inner, levels[1:]):
        own = axes[k:]
        head += [f"{''.join(f'_r{d}, ' for d in own)}= "
                 f"{src.value(_compile_ranges(entry.params))}(_e)",
                 f"if not ({' and '.join(f'_r{d}' for d in own)}): return False"]
    steps = [d for d, (_, (_, _, s)) in enumerate(params)
             if not (isinstance(s, symbolic.Const) and s.value >= 1)]
    if steps:
        head.append(f"if {' or '.join(f'_r{d}.step < 1' for d in steps)}: return False")
    head += [f"_a{d}, _z{d} = _r{d}.start, _r{d}[-1]" for d in range(len(params))]
    head.append(f"_n = {lens(range(k))}")
    # elements a memlet moves at each point of each level (all of them f64)
    moved = [0] * len(levels)
    for a in accesses:
        moved[a[3]] += 1
    for e, _ in reductions.values():
        moved[0] += store[e.memlet.container].size
    c, nbytes = src.value(counters), DType.F64.nbytes
    count = [f"{c}.map_iterations += _n"]
    if moved[0]:
        count.append(f"{c}.bytes_moved += _n * {num(moved[0] * nbytes)}")
    for lv in range(1, len(levels)):
        head += [f"_m{lv} = {lens(levels[lv][k:])}",
                 f"if _n * _m{lv} > {num(_GRID_LIMIT)}: return False"]
        count.append(f"{c}.map_iterations += _n * _m{lv}")
        if moved[lv]:
            count.append(f"{c}.bytes_moved += _n * _m{lv} * {num(moved[lv] * nbytes)}")
    head += [f"_g{lv} = ({''.join(f'_len(_r{d}), ' for d in levels[lv])})"
             for lv in sorted(needs_grid)]
    if checks:
        prelude.append(f"if {' or '.join(checks)}: return False")
    commits = sum(w and e.memlet.wcr is not None for _, e, w, _ in accesses)
    if commits:
        count.append(f"{c}.wcr_commits += _n * {num(commits)}")
    src.lines = ["try:", *(f"    {line}" for line in head + prelude + body),
                 "except Exception:", "    return False", *stores, *count, "return True"]
    return src.build("_e")
