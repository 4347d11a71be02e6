"""Deterministic reference interpreter for validated graphs.

Maps always run in lexicographic iteration order (even with a parallel
schedule), so results are bitwise reproducible and usable as golden oracles.
A graph is validated and its per-node work compiled (memlet accesses with
their bounds checks, tasklet bodies, library nodes, copies, map ranges,
transitions) once per content, container shapes and options, into a
:class:`Program` kept in a table of programs (see :func:`compile`), where
the bindings that found a program find it again without re-sizing.  Each
tasklet, library node and copy is one generated function whose subset
evaluation, bounds checks and byte counts come from one line writer (see
:func:`_access_lines`).  Each state is one generated state function that
runs its steps, takes the first transition out of it that holds and returns
the plan of its destination, linked on first use, so running the state
machine is calling one function per state; the function of a loop's head
runs the loop's states inline and starts over, and launches its maps
without a method call, each vector launch that the loop leaves invariant
set up once at the loop's entry (see :meth:`Machine._state_function`).  The compiled functions are built once per program
and never rebound: each takes the run's environment, which holds the run's
store arrays, counters and machine under keys no name can equal, so a run
only calls them.  A map whose body is tasklets over affine point memlets
(and possibly inner maps of such tasklets and reductions of what they
write) also gets a vector launch that runs all its points at once with
NumPy slices, equal bit for bit to the point-by-point order (see
:func:`_compile_vector`).  Communication library nodes are *yielded* as events;
the plain entry point :func:`interpret` rejects them, while the rank
simulator drives the same generator and services the events.
"""

from __future__ import annotations

import builtins
import copy
import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from . import ir, symbolic, texpr
from .ir import (
    COMM_KINDS, AccessNode, DataKind, DType, Edge, LibKind, LibraryNode,
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


def compile(g: Sdfg, bindings: Mapping[str, int],
            options: InterpOptions | None = None) -> "Program":
    """The :class:`Program` of ``g`` at ``bindings``, from the table of
    programs: the graph is validated once per content, and a program is
    made once per content, container shapes and options (and rank set, for
    the rank simulator's machines) and found again by equal bindings without
    sizing the containers.  Raises :class:`InterpreterError` when
    the graph does not validate, a free symbol is unbound or a container
    cannot be sized."""
    return _compile(g, _entry(g), bindings, options or InterpOptions(), None, {})[0]


def clear_programs() -> None:
    """Empty the table of programs."""
    _GRAPHS.clear()


# The table of programs: each graph content's key (see ir.content_key) and
# _Graph, in buckets by a cheap fingerprint of the graph, oldest first.  Keys
# are compared, never hashed: comparing two keys of interned expressions
# costs a fraction of hashing one.  The table holds at most _GRAPHS_LIMIT
# graphs, and each graph at most _PROGRAMS_LIMIT programs.
_GRAPHS: dict[tuple, list[tuple[tuple, "_Graph"]]] = {}
_GRAPHS_LIMIT = 64
_PROGRAMS_LIMIT = 16


def _entry(g: Sdfg) -> "_Graph":
    """The table's entry for the content of ``g``, made if it has none."""
    try:
        fingerprint = (g.name, g.start, len(g.states), tuple(g.containers))
        key = ir.content_key(g)
        for known, entry in _GRAPHS.get(fingerprint, ()):
            if known == key:
                return entry
    except Exception:  # a malformed graph has no key and is never shared
        return _Graph()
    if sum(map(len, _GRAPHS.values())) >= _GRAPHS_LIMIT:
        oldest = next(iter(_GRAPHS))
        del _GRAPHS[oldest][0]
        if not _GRAPHS[oldest]:
            del _GRAPHS[oldest]
    entry = _Graph()
    _GRAPHS.setdefault(fingerprint, []).append((key, entry))
    return entry


def _compile(g: Sdfg, entry: "_Graph", bindings: Mapping[str, int], opt: InterpOptions,
             rank_local: frozenset[str] | None,
             facts: dict[State, StateFacts]) -> tuple["Program", dict[str, int]]:
    """:func:`compile` with the graph's entry given; also returns the
    symbol table.  A validation adds its state snapshots to ``facts``.
    Bindings that found a program before find it again without any check
    or sizing: those passed when the program was found."""
    sym = {k: int(v) for k, v in bindings.items()}
    bound = (tuple(sym.items()), opt.reverse_maps, opt.vectorize, rank_local, _GRID_LIMIT)
    program = entry.bound.get(bound)
    if program is not None:
        return program, sym
    entry.validate(g, facts)
    missing = entry.free_symbols(g) - set(bindings)
    if missing:
        raise InterpreterError(f"missing symbol bindings: {sorted(missing)}")
    shapes = []
    for name, desc in g.containers.items():
        if desc.kind is DataKind.STREAM and _stream_used(g, name):
            raise InterpreterError(
                f"stream '{name}' is declarative only and cannot be executed")
        unbound = {s for d in desc.shape for s in d.free_symbols()} - set(sym)
        if unbound:
            # containers are sized once, before any transition assigns a symbol
            raise InterpreterError(
                f"cannot size container '{name}': its shape uses unbound symbol "
                + ", ".join(f"'{s}'" for s in sorted(unbound)))
        shapes.append(tuple(d.evaluate(sym) for d in desc.shape))
    program = entry.program(g, tuple(shapes), opt, rank_local)
    if len(entry.bound) >= _PROGRAMS_LIMIT:
        del entry.bound[next(iter(entry.bound))]
    entry.bound[bound] = program
    return program, sym


def _stream_used(g: Sdfg, name: str) -> bool:
    for st in g.states:
        for e in st.edges:
            if e.memlet is not None and e.memlet.container == name:
                return True
    return False


class Machine:
    """One logical execution of a graph (one rank, in the simulator).

    :meth:`prepare` takes the graph's :class:`Program` from the table of
    programs (see :func:`compile`), fills the run's store by the program's
    layout of the containers, without reading the graph's descriptors, and
    puts each store array and the counters into the run's environment, the
    symbol table; :meth:`run` adds the machine itself while it runs.  The
    program keeps every plan across runs: a state is planned on its first
    execution, or with the loop that inlines it (its edges are indexed by
    node, and every node that does work becomes a step: a generated
    tasklet, copy or library call, or a map launch; its steps and
    transitions become its state function).  A map is planned with the
    steps of its scope: a top-level map with its state, an inner map on
    the first per-point launch of the map around it.  :meth:`run` calls :meth:`exec_state` on each
    state's plan, which returns the next one, within the transition budget
    ``MAX_TRANSITIONS``; the state function of a loop's head runs the whole
    loop in one call.  A step reads what it needs of the run from the
    environment it is called with, so executing a map point only calls
    compiled code."""

    def __init__(self, g: Sdfg, ctx: ExecContext, options: InterpOptions | None = None):
        self.g = g
        self.ctx = ctx
        self.opt = options or InterpOptions()
        self.sym: dict = {}
        self.store: dict[str, np.ndarray] = {}
        self.program: Program | None = None
        # the table's entry for the graph; the machine of a nested graph is
        # handed the entry its caller's entry keeps for it
        self._entry: _Graph | None = None
        # the state snapshots that validation took or planning needed
        self._facts_of: dict[State, StateFacts] = {}
        # Set by the rank simulator on the non-root ranks of a global-view
        # program: the containers this rank holds.  Top-level steps whose
        # memlets touch none of them are dropped, and missing inputs get a
        # placeholder.
        self.rank_local: frozenset[str] | None = None

    # -- setup -----------------------------------------------------------------

    def prepare(self) -> None:
        if self.program is not None:
            return
        g, ctx = self.g, self.ctx
        if self._entry is None:
            self._entry = _entry(g)
        program, self.sym = _compile(g, self._entry, ctx.bindings, self.opt, self.rank_local,
                                     self._facts_of)
        sym = self.sym
        # the store is never rebound after this (every write is in place), so
        # the environment holds the run's arrays for the whole run
        for name, key, shape, dtype, transient, persistent, scalar in program.layout:
            if not transient:
                if name not in ctx.store:
                    if self.rank_local is None:
                        raise InterpreterError(f"missing input container '{name}'")
                    # root-resident container: a placeholder this rank never reads
                    arr = np.zeros(shape, dtype=dtype)
                else:
                    arr = np.asarray(ctx.store[name], dtype=dtype)
                    if scalar:
                        arr = arr.reshape(())
                    elif arr.shape != shape:
                        raise InterpreterError(
                            f"input '{name}' has shape {arr.shape}, descriptor says {shape}"
                        )
                    arr = arr.copy()
            elif persistent:
                arr = ctx.persistent.get(name)
                if arr is None:
                    arr = ctx.persistent[name] = np.zeros(shape, dtype=dtype)
                elif not isinstance(arr, np.ndarray) or arr.shape != shape or arr.dtype != dtype:
                    raise InterpreterError(
                        f"persistent '{name}' has shape {np.shape(arr)} and dtype "
                        f"{np.asarray(arr).dtype}, descriptor says {shape} and "
                        f"{np.dtype(dtype)}")
            else:
                arr = np.zeros(shape, dtype=dtype)
            self.store[name] = sym[key] = arr
        sym[_COUNTERS] = ctx.counters
        self.program = program

    def outputs(self) -> dict[str, np.ndarray]:
        return {
            name: self.store[name]
            for name, d in self.g.containers.items()
            if not d.transient
        }

    # -- state machine -----------------------------------------------------------

    def run(self) -> Iterator[CommEvent]:
        """Run the state machine from the start state: call
        :meth:`exec_state` on each state's plan, which returns the next
        one, until a state returns None.  The run may take
        ``MAX_TRANSITIONS`` transitions, read when it starts; it raises
        before it executes the state that one more would lead to.  What is
        left of the budget is in the environment, where a state function
        that runs a loop counts the transitions it takes itself."""
        self.prepare()
        sym = self.sym
        # the machine is in its environment only while it runs, so that no
        # reference cycle outlives the run and keeps its arrays; the budget
        # counts the start state as one transition
        sym[_MACHINE], sym[_LEFT] = self, MAX_TRANSITIONS + 1
        try:
            plan = self._plan(self.g.start)
            while plan is not None:
                left = sym[_LEFT] = sym[_LEFT] - 1
                if left < 0:
                    raise _exceeded()
                if plan.events:
                    plan = yield from self.exec_state(plan)
                else:
                    plan = self.exec_state(plan)
        finally:
            del sym[_MACHINE], sym[_LEFT]

    def _plan(self, label: str) -> "_StatePlan":
        """The plan of state ``label``, made on the state's first execution
        in this run's program (or with the loop that inlines it)."""
        plan = self.program.plans.get(label)
        if plan is None:
            i = self.program.index.get(label)
            if i is None:
                raise KeyError(f"no state '{label}'")
            plan = self._plan_state(i)
        return plan

    def _link(self, plan: "_StatePlan", j: int, label: str) -> "_StatePlan":
        """The plan of state ``label``, the destination of transition ``j``
        out of ``plan``, kept as that transition's successor: a state
        function links each successor on the first run that takes it."""
        nxt = plan.successors[j] = self._plan(label)
        return nxt

    # -- data movement -------------------------------------------------------------

    def _accessor(self, m: Memlet, mode: str, state: str, nid: int) -> Callable:
        """The compiled accessor of ``m`` in ``mode`` (see
        :func:`_compile_access`)."""
        return _compile_access(m, mode, self.program.shapes[m.container],
                               self.g.containers[m.container].dtype.nbytes, state, nid)

    def _access_lines(self, src: "_Source", m: Memlet, mode: str, state: str, nid: int,
                      tag: str, misfit: Callable | None = None) -> tuple[str | None, list[str]]:
        """:func:`_access_lines` of ``m`` in this run's program."""
        return _access_lines(src, m, mode, self.program.shapes[m.container],
                             self.g.containers[m.container].dtype.nbytes, state, nid, tag, misfit)

    def _access(self, m: Memlet, mode: str, state: str, nid: int) -> Callable:
        """:meth:`_accessor`, for communication events: the program keeps
        it by what it reads."""
        kept = self.program.accessors
        reads = (state, nid, mode, m.container, m.subset.dims, m.wcr)
        fn = kept.get(reads)
        if fn is None:
            fn = kept[reads] = self._accessor(m, mode, state, nid)
        return fn

    # -- state execution -------------------------------------------------------------

    def exec_state(self, plan: "_StatePlan") -> "_StatePlan | None | Iterator[CommEvent]":
        """Execute one state by its plan and take the first transition out
        of it that holds; returns the successor's plan, or None when no
        transition leaves the state.  A state at the head of a loop (see
        :meth:`_state_function`) runs the loop's states within this one
        call and returns the plan of the state its loop leaves to.  A state
        that can reach a communication node returns instead a generator of
        its events, which runs the state as it is driven and returns the
        successor's plan.  The state's environment is the symbol table,
        which no step writes and no transition changes before the state's
        steps are done."""
        if plan.events:
            return _drive_state(plan, self.sym)
        return plan.run(self.sym)

    def exec_map(self, mp: "_MapPlan", env) -> Iterable[CommEvent]:
        """One launch of a planned map, as its launch step makes it (see
        :func:`_launch_step`).  Steps and state functions launch maps
        without this method; it stays for callers outside the interpreter
        (``bench/tracing.py`` patches it by name)."""
        return _launch_step(mp)(env)

    def _run_points(self, mp: "_MapPlan", env) -> Iterable[CommEvent]:
        """Run the scope's steps once per point, in lexicographic order: at
        once, or as a generator of events if the scope can raise any."""
        points = itertools.product(*mp.ranges(env))
        if self.opt.reverse_maps:
            points = reversed(list(points))
        steps = mp.steps
        if steps is None:
            steps = self._map_steps(mp)
        names = mp.names
        ienv = dict(env)
        counters = self.ctx.counters
        if mp.events:
            return _drive_points(points, names, steps, ienv, counters)
        for point in points:
            ienv.update(zip(names, point))
            counters.map_iterations += 1
            for fn in steps:
                fn(ienv)
        return ()

    # -- planning ---------------------------------------------------------------------
    #
    # Planning reads the graph of the run that plans, which equals the graph
    # the program was compiled from, and keeps in the plans only what no
    # later change to that graph can reach: names, numbers, expressions and
    # compiled code.

    def _facts(self, i: int) -> StateFacts:
        """The snapshot of state ``i`` of this run's graph."""
        st = self.g.states[i]
        facts = self._facts_of.get(st)
        if facts is None:
            facts = self._facts_of[st] = st.facts()
        return facts

    def _plan_state(self, i: int) -> "_StatePlan":
        """Plan state ``i`` and keep its plan in the program before its
        state function is written, so that the loops it heads and the loops
        it is a state of can both inline it."""
        facts = self._facts(i)
        plan = self.program.plans[facts.state.label] = _StatePlan(i, facts)
        plan.top = self._scope_steps(facts, plan, None, facts.scopes[None])
        if plan.events:
            plan.top = _launches(plan.top)
        plan.run = self._state_function(plan)
        return plan

    def _state_function(self, plan: "_StatePlan") -> Callable:
        """The state function of ``plan``, one generated function ``fn(env)``
        that returns the successor's plan.  It runs the state's top-level
        steps in order, each map launched inline as its launch step would
        (see :func:`_launch_step`).  Then it tries the transitions that
        leave the state in graph order: a condition's names resolve first,
        each to a symbol or else to a container's value, and the first
        transition that holds applies its assignments in order, each seeing
        those before it, and returns its successor (linked on first use,
        see :meth:`_link`).  It returns None when no transition leaves the
        state and raises when none holds.

        A transition that comes back to the state through a chain of
        states, each of which can raise no event and leaves by its one
        transition, which is unconditional, is a loop: the function runs
        the chain's steps and assignments inline and starts over, counting
        each transition against the budget that :meth:`run` keeps in the
        environment, so that it raises where :meth:`run` would.  Before
        its ``while True`` it runs the loop-entry set-up of each vector
        launch whose set-up reads no symbol the loop's transitions assign
        (see :meth:`_top_lines`).  A state
        whose first transition is unconditional heads no loop: it always
        takes that transition, so a loop back to it ends only in an error,
        and in a cycle of such states each would inline all the others.  A
        state that can raise events gets the function without steps or
        loops: its steps are ``plan.top``, which :meth:`exec_state`
        drives."""
        src = _Source()
        machine, p = src.env(_MACHINE), src.value(plan)
        leaving = self.g.out_transitions(plan.label)
        tried = next((j + 1 for j, t in enumerate(leaving) if t.condition is None),
                     len(leaving))
        heads = not plan.events and bool(leaving) and leaving[0].condition is not None
        chains = [self._chain(plan.label, t) if heads else None for t in leaving[:tried]]
        loops = any(c is not None for c in chains)
        # a loop runs at its entry the set-up of each launch that reads no
        # symbol its transitions assign (see _top_lines)
        entries = None
        if loops:
            assigned = {k for t, chain in zip(leaving, chains) if chain is not None
                        for x in (t, *(self.g.out_transitions(label)[0] for label in chain))
                        for k in x.assignments}
            entries = (assigned, {})
        lines = [] if plan.events else self._top_lines(src, plan, entries)
        plan.successors, names = [None] * len(leaving), {}
        slots = src.value(plan.successors)
        count = ["_l -= 1", "if _l < 0:", "    raise _exceeded()"]
        for j, (t, chain) in enumerate(zip(leaving, chains)):
            pad = ""
            if t.condition is not None:
                lines.append(f"if {self._condition(src, t.condition, names, lines)}:")
                pad = "    "
            block = self._assignments(src, t)
            if chain is None:
                slot = src.value(j)
                if loops:
                    block.append(f"{src.env(_LEFT)} = _l")
                block.append(f"return {slots}[{slot}] or "
                             f"{machine}._link({p}, {slot}, {src.value(t.dst)})")
            else:
                block += count
                for label in chain:
                    inner = self._plan(label)
                    block += self._top_lines(src, inner, entries)
                    block += self._assignments(src, self.g.out_transitions(label)[0])
                    block += count
                block.append("continue")
            lines += [pad + line for line in block]
        if leaving and leaving[tried - 1].condition is not None:
            fail = _raiser(InterpreterError(f"no transition taken out of state '{plan.label}'"))
            lines.append(f"{src.value(fail)}(_e)")
        if loops:
            setups = [f"{var} = {src.value(mp.vector.entry())}(_e) or {src.value(mp.vector.run)}"
                      for mp, var in entries[1].items()]
            lines = [f"_l = {src.env(_LEFT)}", *setups, "while True:", *("    " + x for x in lines)]
        src.lines = lines
        return src.build("_e")

    def _chain(self, head: str, t) -> list[str] | None:
        """The labels of the states that transition ``t`` out of ``head``
        leads through before it comes back to ``head``, if each of them can
        raise no event and leaves by its one transition, which is
        unconditional; else None."""
        chain, label = [], t.dst
        while label != head:
            leaving = self.g.out_transitions(label)
            if (label in chain or len(leaving) != 1 or leaving[0].condition is not None
                    or None in _event_scopes(self._facts(self.program.index[label]))):
                return None
            chain.append(label)
            label = leaving[0].dst
        return chain

    def _top_lines(self, src: "_Source", plan: "_StatePlan",
                   entries: tuple[set[str], dict] | None = None) -> list[str]:
        """The lines that run ``plan.top`` of a state that can raise no
        events: a map's vector launch, and the per-point steps through the
        machine's ``_run_points`` if it has none or it declines.  In a loop,
        ``entries`` holds the symbols the loop's transitions assign and the
        variable of each launch whose set-up the loop runs at its entry (see
        :class:`_Vector`), to which this adds every launch whose set-up
        reads none of those symbols: such a launch calls what its set-up
        returned, its trip or, if the set-up declined, its standalone
        form."""
        lines = []
        for step in plan.top:
            if not isinstance(step, _MapPlan):
                lines.append(f"{src.value(step)}(_e)")
                continue
            points = f"{src.env(_MACHINE)}._run_points({src.value(step)}, _e)"
            if step.vector is None:
                lines.append(points)
                continue
            if entries is not None and entries[0].isdisjoint(step.vector.reads):
                launch = entries[1].setdefault(step, f"_h{len(entries[1])}")
            else:
                launch = src.value(step.vector.run)
            lines += [f"if not {launch}(_e):", f"    {points}"]
        return lines

    def _assignments(self, src: "_Source", t) -> list[str]:
        """The lines that apply the assignments of transition ``t`` in
        order, each seeing those before it."""
        lines = []
        for k, v in t.assignments.items():
            where = src.value(f" in the assignment to '{k}' on transition "
                              f"'{t.src}' -> '{t.dst}'")
            lines += ["try:", f"    _e[{src.value(k)}] = {src.sym(v)}",
                      "except KeyError as _x:", f"    raise _unbound_symbol(_x, {where}) from None"]
        return lines

    def _condition(self, src: "_Source", cond: texpr.TExpr, names: dict[str, str],
                   lines: list[str]) -> str:
        """Append to ``lines`` the resolution of each name of ``cond`` that
        ``names`` (each name the state function resolved so far, and its
        variable) lacks, to a symbol or else to a container's value, and
        return the condition's code."""
        shapes = self.program.shapes
        for name in sorted(cond.free_names()):
            if name in names:
                continue
            var = names[name] = f"_c{len(names)}"
            key = src.value(name)
            if name in shapes:
                lines.append(
                    f"{var} = _e[{key}] if {key} in _e else {src.env(_array(name))}[()]")
            else:
                lines += ["try:", f"    {var} = _e[{key}]", "except KeyError:",
                          f"    raise _unknown_name({key}) from None"]
        return src.texpr(cond, names)

    def _plan_map(self, plan: "_StatePlan", nid: int) -> "_MapPlan":
        """A map's plan, made when the steps of its scope are (see
        :meth:`_scope_steps`) and kept in ``plan.maps``.  The maps inside a
        map with a vector launch are planned only if a launch falls back to
        the per-point steps."""
        facts = self._facts(plan.index)
        scope = facts.state.nodes[nid]
        mp = plan.maps[nid] = _MapPlan(plan, nid, _compile_ranges(scope.params),
                                       scope.param_names, self._vector_launch(facts, scope),
                                       nid in plan.event_scopes)
        return mp

    def _map_steps(self, mp: "_MapPlan") -> list:
        """The per-point steps of a map, compiled on its first per-point
        launch."""
        if mp.steps is None:
            plan = mp.plan
            facts = self._facts(plan.index)
            scope = facts.state.nodes[mp.nid]
            mp.steps = _launches(self._scope_steps(facts, plan, scope, facts.scopes[scope]))
        return mp.steps

    def _scope_steps(self, facts: StateFacts, plan: "_StatePlan", scope: MapEntry | None,
                     members) -> list:
        """The steps of a scope's members in order, each map as its
        :class:`_MapPlan`, planned here."""
        return [fn for node in members
                if scope is not None or not self._root_only(facts, node)
                for fn in self._node_steps(facts, plan, node)]

    def _node_steps(self, facts: StateFacts, plan: "_StatePlan", node) -> list:
        """:meth:`_steps`, or a step that raises for a malformed node."""
        try:
            return self._steps(facts, plan, node)
        except Exception as ex:  # a malformed node fails when it executes
            return [_raiser(ex)]

    def _vector_launch(self, facts: StateFacts, scope: MapEntry) -> "_Vector | None":
        """The map's vector launch (see :func:`_compile_vector`), or None when
        vectorizing is off or the map does not qualify."""
        if not self.opt.vectorize:
            return None
        try:
            return _compile_vector(facts, scope, facts.scopes[scope], self.program.shapes,
                                   self.g.containers, self.opt.reverse_maps)
        except _NotVector:
            return None

    def _root_only(self, facts: StateFacts, node) -> bool:
        """On a non-root rank: a top-level node other than a communication
        node whose memlets (a map's entry and exit edges) all touch
        containers this rank does not hold."""
        if self.rank_local is None:
            return False
        if isinstance(node, LibraryNode) and node.kind in COMM_KINDS:
            return False
        edges = facts.ins[node.nid] + facts.outs[node.nid]
        if isinstance(node, MapEntry):
            exit_node = facts.exits[node]
            edges += facts.ins[exit_node.nid] + facts.outs[exit_node.nid]
        conts = {e.memlet.container for e in edges if e.memlet is not None}
        return bool(conts) and conts.isdisjoint(self.rank_local)

    def _steps(self, facts: StateFacts, plan: "_StatePlan", node) -> list:
        """The steps that execute ``node``; none for a node with nothing to
        do, such as an access node without an incoming copy."""
        if isinstance(node, AccessNode):
            return [self._copy_step(plan.label, e) for e in facts.ins[node.nid]
                    if isinstance(e.src, AccessNode) and e.memlet is not None]
        if isinstance(node, Tasklet):
            return [self._tasklet_step(facts, plan.label, node)]
        if isinstance(node, MapEntry):
            return [self._plan_map(plan, node.nid)]
        if isinstance(node, MapExit):
            return []
        if isinstance(node, LibraryNode):
            return [self._library_step(facts, plan, node)]
        if isinstance(node, NestedSdfg):
            return [self._nested_step(facts, plan, node)]
        raise InterpreterError(f"cannot execute node {type(node).__name__}")

    def _copy_step(self, label: str, e: Edge) -> Callable:
        """A copy between access nodes, one generated function.  A memlet on
        the source container fills the whole destination; one on the
        destination container receives the whole source."""
        src, dst, m = e.src.container, e.dst.container, e.memlet
        shapes, nid = self.program.shapes, e.dst.nid
        if m.container == src:
            read, m = m, Memlet(dst, SubsetRange.full(shapes[dst]), wcr=m.wcr)
        else:
            read = Memlet(src, SubsetRange.full(shapes[src]))
        code = _Source()
        data, _ = self._access_lines(code, read, "read", label, e.src.nid, "a")
        code.lines.append(f"_vo = {data}")
        self._access_lines(code, m, "write", label, nid, "o",
                           _misfit_error(("copy of", f" from '{src}'"), dst, label, nid))
        return code.build("_e")

    def _tasklet_step(self, facts: StateFacts, label: str, node: Tasklet) -> Callable:
        """One function that reads the inputs, evaluates every output's code
        and writes the outputs, in the order of the edges and of ``code``."""
        src = _Source()
        conns: dict[str, str] = {}
        for i, e in enumerate(e for e in facts.ins[node.nid] if e.memlet is not None):
            data, _ = self._access_lines(src, e.memlet, "scalar", label, node.nid, f"i{i}")
            src.lines.append(f"_a{i} = {data}")
            conns[e.dst_conn] = f"_a{i}"
        results: dict[str, str] = {}
        body = []
        for j, (conn, code) in enumerate(node.code):
            body.append(f"    _o{j} = {src.texpr(code, conns)}")
            results[conn] = f"_o{j}"
        if body:
            src.lines += ["try:", *body, "except KeyError as _x:",
                          "    raise _unbound_name(_x) from None"]
        for j, e in enumerate(e for e in facts.outs[node.nid] if e.memlet is not None):
            value = results[e.src_conn if e.src_conn in results else node.outputs[0]]
            src.lines.append(f"_vw{j} = {value}")
            self._access_lines(src, e.memlet, "pwrite", label, node.nid, f"w{j}")
        return src.build("_e")

    def _library_step(self, facts: StateFacts, plan: "_StatePlan",
                      node: LibraryNode) -> Callable:
        label, nid, index = plan.label, node.nid, plan.index
        if node.kind in COMM_KINDS:
            def comm(env):
                # the event carries the running machine's own node and memlets
                machine = env[_MACHINE]
                st = machine.g.states[index]
                comm_node = st.nodes[nid]
                ins = {e.dst_conn: e.memlet for e in st.in_edges(comm_node)
                       if e.memlet is not None}
                outs = {e.src_conn: e.memlet for e in st.out_edges(comm_node)
                        if e.memlet is not None}
                yield CommEvent(comm_node, label, dict(env), ins, outs, machine)

            return comm
        ins = {e.dst_conn: e.memlet for e in facts.ins[nid] if e.memlet is not None}
        out = next(e.memlet for e in facts.outs[nid] if e.memlet is not None)
        kind, attrs, code = node.kind, node.attributes, _Source()
        if kind is LibKind.MATMUL:
            result = f"{code.value(np.matmul)}(_ra, _rb)"
        elif kind is LibKind.REDUCE:
            axes = attrs.get("axes")
            ufunc = code.value(_REDUCE_UFUNCS[Wcr(attrs.get("op", "add"))])
            axes = code.value(None if axes is None else tuple(axes))
            result = f"{ufunc}.reduce(_ra, axis={axes})"
        elif kind is LibKind.TRANSPOSE:
            result = "_ra.T"
        else:
            raise InterpreterError(f"unknown library node kind {kind}")
        for conn in ("a", "b") if kind is LibKind.MATMUL else ("a",):
            data, _ = self._access_lines(code, ins[conn], "read", label, nid, conn)
            # a transpose drops no dimension
            key = None if kind is LibKind.TRANSPOSE else _squeeze_key(attrs.get(f"{conn}_kept"))
            code.lines.append(f"_r{conn} = {data}{'' if key is None else f'[{code.value(key)}]'}")
        code.lines.append(f"_vo = {result}")
        self._access_lines(code, out, "write", label, nid, "o",
                           _misfit_error((f"{kind.value} result of", ""), out.container,
                                         label, nid))
        return code.build("_e")

    def _nested_step(self, facts: StateFacts, plan: "_StatePlan",
                     node: NestedSdfg) -> Callable:
        """A launch of a nested graph: its symbol map and accessors are
        compiled here, and its graph's entry is kept in this graph's."""
        label, nid, index = plan.label, node.nid, plan.index
        entry = self._entry.nested.get((index, nid))
        if entry is None:
            entry = self._entry.nested[(index, nid)] = _Graph()
        symbol_map = [(s, _compile_sym(node.symbol_map.get(s, symbolic.Sym(s))))
                      for s in entry.free_symbols(node.sdfg)]
        ins = []
        for e in facts.ins[nid]:
            if e.memlet is None:
                continue
            # the callee's input: one element, or the subset's lengths
            code = _Source()
            data, lengths = self._access_lines(code, e.memlet, "read", label, nid, "")
            if node.sdfg.containers[e.dst_conn].kind is DataKind.SCALAR:
                lengths = []
            lengths = "".join(x + ", " for x in lengths)
            code.lines.append(f"return _asarray({data}).reshape(({lengths}))")
            ins.append((e.dst_conn, code.build("_e")))
        outs = [(e.src_conn, self._accessor(e.memlet, "write", label, nid))
                for e in facts.outs[nid] if e.memlet is not None]
        call = (index, nid, entry, symbol_map, ins, outs)
        return lambda env: env[_MACHINE].exec_nested(call, env)

    def exec_nested(self, call: tuple, env) -> Iterator:
        """One launch of a nested graph, in a machine of its own.  The
        callee is this run's own nested graph."""
        index, nid, entry, symbol_map, ins, outs = call
        outer = {**self.sym, **env}
        inner_ctx = ExecContext(
            bindings={s: fn(outer) for s, fn in symbol_map},
            counters=self.ctx.counters,
            persistent={},
            rank=self.ctx.rank,
        )
        for conn, read in ins:
            inner_ctx.store[conn] = read(env)
        inner = Machine(self.g.states[index].nodes[nid].sdfg, inner_ctx, self.opt)
        inner._entry = entry
        yield from inner.run()
        for conn, write in outs:
            write(env, inner.store[conn])


_REDUCE_UFUNCS = {Wcr.ADD: np.add, Wcr.MUL: np.multiply,
                  Wcr.MIN: np.minimum, Wcr.MAX: np.maximum}


def _launch_step(mp: "_MapPlan") -> Callable:
    """The step that launches ``mp`` in the running machine: its vector
    launch, else the machine's ``_run_points``, whose events it returns.
    A state function writes the same launch inline (see
    :meth:`Machine._top_lines`)."""
    if mp.vector is None:
        return lambda env: env[_MACHINE]._run_points(mp, env)
    vector = mp.vector.run
    return lambda env: () if vector(env) else env[_MACHINE]._run_points(mp, env)


def _launches(steps: list) -> list[Callable]:
    """``steps`` with each :class:`_MapPlan` as its launch step."""
    return [_launch_step(s) if isinstance(s, _MapPlan) else s for s in steps]


def _squeeze_key(kept: list[bool] | None) -> tuple | None:
    """The index that drops the dimensions ``kept`` marks False (None when
    it drops none)."""
    return None if kept is None or all(kept) else tuple(slice(None) if k else 0 for k in kept)


def _drive(steps: list[Callable], env) -> Iterator[CommEvent]:
    """Run ``steps`` in order, passing on the events of those that return
    any."""
    for fn in steps:
        events = fn(env)
        if events is not None:
            yield from events


def _drive_state(plan: "_StatePlan", env) -> Iterator[CommEvent]:
    """:meth:`Machine.exec_state` for a state that can raise events: its
    steps, driven, then its state function, which returns the successor's
    plan."""
    yield from _drive(plan.top, env)
    return plan.run(env)


def _drive_points(points, names, steps, env, counters: Counters) -> Iterator[CommEvent]:
    """:meth:`Machine._run_points` for a scope that can raise events."""
    for point in points:
        env.update(zip(names, point))
        counters.map_iterations += 1
        yield from _drive(steps, env)


def _event_scopes(facts: StateFacts) -> frozenset:
    """The scopes that hold a communication node or a nested graph at any
    depth, by map entry id (None for the top level): their steps can raise
    events."""
    out = set()
    for node in facts.order:
        if isinstance(node, NestedSdfg) or (isinstance(node, LibraryNode)
                                            and node.kind in COMM_KINDS):
            scope = facts.parents[node.nid]
            while (None if scope is None else scope.nid) not in out:
                if scope is None:
                    out.add(None)
                    break
                out.add(scope.nid)
                scope = facts.parents[scope.nid]
    return frozenset(out)


# -- programs ---------------------------------------------------------------------
#
# A program is what planning a graph yields at one set of container shapes,
# options and rank set.  Its compiled functions are closures over
# compile-time values only (names, numbers, expressions, other compiled
# functions), built once and never rebound.  What a run supplies, its store
# arrays, counters and machine, each function reads from the environment it
# is called with, under a key of its own (see _Key): the machine puts them
# there before it runs, and every copy of the environment carries them.


class _Key:
    """A key of the run's environment that no symbol, map parameter or
    container name can equal: of the array of container ``name`` (one per
    name, see :func:`_array`), or (``_COUNTERS``, ``_MACHINE``, ``_LEFT``)
    of the counters, the machine or what is left of the run's transition
    budget."""

    __slots__ = ("name",)

    def __init__(self, name: str | None):
        self.name = name


_COUNTERS, _MACHINE, _LEFT = _Key(None), _Key(None), _Key(None)


@functools.cache
def _array(name: str) -> _Key:
    """The key of container ``name``'s array, one per name.  Unbounded:
    compiled functions look arrays up by this very object."""
    return _Key(name)


class _Graph:
    """What the interpreter derives once per graph content: the validation
    verdict, the free symbols, the entries of the nested graphs (by state
    index and node id) and the programs, by container shapes, options,
    rank set and the grid limit of vector launches, and again by bindings
    in their place of shapes (each map holds at most _PROGRAMS_LIMIT)."""

    def __init__(self):
        self.validated = False
        self.error: str | None = None
        self.free: set[str] | None = None
        self.nested: dict[tuple[int, int], _Graph] = {}
        self.programs: dict[tuple, Program] = {}
        # the program of each set of bindings, options, rank set and grid
        # limit that found one, oldest first
        self.bound: dict[tuple, Program] = {}

    def validate(self, g: Sdfg, facts: dict[State, StateFacts]) -> None:
        if not self.validated:
            errors = [d for d in g.validate(facts) if d.severity == "error"]
            if errors:
                self.error = "graph does not validate: " + "; ".join(d.message for d in errors)
            self.validated = True
        if self.error is not None:
            raise InterpreterError(self.error)

    def free_symbols(self, g: Sdfg) -> set[str]:
        if self.free is None:
            self.free = g.free_symbols()
        return self.free

    def program(self, g: Sdfg, shapes: tuple, opt: InterpOptions,
                rank_local: frozenset[str] | None) -> "Program":
        key = (shapes, opt.reverse_maps, opt.vectorize, rank_local, _GRID_LIMIT)
        program = self.programs.get(key)
        if program is None:
            if len(self.programs) >= _PROGRAMS_LIMIT:
                del self.programs[next(iter(self.programs))]
            program = self.programs[key] = Program(g, shapes)
        return program


class Program:
    """A validated graph's plans at one set of container shapes, options
    and rank set, kept in the table of programs (see :func:`compile`).

    It holds the container shapes, the layout that a run's store is filled
    by (per container: its name, its key in the environment, its shape and
    NumPy dtype, and whether it is transient, persistent and a scalar), the
    index of each state label, the plan of every state executed so far (by
    label; see :class:`_StatePlan`) and the accessors of communication
    events.
    Plans are made on first use by the machine that needs them, from its
    own graph, and hold no run's arrays, counters or machine: their
    functions read those from the run's environment."""

    def __init__(self, g: Sdfg, shapes: tuple):
        self.shapes: dict[str, tuple[int, ...]] = dict(zip(g.containers, shapes))
        self.layout = [(name, _array(name), shape, desc.dtype.np, desc.transient,
                        desc.lifetime is Lifetime.PERSISTENT, desc.kind is DataKind.SCALAR)
                       for (name, desc), shape in zip(g.containers.items(), shapes)]
        self.index: dict[str, int] = {}
        for i, s in enumerate(g.states):
            self.index.setdefault(s.label, i)
        self.plans: dict[str, _StatePlan] = {}
        self.accessors: dict[tuple, Callable] = {}


class _StatePlan:
    """A state's plan: its index and label, the scopes that can raise events
    (by map entry id, None for the top level; ``events``: whether the top
    level can), its state function (``run``, see
    :meth:`Machine._state_function`), the plan of the destination of each
    transition that leaves it (``successors``, in graph order, None until a
    run first takes it), the steps of its top level (``top``: the steps
    :meth:`Machine.exec_state` drives if it can raise events, else each
    step's function or, for a map, its :class:`_MapPlan`, which the state
    functions that run the state launch inline), and the :class:`_MapPlan`
    of each map planned so far, by entry id.  A step takes the environment
    and returns None or an iterable of events."""

    def __init__(self, index: int, facts: StateFacts):
        self.index, self.label = index, facts.state.label
        self.event_scopes = _event_scopes(facts)
        self.events = None in self.event_scopes
        self.run: Callable | None = None
        self.successors: list[_StatePlan | None] = []
        self.top: list = []
        self.maps: dict[int, _MapPlan] = {}


class _MapPlan:
    """A map's state plan and entry id, compiled ranges, parameter names,
    vector launch (a :class:`_Vector`, None if it has none), per-point steps
    (None until a launch first runs point by point) and whether they can
    raise events."""

    def __init__(self, plan: _StatePlan, nid: int, ranges: Callable, names: tuple[str, ...],
                 vector: "_Vector | None", events: bool):
        self.plan, self.nid, self.ranges, self.names = plan, nid, ranges, names
        self.vector = vector
        self.steps: list | None = None
        self.events = events


# -- compilation -------------------------------------------------------------------
#
# Accessors, tasklets, map ranges and symbolic expressions are compiled to
# Python functions from generated source.  No graph name or token appears in
# the source as code: every name and constant of the graph is a parameter of
# a factory (``_k0, _k1, ...``, bound as closure cells), and operators and
# intrinsics come from the fixed tables below.  Equal sources share one
# compiled factory.  A store array or the counters is read from the
# environment, ``_e[<key>]``, with the key among the values (see _Key).

_SYM_OPS = {symbolic.Add: "+", symbolic.Sub: "-", symbolic.Mul: "*"}
_SYM_CALLS = {symbolic.FloorDiv: "_fdiv", symbolic.Min: "_min", symbolic.Max: "_max"}
_TEXPR_OPS = {op: op for op in ("+", "-", "*", "/", "//", *texpr.COMPARISONS)}
_WCR_UPDATE = {Wcr.ADD: "{old} + {v}", Wcr.MUL: "{old} * {v}",
               Wcr.MIN: "_minimum({old}, {v})", Wcr.MAX: "_maximum({old}, {v})"}


def _fdiv(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("symbolic floor division by zero")
    return a // b


def _unbound_symbol(ex: KeyError, where: str = "") -> InterpreterError:
    """The error of a symbol the environment does not bind, raised where a
    generated function catches the environment's ``KeyError``; ``where``
    ends the message."""
    return InterpreterError(f"unbound symbol '{ex.args[0]}'{where}")


def _unbound_name(ex: KeyError) -> InterpreterError:
    return InterpreterError(f"unbound name '{ex.args[0]}' in scalar expression")


def _unknown_name(name: str) -> InterpreterError:
    return InterpreterError(f"condition references unknown name '{name}'")


def _exceeded() -> InterpreterError:
    return InterpreterError("transition budget exceeded (infinite loop?)")


def _raiser(ex: BaseException) -> Callable:
    """A function that raises a copy of ``ex``.  Copies carry no traceback,
    so a plan that keeps this function keeps no frame of the run that made
    it."""
    if ex.__traceback__ is not None:
        ex = copy.copy(ex)

    def fail(env):
        raise copy.copy(ex)

    return fail


_GLOBALS = {
    "__builtins__": {}, "KeyError": KeyError, "IndexError": IndexError,
    "ValueError": ValueError, "slice": slice,
    "_range": range, "_bool": bool, "_min": min, "_max": max, "_fdiv": _fdiv,
    "_minimum": np.minimum, "_maximum": np.maximum,
    "_unbound_symbol": _unbound_symbol, "_unbound_name": _unbound_name,
    "_unknown_name": _unknown_name, "_exceeded": _exceeded,
    "Exception": Exception, "_len": len, "_f64": np.float64, "_bcast": np.broadcast_to,
    "_concat": np.concatenate, "_contig": np.ascontiguousarray, "_asarray": np.asarray,
}


@functools.lru_cache(maxsize=1024)
def _factory(source: str) -> Callable:
    namespace = dict(_GLOBALS)
    exec(builtins.compile(source, "<sdfgkit.interp>", "exec"), namespace)
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

    def env(self, key: _Key) -> str:
        """The environment's entry under ``key``."""
        return f"_e[{self.value(key)}]"

    def build(self, params: str) -> Callable:
        """The function, closed over the values."""
        body = "\n        ".join(self.lines or ["pass"])
        source = (f"def _make({_value_names(len(self.values))}):\n    def _f({params}):\n"
                  f"        {body}\n    return _f\n")
        return _factory(source)(*self.values)


@functools.lru_cache(maxsize=None)
def _value_names(n: int) -> str:
    return ", ".join(f"_k{i}" for i in range(n))


@functools.lru_cache(maxsize=1024)
def _compile_sym(e: SymExpr) -> Callable:
    """``fn(env) -> int``, raising :class:`InterpreterError` on an unbound
    symbol.  Cached: the function binds nothing but ``e``."""
    src = _Source()
    src.lines = [f"try:", f"    return {src.sym(e)}", "except KeyError as _x:",
                 "    raise _unbound_symbol(_x) from None"]
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


def _access_lines(src: _Source, m: Memlet, mode: str, shape: tuple[int, ...], nbytes: int,
                  state: str, nid: int, tag: str = "",
                  misfit: Callable | None = None) -> tuple[str | None, list[str]]:
    """Append to ``src`` the access of ``m`` to its container, of shape
    ``shape``, in one of four modes:

    - ``read``: the subset as an array view;
    - ``scalar``: the subset's first element (a tasklet input);
    - ``write``: stores ``_v<tag>`` into the subset, through ``m.wcr`` if
      set; with ``misfit``, ``_v<tag>`` is first reshaped to the subset's
      lengths and ``misfit(size, lengths)`` raises if it does not fit;
    - ``pwrite``: like ``write``, storing a tasklet's scalar result.

    Each evaluates the subset (its begin ``_b<d><tag>``, stop ``_t<d><tag>``
    and stride ``_s<d><tag>`` per dimension, each stride checked), checks
    the rank and the bounds, and counts ``bytes_moved`` (and
    ``wcr_commits``).  A dimension whose begin and end are the same
    expression with stride 1 is a point: only its begin is evaluated.  A
    subset of points only is indexed directly in ``scalar`` and ``pwrite``
    mode, and in ``write`` mode with ``misfit`` and no WCR.  Returns the
    expression of what a read mode reads (None in a write mode) and the
    length expression of every dimension."""
    rank, subset = m.subset.rank, m.subset
    if rank != len(shape):
        raise OutOfBoundsError(f"rank mismatch on '{m.container}' at node {nid} "
                               f"in state '{state}'")
    point = [b == e and s == _ONE for b, e, s in subset.dims]
    lines, lengths, triples, outside, slices = [], [], [], [], []
    for d, (b, e, s) in enumerate(subset.dims):
        bd, td, sd, extent = f"_b{d}{tag}", f"_t{d}{tag}", f"_s{d}{tag}", src.value(shape[d])
        lines.append(f"    {bd} = {src.sym(b)}")
        if point[d]:
            lengths.append("1")
            triples.append(f"({bd}, {bd} + 1, 1), ")
            outside.append(f"not 0 <= {bd} < {extent}")
            slices.append(f"slice({bd}, {bd} + 1, 1), ")
            continue
        lines += [f"    {td} = {src.sym(e)} + 1", f"    {sd} = {src.sym(s)}"]
        if s == _ONE:
            lengths.append(f"_max(0, {td} - {bd})")
            last = f"{td} - 1"
        else:
            if not (isinstance(s, symbolic.Const) and s.value >= 1):
                fail = src.value(_stride_error(m.container, subset))
                lines.append(f"    if {sd} < 1: {fail}({sd})")
            lengths.append(f"_max(0, ({td} - {bd} + {sd} - 1) // {sd})")
            last = f"{bd} + ({td} - 1 - {bd}) // {sd} * {sd}"
        triples.append(f"({bd}, {td}, {sd}), ")
        outside.append(f"({td} > {bd} and ({bd} < 0 or {last} >= {extent}))")
        slices.append(f"slice({bd}, {td}, {sd}), ")
    if lines:
        src.lines += ["try:", *lines, "except KeyError as _x:",
                      "    raise _unbound_symbol(_x) from None"]
    value, sizes = f"_v{tag}", f"({''.join(x + ', ' for x in lengths)})"
    direct = all(point) and (mode in ("scalar", "pwrite")
                             or (misfit is not None and m.wcr is None))
    if misfit is not None:
        fit = ["try:", f"    {value} = {value}.reshape({'()' if direct else sizes})",
               "except ValueError:", f"    {src.value(misfit)}({value}.size, {sizes})"]
        # a single element stored by index: only an array needs reshaping
        src.lines += [f"if {value}.ndim:", *("    " + x for x in fit)] if direct else fit
    if outside:
        fail = src.value(_bounds_error(m.container, shape, state, nid))
        src.lines.append(f"if {' or '.join(outside)}: {fail}(({''.join(triples)}))")

    a, c, nb = src.env(_array(m.container)), src.env(_COUNTERS), src.value(nbytes)
    index = ", ".join(f"_b{d}{tag}" for d in range(rank)) or "()"
    if mode == "scalar" and direct:
        src.lines.append(f"{c}.bytes_moved += {nb}")
        return f"{a}[{index}]", lengths
    r = f"_r{tag}"
    if mode in ("scalar", "read"):
        src.lines += [f"{r} = {a}[({''.join(slices)})]", f"{c}.bytes_moved += {r}.size * {nb}"]
        if mode == "scalar":
            empty = src.value(_empty_error(m.container, subset, state, nid))
            src.lines += ["try:", f"    {r} = {r}.reshape(-1)[0] if {r}.ndim else {r}[()]",
                          "except IndexError:", f"    {empty}()"]
        return r, lengths
    key = index if direct else f"_key{tag}"
    if not direct:
        src.lines.append(f"{key} = ({''.join(slices)})")
    n = " * ".join(x for x in lengths if x != "1") or "1"
    if n != "1":
        src.lines.append(f"_n{tag} = {n}")
        n = f"_n{tag}"
    if m.wcr is None:
        src.lines += [f"{c}.bytes_moved += {n} * {nb}", f"{a}[{key}] = {value}"]
    else:
        update = _WCR_UPDATE[m.wcr].format(old=f"_A{tag}[{key}]", v=value)
        src.lines += [f"_C{tag} = {c}", f"_C{tag}.bytes_moved += {n} * {nb}", f"_A{tag} = {a}",
                      f"_A{tag}[{key}] = {update}", f"_C{tag}.wcr_commits += {n}"]
    return None, lengths


def _compile_access(m: Memlet, mode: str, shape: tuple[int, ...], nbytes: int,
                    state: str, nid: int) -> Callable:
    """The access of ``m`` in ``mode`` (see :func:`_access_lines`) as a
    function: ``fn(env)`` returns what a read mode reads, ``fn(env, value)``
    stores ``value`` in a write mode."""
    src = _Source()
    data, _ = _access_lines(src, m, mode, shape, nbytes, state, nid)
    if data is not None:
        src.lines.append(f"return {data}")
    return src.build("_e" if data is not None else "_e, _v")


def _misfit_error(what: tuple[str, str], container: str, state: str, nid: int) -> Callable:
    """``fail(size, lengths)``, raising that ``what`` (the message's text
    before and after the size) does not fit ``container``'s subset."""
    def fail(size, lengths):
        raise InterpreterError(
            f"{what[0]} {size} elements{what[1]} does not fit the {lengths} elements of "
            f"'{container}' at node {nid} in state '{state}'")

    return fail


def _stride_error(container: str, subset: SubsetRange) -> Callable:
    def fail(stride):
        raise InterpreterError(f"stride {stride} < 1 in subset {subset} of '{container}'")

    return fail


def _empty_error(container: str, subset: SubsetRange, state: str, nid: int) -> Callable:
    def fail():
        raise InterpreterError(f"tasklet reads the empty subset {subset} of "
                               f"'{container}' at node {nid} in state '{state}'")

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


def _copy_free(facts: StateFacts, n) -> bool:
    """``n`` is an access node without an incoming copy."""
    return isinstance(n, AccessNode) and not any(
        isinstance(e.src, AccessNode) and e.memlet is not None for e in facts.ins[n.nid])


def _vector_members(facts: StateFacts, scope: MapEntry, members) -> tuple[list, list, list]:
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
            for m in facts.scopes[n]:
                if isinstance(m, Tasklet):
                    order.append((m, len(inner)))
                elif not _copy_free(facts, m):
                    raise _NotVector("an inner member other than a tasklet")
        elif not (isinstance(n, MapExit) or _copy_free(facts, n)):
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


def _vector_roles(accesses, dims, params: tuple[str, ...],
                  shapes) -> tuple[dict[str, str], set[int]]:
    """The role of every container the body touches, and the ids of the
    memlets that read a written container's values from before the launch:

    - ``read``: never written;
    - ``plain``: written without WCR through one subset that uses every
      parameter; an access through that subset sees what the body wrote
      before it at the same point, and every other access is a read that
      never meets the write (:func:`ir.meet`), so it sees the value from
      before the launch, as it does on the per-point path;
    - ``temp``: a rank-0 intermediate, written before it is read;
    - ``fold``: rank 0, read and written by one tasklet only (``c = c OP x``);
    - ``wcr``: written through WCR, with no other access."""
    by_container: dict[str, list] = {}
    for a in accesses:
        by_container.setdefault(a[1].memlet.container, []).append(a)
    roles, early, names = {}, set(), set(params)
    for c, acc in by_container.items():
        writes = [e for _, e, w, _ in acc if w]
        if not writes:
            roles[c] = "read"
        elif any(e.memlet.wcr is not None for e in writes):
            if len(acc) != 1:
                raise _NotVector(f"'{c}' is written through WCR and accessed again")
            roles[c] = "wcr"
        elif not shapes[c]:
            if acc[0][2]:
                roles[c] = "temp"
            elif len(acc) == 2 and acc[1][0] is acc[0][0]:
                roles[c] = "fold"
            else:
                raise _NotVector(f"'{c}' is read before it is written")
        else:
            sub = writes[0].memlet.subset
            if sorted(d for d, _ in dims[id(writes[0].memlet)] if d is not None) != list(
                    range(len(params))):
                raise _NotVector(f"'{c}' is written through a subset that misses a parameter")
            for _, e, w, _ in acc:
                if e.memlet.subset == sub:
                    continue
                if w or ir.meet(names, sub, e.memlet.subset) is not ir.Meet.NEVER:
                    raise _NotVector(f"'{c}' is written and accessed through subsets "
                                     "that may meet")
                early.add(id(e.memlet))
            roles[c] = "plain"
    return roles, early


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


def _reduction(node: LibraryNode, ins: list[Edge], outs: list[Edge], shapes,
               containers) -> tuple[Edge, np.ufunc]:
    """``(input edge, ufunc)`` of a REDUCE node that reads one whole
    container and reduces its last axes to a single element (the axes it
    keeps have extent 1), written through one memlet."""
    attrs = node.attributes
    if len(ins) != 1 or ins[0].dst_conn != "a" or len(outs) != 1 or not all(
            attrs.get("a_kept") or ()):
        raise _NotVector("not a reduction of one input to one output")
    m = ins[0].memlet
    if m.container not in shapes or m.subset != containers[m.container].full_subset():
        raise _NotVector("a reduction of part of a container")
    try:
        ufunc = _REDUCE_UFUNCS[Wcr(attrs.get("op", "add"))]
    except ValueError:
        raise _NotVector("an unknown reduction") from None
    shape, axes = shapes[m.container], attrs.get("axes")
    kept = 0 if axes is None else len(shape) - len(axes)
    if axes is not None and sorted(axes) != list(range(kept, len(shape))) or any(
            n != 1 for n in shape[:kept]):
        raise _NotVector("a reduction that keeps axes")
    return ins[0], ufunc


def _done(env) -> bool:
    """The trip of an empty launch: it runs no point."""
    return True


class _Vector:
    """A map's vector launch: the three groups of lines that
    :func:`_compile_vector` writes for it, in two placements.

    - The set-up: the range ends and the empty check, the array loads, the
      offset terms, the bounds checks, the reads that are views, the view
      that each store into an array writes through (WCR ones included; a
      rank-0 container is stored by index) and the counters object.
    - The trip: the arithmetic and the reads that copy (one element, or a
      container's values from before the launch), last values included.
    - The tail: the stores and the counts.

    ``run(env) -> bool``, the standalone form, runs all three.
    :meth:`entry` builds on first use the loop-entry form ``fn(env)``,
    which runs the set-up alone and returns the rest as ``trip(env) ->
    bool`` (:func:`_done` for an empty launch), or None when the set-up
    declines.  The first two values of the source are what the set-up
    returns for an empty launch and when it declines: True and False in
    the standalone form, ``_done`` and None in the loop-entry form.
    ``reads`` holds the symbols the set-up reads."""

    __slots__ = ("run", "reads", "_parts", "_entry")

    def __init__(self, src: _Source, setup: list[str], trip: list[str], tail: list[str],
                 reads: frozenset[str]):
        self.reads, self._parts, self._entry = reads, (src.values, setup, trip, tail), None
        src.lines = ["try:", *("    " + x for x in setup + trip), "except Exception:",
                     "    return _k1", *tail, "return True"]
        self.run = src.build("_e")

    def entry(self) -> Callable:
        """The loop-entry form, built on first use."""
        if self._entry is None:
            values, setup, trip, tail = self._parts
            src = _Source()
            src.values = [_done, None, *values[2:]]
            src.lines = ["try:", *("    " + x for x in setup), "except Exception:",
                         "    return _k1", "def _trip(_e):", "    try:",
                         *("        " + x for x in trip or ["pass"]), "    except Exception:",
                         "        return False", *("    " + x for x in tail), "    return True",
                         "return _trip"]
            self._entry, self._parts = src.build("_e"), None
        return self._entry


def _compile_vector(facts: StateFacts, scope: MapEntry, members,
                    shapes: Mapping[str, tuple[int, ...]], containers,
                    reverse: bool) -> _Vector:
    """Compile the vector launch of ``scope``, whose ``run(env) -> bool``
    returns True when it ran every point (it also counts them), False when
    it stored nothing and the launch must run point by point (see
    :class:`_Vector` for its loop-entry form).  Raises :class:`_NotVector`
    when the map does not qualify."""
    outer = scope.param_names
    k = len(outer)
    order, inner, reduces = _vector_members(facts, scope, members)
    # the grid axes and the parameter names of each level: the map's, then
    # each inner map's, whose own axes follow those of the maps before it
    levels, names, params = [tuple(range(k))], [outer], scope.params
    for entry in inner:
        levels.append(levels[0] + tuple(range(len(params), len(params) + len(entry.params))))
        names.append(outer + entry.param_names)
        params += entry.params
    ins = {t.nid: [e for e in facts.ins[t.nid] if e.memlet is not None] for t, _ in order}
    outs = {t.nid: [e for e in facts.outs[t.nid] if e.memlet is not None] for t, _ in order}
    reductions = {}
    for t in reduces:  # its input is an intermediate, not a point memlet
        reductions[t.nid] = _reduction(t, ins[t.nid], outs[t.nid], shapes, containers)
        ins[t.nid] = []
    # (node, edge, is a write, level) of every point memlet
    accesses = [(t, e, w, lv) for t, lv in order
                for w, edges in ((False, ins[t.nid]), (True, outs[t.nid])) for e in edges]
    dims: dict[int, list] = {}  # by memlet id, with the grid axes of the parameters
    for _, e, _, lv in accesses:
        m = e.memlet
        if m.container not in shapes or containers[m.container].dtype is not DType.F64:
            raise _NotVector(f"'{m.container}' is not an f64 container")
        if m.subset.rank != len(shapes[m.container]):
            raise _NotVector("rank mismatch")
        dims[id(m)] = _affine(m.subset, names[lv])
        if lv:  # the inner map's parameters are grid axes after the map's
            dims[id(m)] = [(d if d is None else levels[lv][d], x) for d, x in dims[id(m)]]
    if not k or any(len(set(e.dst_conn for e in ins[t.nid])) != len(ins[t.nid])
                    for t, _ in order):
        raise _NotVector("no parameters, or an input connector fed twice")
    grids = _intermediates(accesses, dims, levels, inner, containers) if inner else {}
    roles, early = _vector_roles([a for a in accesses if a[1].memlet.container not in grids]
                                 if grids else accesses, dims, outer, shapes)
    if inner and any(lv and not w and roles[e.memlet.container] != "read"
                     for _, e, w, lv in accesses):
        raise _NotVector("an inner map reads what the map's body writes")

    src = _Source()
    # what the set-up returns for an empty launch and when it declines: in
    # the standalone form True and False (see _Vector.entry for the other)
    empty, decline = src.value(True), src.value(False)
    numbers: dict[tuple, str] = {}
    offsets: dict[SymExpr, str] = {}
    prelude: list[str] = []
    checks: dict[str, None] = {}
    view_lines: list[str] = []  # the set-up's views: reads and store targets
    body: list[str] = []
    stores: list[str] = []
    unit = [isinstance(s, symbolic.Const) and s.value == 1 for _, (_, _, s) in params]
    # each array is loaded once, at the head of the launch
    arrays = {c: f"_A{i}" for i, c in enumerate((*roles, *grids))}

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
            extent = shapes[m.container][dim]
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

    def fresh(prefix: str, code: str, lines: list[str] = body) -> str:
        name = f"{prefix}{len(view_lines) + len(body)}"
        lines.append(f"{name} = {code}")
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
            elif role == "read" or id(e.memlet) in early:
                code, axes = read(e.memlet, lv)
                if code not in views:  # a read of one element copies it, at each trip
                    views[code] = _Value(fresh("_v", code, view_lines if axes else body), axes)
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
                                     present), view_lines)
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
        for (d, shift), extent in zip(dims[id(grids[c])], shapes[c]):
            off = "" if shift == _ZERO else f" + {term(shift)}"
            checks[f"_a{d}{off} != 0 or _z{d}{off} != {num(extent - 1)}"] = None
    for c, (m, v) in plain.items():
        idx, present = index(m)
        target = fresh("_s", aligned(f"{arrays[c]}[{idx}]", present), view_lines)
        stores.append(f"{target}[...] = {v.code}")

    # each level's first and last point per axis, ``_a<d>`` and ``_z<d>``:
    # evaluated inline when every stride is 1, else from range objects
    inline = all(unit)

    def lens(axes) -> str:
        return " * ".join(f"(_z{d} - _a{d} + 1)" if inline else f"_len(_r{d})" for d in axes)

    head = []
    for ps, axes, result in ((scope.params, levels[0], empty),
                             *((e.params, lv[k:], decline) for e, lv in zip(inner, levels[1:]))):
        if inline:
            head += [f"_a{d}, _z{d} = {src.sym(b)}, {src.sym(e)}"
                     for d, (_, (b, e, _)) in zip(axes, ps)]
            head.append(f"if {' or '.join(f'_z{d} < _a{d}' for d in axes)}: return {result}")
        else:
            head += [f"{''.join(f'_r{d}, ' for d in axes)}= {src.value(_compile_ranges(ps))}(_e)",
                     f"if not ({' and '.join(f'_r{d}' for d in axes)}): return {result}"]
    if not inline:
        steps = [d for d, (_, (_, _, s)) in enumerate(params)
                 if not (isinstance(s, symbolic.Const) and s.value >= 1)]
        if steps:
            head.append(f"if {' or '.join(f'_r{d}.step < 1' for d in steps)}: return {decline}")
        head += [f"_a{d}, _z{d} = _r{d}.start, _r{d}[-1]" for d in range(len(params))]
    head.append(f"_n = {lens(range(k))}")
    # elements a memlet moves at each point of each level (all of them f64)
    moved = [0] * len(levels)
    for a in accesses:
        moved[a[3]] += 1
    for e, _ in reductions.values():
        moved[0] += math.prod(shapes[e.memlet.container])
    nbytes = DType.F64.nbytes
    count = ["_c.map_iterations += _n"]
    if moved[0]:
        count.append(f"_c.bytes_moved += _n * {num(moved[0] * nbytes)}")
    for lv in range(1, len(levels)):
        head += [f"_m{lv} = {lens(levels[lv][k:])}",
                 f"if _n * _m{lv} > {num(_GRID_LIMIT)}: return {decline}"]
        count.append(f"_c.map_iterations += _n * _m{lv}")
        if moved[lv]:
            count.append(f"_c.bytes_moved += _n * _m{lv} * {num(moved[lv] * nbytes)}")
    head += [f"_g{lv} = ({''.join(lens([d]) + ', ' for d in levels[lv])})"
             for lv in sorted(needs_grid)]
    if checks:
        prelude.append(f"if {' or '.join(checks)}: return {decline}")
    commits = sum(w and e.memlet.wcr is not None for _, e, w, _ in accesses)
    if commits:
        count.append(f"_c.wcr_commits += _n * {num(commits)}")
    loads = [f"{a} = {src.env(_array(c))}" for c, a in arrays.items()]
    setup = [*head, *loads, *prelude, *view_lines, f"_c = {src.env(_COUNTERS)}"]
    reads = frozenset(s for _, dim in params for x in dim for s in x.free_symbols()).union(
        *(x.free_symbols() for x in offsets))
    return _Vector(src, setup, body, stores + count, reads)
