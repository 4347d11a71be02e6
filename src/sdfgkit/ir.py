"""The stateful-dataflow-graph IR.

An ``Sdfg`` owns a descriptor table (data containers), a symbol table with
lower-bound assumptions, and a control-flow graph of ``State`` objects joined
by ``InterstateEdge`` transitions.  Each state is an acyclic multigraph of
dataflow nodes (access nodes, tasklets, map entry/exit pairs, library nodes,
nested graphs) whose edges carry ``Memlet`` annotations describing exactly
which container subset moves.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from . import symbolic, texpr
from .symbolic import Assumptions, SubsetRange, SymExpr, Ternary
from .texpr import TExpr


def _shallow(obj):
    """A new object of ``obj``'s class with the same attribute values, as
    ``copy.copy`` makes for these plain dataclasses, at a fraction of its
    cost."""
    twin = object.__new__(type(obj))
    twin.__dict__.update(obj.__dict__)
    return twin


def _fresh(value):
    """``value`` with every list and dict in it copied."""
    if isinstance(value, list):
        return [_fresh(v) for v in value]
    if isinstance(value, dict):
        return {k: _fresh(v) for k, v in value.items()}
    return value


class DType(Enum):
    F64 = "f64"
    I64 = "i64"
    I32 = "i32"
    BOOL = "bool"

    @property
    def nbytes(self) -> int:
        return {"f64": 8, "i64": 8, "i32": 4, "bool": 1}[self.value]

    @property
    def np(self):
        return {
            "f64": np.float64,
            "i64": np.int64,
            "i32": np.int32,
            "bool": np.bool_,
        }[self.value]


class DataKind(Enum):
    ARRAY = "array"
    SCALAR = "scalar"
    STREAM = "stream"


class Lifetime(Enum):
    SCOPE = "scope"
    PERSISTENT = "persistent"


class Storage(Enum):
    HEAP = "heap"
    STACK = "stack"
    DISTRIBUTED_LOCAL = "distributed_local"


class Schedule(Enum):
    SEQUENTIAL = "sequential"
    PARALLEL = "parallel"


class Wcr(Enum):
    """Write-conflict resolution operators (commutative and associative)."""

    ADD = "add"
    MUL = "mul"
    MIN = "min"
    MAX = "max"

    @property
    def identity(self):
        return {"add": 0.0, "mul": 1.0, "min": np.inf, "max": -np.inf}[self.value]


class LibKind(Enum):
    MATMUL = "matmul"
    TRANSPOSE = "transpose"
    REDUCE = "reduce"
    SCATTER = "scatter"
    GATHER = "gather"
    BCAST = "bcast"
    BLOCK_SCATTER = "block_scatter"
    BLOCK_GATHER = "block_gather"
    ISEND = "isend"
    IRECV = "irecv"
    WAITALL = "waitall"


P2P_KINDS = {LibKind.ISEND, LibKind.IRECV, LibKind.WAITALL}
COMM_KINDS = {
    LibKind.SCATTER,
    LibKind.GATHER,
    LibKind.BCAST,
    LibKind.BLOCK_SCATTER,
    LibKind.BLOCK_GATHER,
    *P2P_KINDS,
}
# the connectors of each kind of library node: (inputs, outputs)
LIB_CONNECTORS: dict[LibKind, tuple[tuple[str, ...], tuple[str, ...]]] = {
    LibKind.MATMUL: (("a", "b"), ("out",)),
    **{k: (("a",), ("out",)) for k in (
        LibKind.REDUCE, LibKind.TRANSPOSE, LibKind.BCAST, LibKind.SCATTER, LibKind.GATHER,
        LibKind.BLOCK_SCATTER, LibKind.BLOCK_GATHER)},
    LibKind.ISEND: (("buf",), ("req",)),
    LibKind.IRECV: ((), ("buf", "req")),
    LibKind.WAITALL: (("req",), ("req",)),
}


@dataclass
class DataDescriptor:
    name: str
    dtype: DType
    shape: tuple[SymExpr, ...] = ()
    kind: DataKind = DataKind.ARRAY
    transient: bool = False
    lifetime: Lifetime = Lifetime.SCOPE
    storage: Storage = Storage.HEAP

    def __post_init__(self):
        self.shape = tuple(symbolic.simplify(symbolic.as_expr(d)) for d in self.shape)
        if self.kind is DataKind.SCALAR and self.shape:
            raise ValueError(f"scalar '{self.name}' must have an empty shape")

    @property
    def rank(self) -> int:
        return len(self.shape)

    def full_subset(self) -> SubsetRange:
        return SubsetRange.full(self.shape)

    def byte_size(self, bindings: Mapping[str, int]) -> int:
        n = 1
        for d in self.shape:
            n *= d.evaluate(bindings)
        return n * self.dtype.nbytes


@dataclass
class Memlet:
    """A data-movement annotation: container name + strided subset."""

    container: str
    subset: SubsetRange
    wcr: Wcr | None = None
    volume: SymExpr | None = None

    def __post_init__(self):
        if self.volume is None:
            self.volume = self.subset.volume()

    def __str__(self):
        sub = str(self.subset)
        return f"{self.container}[{sub}]"


# ---------------------------------------------------------------------------
# Dataflow nodes


@dataclass(eq=False)
class Node:
    nid: int = field(default=-1, init=False, compare=False)

    def clone(self) -> "Node":
        """A new node with the same id and fields; a copied ``MapExit`` still
        names the original entry until :meth:`State.clone` re-links it."""
        return _shallow(self)


@dataclass(eq=False)
class AccessNode(Node):
    container: str


@dataclass(eq=False)
class Tasklet(Node):
    """Stateless scalar computation; ``code`` assigns each output connector."""

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    code: tuple[tuple[str, TExpr], ...]


@dataclass(eq=False)
class MapEntry(Node):
    params: tuple[tuple[str, tuple[SymExpr, SymExpr, SymExpr]], ...]
    schedule: Schedule = Schedule.SEQUENTIAL
    tiled: bool = False  # write-conflict tiling already applied or not needed

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(p for p, _ in self.params)


@dataclass(eq=False)
class MapExit(Node):
    entry: MapEntry


@dataclass(eq=False)
class LibraryNode(Node):
    kind: LibKind
    name: str = ""
    attributes: dict = field(default_factory=dict)

    def clone(self) -> "LibraryNode":
        twin = _shallow(self)
        twin.attributes = _fresh(self.attributes)
        return twin


@dataclass(eq=False)
class NestedSdfg(Node):
    sdfg: "Sdfg"
    symbol_map: dict[str, SymExpr] = field(default_factory=dict)
    # connector name == inner container name; memlets on edges give the outer view

    def clone(self) -> "NestedSdfg":
        twin = _shallow(self)
        twin.sdfg = self.sdfg.copy()
        twin.symbol_map = dict(self.symbol_map)
        return twin


@dataclass(eq=False)
class Edge:
    src: Node
    dst: Node
    memlet: Memlet | None = None
    src_conn: str | None = None
    dst_conn: str | None = None


@dataclass
class Diagnostic:
    severity: str  # 'error' | 'warning'
    message: str
    code: str = ""
    state: str | None = None
    node: int | None = None

    def to_json(self) -> dict:
        return {
            "severity": self.severity,
            "message": self.message,
            "code": self.code,
            "state": self.state,
            "node": self.node,
        }

    def __str__(self) -> str:
        at = [f"{k} {v}" for k, v in (("state", self.state), ("node", self.node))
              if v is not None]
        where = f" ({', '.join(at)})" if at else ""
        code = f" [{self.code}]" if self.code else ""
        return f"{self.severity}: {self.message}{where}{code}"


class State:
    """A label plus an acyclic dataflow multigraph.

    The state indexes its own adjacency: the in and out edges of each node,
    in edge order, and the exit of each map entry (the first exit added for
    it).  The index is keyed by node object, so :meth:`renumber` keeps it;
    :meth:`add`, :meth:`add_edge`, :meth:`remove_edge`, :meth:`remove_node`
    and :meth:`clone` keep it current, and the queries read it."""

    def __init__(self, label: str):
        self.label = label
        self.nodes: dict[int, Node] = {}
        self.edges: list[Edge] = []
        self._next_id = 0
        self._ins: dict[Node, list[Edge]] = {}
        self._outs: dict[Node, list[Edge]] = {}
        self._exits: dict[MapEntry, MapExit] = {}

    def add(self, node: Node) -> Node:
        node.nid = self._next_id
        self._next_id += 1
        self.nodes[node.nid] = node
        self._ins[node] = []
        self._outs[node] = []
        if isinstance(node, MapExit):
            self._exits.setdefault(node.entry, node)
        return node

    def add_edge(
        self,
        src: Node,
        dst: Node,
        memlet: Memlet | None = None,
        src_conn: str | None = None,
        dst_conn: str | None = None,
    ) -> Edge:
        e = Edge(src, dst, memlet, src_conn, dst_conn)
        self.edges.append(e)
        self._outs[src].append(e)
        self._ins[dst].append(e)
        return e

    def clone(self) -> "State":
        """A copy that a rewrite may change without touching this state.

        Nodes (ids and the next id kept), edges and memlets are new objects,
        each copied ``MapExit.entry`` is the copy's own entry, and library
        attributes, symbol maps and nested graphs are copied.  The immutable
        ``SymExpr``, ``SubsetRange`` and ``TExpr`` values are shared."""
        out = State(self.label)
        out._next_id = self._next_id
        nodes = out.nodes = {nid: n.clone() for nid, n in self.nodes.items()}
        ins = out._ins = {n: [] for n in nodes.values()}
        outs = out._outs = {n: [] for n in nodes.values()}
        for n in nodes.values():
            if isinstance(n, MapExit):
                n.entry = nodes[n.entry.nid]
                out._exits.setdefault(n.entry, n)
        for e in self.edges:
            c = Edge(nodes[e.src.nid], nodes[e.dst.nid],
                     None if e.memlet is None else _shallow(e.memlet), e.src_conn, e.dst_conn)
            out.edges.append(c)
            outs[c.src].append(c)
            ins[c.dst].append(c)
        return out

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` with its edges."""
        gone = self._ins.pop(node) + self._outs.pop(node)
        if gone:
            dead = {id(e) for e in gone}
            self.edges = [e for e in self.edges if id(e) not in dead]
            for e in gone:
                if e.src is not node:
                    self._outs[e.src].remove(e)
                if e.dst is not node:
                    self._ins[e.dst].remove(e)
        del self.nodes[node.nid]
        if isinstance(node, MapExit) and self._exits.get(node.entry) is node:
            del self._exits[node.entry]
            for n in self.nodes.values():  # another exit of the entry, in an invalid graph
                if isinstance(n, MapExit) and n.entry is node.entry:
                    self._exits[n.entry] = n
                    break

    def remove_edge(self, edge: Edge) -> None:
        self.edges.remove(edge)
        self._outs[edge.src].remove(edge)
        self._ins[edge.dst].remove(edge)

    def sorted_nodes(self) -> list[Node]:
        return [self.nodes[k] for k in sorted(self.nodes)]

    def renumber(self) -> None:
        """Number the nodes 0, 1, ... in their current order, as the JSON
        form does, so that ids agree before and after a round trip."""
        nodes = self.sorted_nodes()
        self.nodes = {}
        for i, n in enumerate(nodes):
            n.nid = i
            self.nodes[i] = n
        self._next_id = len(nodes)

    def in_edges(self, node: Node) -> list[Edge]:
        return list(self._ins[node])

    def out_edges(self, node: Node) -> list[Edge]:
        return list(self._outs[node])

    def exit_of(self, entry: MapEntry) -> MapExit:
        try:
            return self._exits[entry]
        except KeyError:
            raise KeyError(f"map entry {entry.nid} has no exit") from None

    def scope_children(self, entry: MapEntry) -> list[Node]:
        """Every node inside ``entry``'s scope, at any depth, by node id: the
        nodes its out edges reach before its exit."""
        exit_node = self.exit_of(entry)
        seen: set[Node] = set()
        pending = [entry]
        while pending:
            for e in self._outs[pending.pop()]:
                if e.dst is not exit_node and e.dst not in seen:
                    seen.add(e.dst)
                    pending.append(e.dst)
        return sorted(seen, key=lambda n: n.nid)

    def reaches(self, src: Node, dst: Node) -> bool:
        """Whether a path of one or more edges leads from ``src`` to ``dst``."""
        seen, pending = {src}, [src]
        while pending:
            for e in self._outs[pending.pop()]:
                if e.dst is dst:
                    return True
                if e.dst not in seen:
                    seen.add(e.dst)
                    pending.append(e.dst)
        return False

    def topological(self) -> list[Node]:
        """Kahn's order that always takes the smallest ready node id."""
        indeg = {nid: len(self._ins[n]) for nid, n in self.nodes.items()}
        ready = [nid for nid, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order: list[Node] = []
        while ready:
            node = self.nodes[heapq.heappop(ready)]
            order.append(node)
            for e in self._outs[node]:
                dst = e.dst.nid
                indeg[dst] -= 1
                if indeg[dst] == 0:
                    heapq.heappush(ready, dst)
        if len(order) != len(self.nodes):
            raise ValueError(f"cycle in state '{self.label}'")
        return order

    def facts(self) -> "StateFacts":
        """A snapshot of this state's structural analyses (see
        :class:`StateFacts`), its edges copied from the index; raises
        ``ValueError`` when the state has a cycle."""
        ins, outs = self._ins, self._outs
        return StateFacts(
            self, tuple(self.topological()),
            MappingProxyType({nid: tuple(ins[n]) for nid, n in self.nodes.items()}),
            MappingProxyType({nid: tuple(outs[n]) for nid, n in self.nodes.items()}),
            MappingProxyType(dict(self._exits)))

    def scope_parents(self) -> dict[int, MapEntry | None]:
        """Scope membership for every node, in topological order; edges must
        respect scope brackets."""
        return dict(self.facts().parents)


@dataclass(frozen=True, eq=False)
class StateFacts:
    """An immutable snapshot of one state's structural analyses, derived
    from one topological pass.

    It describes the state as it was when :meth:`State.facts` took it, so it
    holds only while the state's nodes and edges stay unchanged: the caller
    that owns such a state takes one snapshot and passes it to every
    analysis of the state.  The order, the edges of each node (in edge
    order) and the entry-to-exit lookup, copied from the state's index, are
    taken at once; the scope parents, scopes and reachability on first use.
    ``parents`` (and ``scopes``) raise ``ValueError`` when an edge breaks
    the scope brackets.
    """

    state: State
    order: tuple[Node, ...]
    ins: Mapping[int, tuple[Edge, ...]]
    outs: Mapping[int, tuple[Edge, ...]]
    exits: Mapping[MapEntry, MapExit]

    @cached_property
    def parents(self) -> Mapping[int, MapEntry | None]:
        """The innermost map entry whose scope holds each node (None at the
        top level), keyed in topological order."""
        parent: dict[int, MapEntry | None] = {}
        for node in self.order:
            preds = self.ins[node.nid]
            if not preds:
                parent[node.nid] = None
                continue
            scopes = set()
            for e in preds:
                s = e.src
                if isinstance(s, MapEntry):
                    scopes.add(s.nid)
                elif isinstance(s, MapExit):
                    outer = parent[s.entry.nid]
                    scopes.add(outer.nid if outer is not None else -1)
                else:
                    p = parent[s.nid]
                    scopes.add(p.nid if p is not None else -1)
            if isinstance(node, MapExit):
                # the exit lives in the same scope as its entry
                parent[node.nid] = parent[node.entry.nid]
                continue
            if len(scopes) != 1:
                raise ValueError(
                    f"node {node.nid} in state '{self.state.label}' joins different map scopes"
                )
            s = scopes.pop()
            parent[node.nid] = None if s == -1 else self.state.nodes[s]  # type: ignore[assignment]
        return MappingProxyType(parent)

    @cached_property
    def scopes(self) -> Mapping[MapEntry | None, tuple[Node, ...]]:
        """Direct members of every scope (key None for the top level), each in
        topological order.  An exit belongs to its entry's enclosing scope."""
        members: dict[MapEntry | None, list[Node]] = {None: []}
        for n in self.state.nodes.values():
            if isinstance(n, MapEntry):
                members[n] = []
        parents = self.parents
        for node in self.order:
            members[parents[node.nid]].append(node)
        return MappingProxyType({k: tuple(v) for k, v in members.items()})

    @cached_property
    def reach(self) -> Mapping[int, frozenset[int]]:
        """The ids each node reaches by a path of one or more edges."""
        reach: dict[int, frozenset[int]] = {}
        for node in reversed(self.order):
            succs = [e.dst.nid for e in self.outs[node.nid]]
            reach[node.nid] = frozenset(succs).union(*(reach[d] for d in succs))
        return MappingProxyType(reach)


@dataclass(eq=False)
class InterstateEdge:
    src: str
    dst: str
    condition: TExpr | None = None  # None is an always-taken fall-through
    assignments: dict[str, SymExpr] = field(default_factory=dict)


class Sdfg:
    """Top-level program graph."""

    def __init__(self, name: str):
        self.name = name
        self.containers: dict[str, DataDescriptor] = {}
        self.symbols: dict[str, int] = {}  # symbol -> lower bound
        self.states: list[State] = []
        self.transitions: list[InterstateEdge] = []
        self.start: str | None = None

    # -- construction -------------------------------------------------------

    def add_state(self, label: str | None = None, *, start: bool = False) -> State:
        if label is None:
            label = f"s{len(self.states)}"
        if any(s.label == label for s in self.states):
            raise ValueError(f"duplicate state label '{label}'")
        st = State(label)
        self.states.append(st)
        if start or self.start is None:
            self.start = label
        return st

    def add_transition(
        self,
        src: State | str,
        dst: State | str,
        condition: TExpr | None = None,
        assignments: Mapping[str, SymExpr | int] | None = None,
    ) -> InterstateEdge:
        sl = src.label if isinstance(src, State) else src
        dl = dst.label if isinstance(dst, State) else dst
        assigns = {
            k: symbolic.simplify(symbolic.as_expr(v)) for k, v in (assignments or {}).items()
        }
        e = InterstateEdge(sl, dl, condition, assigns)
        self.transitions.append(e)
        return e

    def add_symbol(self, name: str, lower: int = 1) -> None:
        self.symbols.setdefault(name, lower)

    def add_container(self, desc: DataDescriptor) -> DataDescriptor:
        if desc.name in self.containers:
            raise ValueError(f"duplicate container '{desc.name}'")
        self.containers[desc.name] = desc
        return desc

    def add_array(self, name, dtype, shape, transient=False, **kw) -> DataDescriptor:
        return self.add_container(
            DataDescriptor(name, dtype, tuple(symbolic.as_expr(s) for s in shape),
                           DataKind.ARRAY, transient, **kw)
        )

    def add_scalar(self, name, dtype, transient=False, **kw) -> DataDescriptor:
        return self.add_container(
            DataDescriptor(name, dtype, (), DataKind.SCALAR, transient, **kw)
        )

    def fresh_name(self, base: str) -> str:
        if base not in self.containers:
            return base
        k = 0
        while f"{base}_{k}" in self.containers:
            k += 1
        return f"{base}_{k}"

    # -- queries ------------------------------------------------------------

    def state(self, label: str) -> State:
        for s in self.states:
            if s.label == label:
                return s
        raise KeyError(f"no state '{label}'")

    def out_transitions(self, label: str) -> list[InterstateEdge]:
        return [t for t in self.transitions if t.src == label]

    def in_transitions(self, label: str) -> list[InterstateEdge]:
        return [t for t in self.transitions if t.dst == label]

    def assumptions(self) -> Assumptions:
        return Assumptions(self.symbols)

    def assigned_symbols(self) -> set[str]:
        """Symbols written on any interstate edge (loop counters etc.)."""
        out: set[str] = set()
        for t in self.transitions:
            out |= set(t.assignments)
        return out

    def copy(self) -> "Sdfg":
        """A structural copy: states by :meth:`State.clone`, and new
        descriptors, symbol table and transitions.  Descriptors are copied
        without ``__post_init__``, so their shapes are kept as they are."""
        out = Sdfg(self.name)
        out.containers = {k: _shallow(d) for k, d in self.containers.items()}
        out.symbols = dict(self.symbols)
        out.states = [st.clone() for st in self.states]
        out.transitions = [InterstateEdge(t.src, t.dst, t.condition, dict(t.assignments))
                           for t in self.transitions]
        out.start = self.start
        return out

    def free_symbols(self) -> set[str]:
        """Symbols the caller must bind: everything that appears in shapes,
        subsets, map ranges, conditions, and assignments, minus loop/map-bound
        names and container names."""
        used: set[str] = set()
        for d in self.containers.values():
            for dim in d.shape:
                used |= dim.free_symbols()
        bound: set[str] = self.assigned_symbols()
        for st in self.states:
            for node in st.nodes.values():
                if isinstance(node, MapEntry):
                    bound |= set(node.param_names)
                    for _, (b, e, s) in node.params:
                        used |= b.free_symbols() | e.free_symbols() | s.free_symbols()
                elif isinstance(node, Tasklet):
                    for _, code in node.code:
                        used |= code.free_names() - set(node.inputs)
                elif isinstance(node, LibraryNode):
                    for v in node.attributes.values():
                        if isinstance(v, SymExpr):
                            used |= v.free_symbols()
                elif isinstance(node, NestedSdfg):
                    inner = node.sdfg.free_symbols()
                    for s_ in inner:
                        expr = node.symbol_map.get(s_, symbolic.Sym(s_))
                        used |= expr.free_symbols()
            for e in st.edges:
                if e.memlet is not None:
                    used |= e.memlet.subset.free_symbols()
        for t in self.transitions:
            if t.condition is not None:
                used |= t.condition.free_names()
            for k, v in t.assignments.items():
                used |= v.free_symbols()
        return used - bound - set(self.containers)

    # -- validation ----------------------------------------------------------

    def validate(self, facts: dict[State, StateFacts] | None = None) -> list[Diagnostic]:
        return validate(self, facts)


# ---------------------------------------------------------------------------
# Validation


def _node_memlets(facts: StateFacts, node: AccessNode):
    writes = [e.memlet for e in facts.ins[node.nid] if e.memlet is not None]
    reads = [e.memlet for e in facts.outs[node.nid] if e.memlet is not None]
    return writes, reads


def _late_reads(facts: StateFacts, first: AccessNode, later: AccessNode):
    """(read, write) memlet pairs where ``first`` reaches ``later`` but the
    consumer of a read of ``first`` does not reach the producer of a write
    of ``later``, so the write may overwrite what the read still needs."""
    reach = facts.reach
    return [(r.memlet, w.memlet)
            for r in facts.outs[first.nid] if r.memlet is not None
            for w in facts.ins[later.nid] if w.memlet is not None
            if r.dst is not w.src and w.src.nid not in reach[r.dst.nid]]


def unordered_hazards(
    state: State, assumptions: Assumptions, facts: StateFacts | None = None
) -> list[tuple[str, AccessNode, AccessNode, Ternary]]:
    """Pairs of same-container access occurrences with a write and no
    ordering path between them, and ordered pairs whose earlier occurrence
    has a consumer that is not ordered before a write of the later one
    (write after read).  The Ternary reports provable disjointness of the
    colliding subsets (UNKNOWN and FALSE are hazards).  ``facts`` is the
    state's snapshot, taken here when not given."""
    facts = facts or state.facts()
    by_container: dict[str, list[AccessNode]] = {}
    for n in state.sorted_nodes():
        if isinstance(n, AccessNode):
            by_container.setdefault(n.container, []).append(n)
    out = []
    for cont, occs in by_container.items():
        for i in range(len(occs)):
            for j in range(i + 1, len(occs)):
                u, v = occs[i], occs[j]
                uw, ur = _node_memlets(facts, u)
                vw, vr = _node_memlets(facts, v)
                if not uw and not vw:
                    continue
                # reachability is derived only for states that need it
                reach = facts.reach
                if v.nid in reach[u.nid]:
                    pairs = _late_reads(facts, u, v)
                elif u.nid in reach[v.nid]:
                    pairs = _late_reads(facts, v, u)
                else:
                    pairs = [(m1, m2) for m1 in uw for m2 in vw + vr]
                    pairs += [(m1, m2) for m1 in vw for m2 in ur]
                verdicts = [symbolic.disjoint(m1.subset, m2.subset, assumptions)
                            for m1, m2 in pairs
                            # commuting conflict resolution
                            if not (m1.wcr is not None and m2.wcr == m1.wcr)]
                if not verdicts:
                    continue
                verdict = (
                    Ternary.TRUE
                    if all(v_ is Ternary.TRUE for v_ in verdicts)
                    else (Ternary.FALSE if any(v_ is Ternary.FALSE for v_ in verdicts) else Ternary.UNKNOWN)
                )
                if verdict is not Ternary.TRUE:
                    out.append((cont, u, v, verdict))
    return out


def data_races(state: State, assumptions: Assumptions,
               facts: StateFacts | None = None) -> list[tuple[str, int, Ternary]]:
    """Every data race in an acyclic state as (container, node id, verdict).

    Unordered same-container access pairs come first, reported at their
    first node; then the cross-iteration conflicts of each non-sequential
    map, reported at its entry (sequential maps execute in order and may
    carry dependences).  FALSE means a proven collision, UNKNOWN an
    unprovable disjointness.  ``facts`` is the state's snapshot, taken here
    when not given."""
    facts = facts or state.facts()
    out = [(cont, u.nid, verdict)
           for cont, u, _, verdict in unordered_hazards(state, assumptions, facts)]
    for entry in state.nodes.values():
        if not isinstance(entry, MapEntry) or entry.schedule is Schedule.SEQUENTIAL:
            continue
        if entry not in facts.exits:
            continue  # validate reports the unbalanced brackets
        out += [(cont, entry.nid, Ternary.FALSE)
                for cont, _, _ in scope_cross_iteration_hazards(state, entry, facts)]
    return out


def race_free(state: State, assumptions: Assumptions,
              facts: StateFacts | None = None) -> bool:
    """The legality predicate of every rewrite: the state is acyclic, its
    edges respect scope brackets, and it has no data race.  ``facts`` is
    the state's snapshot, taken here when not given."""
    try:
        facts = facts or state.facts()
        facts.parents
    except ValueError:
        return False
    return not data_races(state, assumptions, facts)


def _library_attribute_problems(n: LibraryNode, ins: Sequence[Edge],
                                outs: Sequence[Edge]) -> list[str]:
    """What is wrong with the attributes a matmul's or reduce's expansions
    read: each ``<conn>_kept`` is absent or one boolean per dimension of
    that connector's memlet, a reduce's ``axes`` is absent, null or a list
    of ints, and its ``op`` names a ``Wcr``."""
    if n.kind not in (LibKind.MATMUL, LibKind.REDUCE):
        return []
    ranks = {e.dst_conn: e.memlet.subset.rank for e in ins if e.memlet is not None}
    ranks.update((e.src_conn, e.memlet.subset.rank) for e in outs if e.memlet is not None)
    what, attrs, problems = f"{n.kind.value} node {n.nid}", n.attributes, []
    for conn in LIB_CONNECTORS[n.kind][0] + LIB_CONNECTORS[n.kind][1]:
        kept = attrs.get(f"{conn}_kept")
        if kept is None:
            continue
        if not isinstance(kept, (list, tuple)) or any(type(k) is not bool for k in kept):
            problems.append(f"{conn}_kept of {what} is {kept!r}, not a list of booleans")
        elif conn in ranks and len(kept) != ranks[conn]:
            problems.append(f"{conn}_kept of {what} has {len(kept)} entries for the "
                            f"{ranks[conn]} dimensions of its memlet")
    if n.kind is LibKind.REDUCE:
        axes = attrs.get("axes")
        if axes is not None and (not isinstance(axes, (list, tuple))
                                 or any(type(a) is not int for a in axes)):
            problems.append(f"axes of {what} is {axes!r}, not null or a list of ints")
        try:
            Wcr(attrs.get("op", "add"))
        except (ValueError, TypeError):
            problems.append(f"op of {what} is {attrs.get('op')!r}, not one of "
                            f"{[w.value for w in Wcr]}")
    return problems


def _tasklet_connector_problems(n: Tasklet, outs: Sequence[Edge]) -> list[str]:
    """What is wrong with the connectors a tasklet's code assigns: each is
    one of its out-connectors, and each out-connector an edge writes (an
    edge without a connector writes the first) is assigned, as the
    interpreter and the C emitter read it."""
    assigned = [conn for conn, _ in n.code]
    first = n.outputs[0] if n.outputs else None
    written = {first if e.src_conn is None else e.src_conn
               for e in outs if e.memlet is not None}
    problems = [f"assigns {c!r}, which is not an out-connector"
                for c in assigned if c not in n.outputs]
    if not written.issubset(assigned):
        problems += [f"does not assign {c!r}, which an edge writes"
                     for c in sorted(written.difference(assigned), key=str)]
    return problems


def validate(g: Sdfg, facts: dict[State, StateFacts] | None = None) -> list[Diagnostic]:
    """Structural validation; returns diagnostics instead of raising.

    ``facts`` maps states to their snapshots.  Validation uses the
    snapshots it finds there and adds the ones it takes, so a caller that
    goes on to analyse the unchanged graph derives each state's facts once.
    """
    if facts is None:
        facts = {}
    diags: list[Diagnostic] = []

    def err(msg, code, state=None, node=None):
        diags.append(Diagnostic("error", msg, code, state, node))

    def warn(msg, code, state=None, node=None):
        diags.append(Diagnostic("warning", msg, code, state, node))

    if g.start is None or not any(s.label == g.start for s in g.states):
        err(f"missing or unknown start state '{g.start}'", "start-state")
        return diags

    labels = [s.label for s in g.states]
    odd = [label for label in labels if not isinstance(label, str)]
    for label in odd:
        err(f"state label {label!r} is not a string", "state-labels")
    if odd:
        return diags  # the checks below look states up by their labels
    if len(set(labels)) != len(labels):
        err("duplicate state labels", "state-labels")

    assumptions = g.assumptions()
    symbol_names = set(g.symbols) | g.assigned_symbols()
    known_names = symbol_names | set(g.containers)

    for d in g.containers.values():
        for dim in d.shape:
            for s in dim.free_symbols():
                if s not in g.symbols:
                    err(f"shape of '{d.name}' uses undeclared symbol '{s}'", "unknown-symbol")
        if d.kind is DataKind.SCALAR and d.shape:
            err(f"scalar '{d.name}' has a shape", "scalar-shape")
        if d.kind is DataKind.STREAM and d.rank != 1:
            err(f"stream '{d.name}' must be one-dimensional", "stream-rank")

    for st in g.states:
        # acyclicity + scope structure
        sf = facts.get(st)
        if sf is None:
            try:
                sf = facts[st] = st.facts()
            except ValueError as ex:
                err(str(ex), "state-cycle", st.label)
                continue
        try:
            parents = sf.parents
        except ValueError as ex:
            err(str(ex), "scope-structure", st.label)
            continue

        # the map parameters visible inside each scope; a map's range may
        # name the declared and assigned symbols and the parameters of the
        # maps around it
        visible: dict[MapEntry | None, frozenset[str]] = {None: frozenset()}
        for n in sf.order:
            if isinstance(n, MapEntry):
                outer = visible[parents[n.nid]]
                for p, (b, e, s) in n.params:
                    names = b.free_symbols() | e.free_symbols() | s.free_symbols()
                    for sname in sorted(names - symbol_names - outer):
                        err(f"range {b}:{e}:{s} of map parameter '{p}' uses undeclared "
                            f"name '{sname}'", "unknown-symbol", st.label, n.nid)
                visible[n] = outer.union(n.param_names)

        entries = [n for n in st.nodes.values() if isinstance(n, MapEntry)]
        exits = [n for n in st.nodes.values() if isinstance(n, MapExit)]
        if len(entries) != len(exits) or {id(x.entry) for x in exits} != {id(e) for e in entries}:
            err("unbalanced map entry/exit pairs", "scope-brackets", st.label)

        for e in st.edges:
            for end, conn in ((e.src, e.src_conn), (e.dst, e.dst_conn)):
                if isinstance(end, AccessNode) and conn is not None:
                    # an access node is all one container: it has no connectors
                    err(f"edge at access node {end.nid} of '{end.container}' names "
                        f"connector '{conn}'", "access-connector", st.label, end.nid)
            if e.memlet is None:
                continue
            m = e.memlet
            if m.container not in g.containers:
                err(f"unknown container {m.container}", "unknown-container", st.label)
                continue
            acc = [n for n in (e.src, e.dst) if isinstance(n, AccessNode)]
            if len(acc) == 1 and acc[0].container != m.container:
                # only a copy between two access nodes names either container
                err(f"edge at access node {acc[0].nid} of '{acc[0].container}' carries "
                    f"memlet {m}", "access-container", st.label, acc[0].nid)
            desc = g.containers[m.container]
            if m.subset.rank != desc.rank:
                err(
                    f"memlet {m} has rank {m.subset.rank}, container has rank {desc.rank}",
                    "rank-mismatch",
                    st.label,
                )
            if m.wcr is not None and not isinstance(e.dst, (AccessNode, MapExit)):
                err(f"wcr memlet {m} on a non-write edge", "wcr-read", st.label, e.dst.nid)
            unknown = [s for s in m.subset.free_symbols() if s not in known_names]
            if unknown:
                # a map's own boundary memlets also see its parameters
                seen = set(visible[parents[e.src.nid]] | visible[parents[e.dst.nid]])
                if isinstance(e.src, MapEntry):
                    seen.update(e.src.param_names)
                if isinstance(e.dst, MapExit):
                    seen.update(e.dst.entry.param_names)
                for sname in unknown:
                    if sname not in seen:
                        err(f"memlet {m} uses undeclared name '{sname}'", "unknown-symbol",
                            st.label)

        # dataflow endpoints: sinks must be access nodes; tasklet outputs consumed
        for n in st.nodes.values():
            if isinstance(n, (MapEntry, MapExit)):
                # each connector of a scope node pairs one input with its outputs
                seen: set[str] = set()
                for conn in [e.dst_conn for e in sf.ins[n.nid] if isinstance(e.dst_conn, str)]:
                    if conn in seen:
                        err(f"two edges into {type(n).__name__} {n.nid} name connector '{conn}'",
                            "scope-connector", st.label, n.nid)
                    seen.add(conn)
            if isinstance(n, MapExit):
                # an exit passes each write on from IN_x to the edges out of OUT_x
                # (a graph without connectors pairs its unnamed edges)
                passed = {e.src_conn for e in sf.outs[n.nid]}
                for e in sf.ins[n.nid]:
                    conn = e.dst_conn
                    if conn is not None and not conn.startswith("IN_"):
                        err(f"edge into map exit {n.nid} names connector '{conn}', not IN_x",
                            "exit-connector", st.label, n.nid)
                    elif (None if conn is None else "OUT_" + conn[3:]) not in passed:
                        err(f"no edge leaves map exit {n.nid} for its input {conn or 'without a connector'}",
                            "exit-connector", st.label, n.nid)
            if isinstance(n, LibraryNode):
                # each edge names one of the kind's connectors, each once
                takes, gives = LIB_CONNECTORS[n.kind]
                for side, want, edges in (("in", takes, sf.ins[n.nid]),
                                          ("out", gives, sf.outs[n.nid])):
                    conns = [e.dst_conn if side == "in" else e.src_conn for e in edges]
                    if (len(conns) != len(want) or any(e.memlet is None for e in edges)
                            or set(want) != {c for c in conns if isinstance(c, str)}):
                        err(f"{side} edges of {n.kind.value} node {n.nid} name "
                            f"{[str(c) for c in conns]}; it takes {list(want)}, "
                            "each once with a memlet", "library-connector", st.label, n.nid)
                for problem in _library_attribute_problems(n, sf.ins[n.nid], sf.outs[n.nid]):
                    err(problem, "library-attributes", st.label, n.nid)
            if not sf.outs[n.nid] and not isinstance(n, AccessNode):
                err(
                    f"{type(n).__name__} {n.nid} is a dataflow sink",
                    "sink-not-access",
                    st.label,
                    n.nid,
                )
            if isinstance(n, Tasklet):
                conns = {e.dst_conn for e in sf.ins[n.nid]}
                missing = set(n.inputs) - conns
                if missing:
                    err(
                        f"tasklet {n.name} missing inputs {sorted(missing)}",
                        "missing-input",
                        st.label,
                        n.nid,
                    )
                problems = _tasklet_connector_problems(n, sf.outs[n.nid])
                if problems:
                    err(f"tasklet {n.name} {', and '.join(problems)}", "tasklet-connector",
                        st.label, n.nid)
                scope_params = visible[parents[n.nid]]
                for _, code in n.code:
                    for what in texpr.unrendered(code):
                        err(f"tasklet {n.name} code uses {what}, which the expression "
                            "grammar does not render", "unknown-operator", st.label, n.nid)
                    for name in sorted(code.free_names()):
                        if (name not in n.inputs and name not in known_names
                                and name not in scope_params):
                            err(
                                f"tasklet {n.name} references unknown name '{name}'",
                                "unknown-name",
                                st.label,
                                n.nid,
                            )

        for cont, nid, verdict in data_races(st, assumptions, sf):
            if verdict is Ternary.FALSE:
                err(f"data race on {cont}", "data-race", st.label, nid)
            else:
                err(f"possible data race on {cont} (unprovable disjointness)",
                    "data-race", st.label, nid)

    # interstate edges
    labels = {s.label for s in g.states}
    leaving: dict[str, list[InterstateEdge]] = {}
    textless: set[str] = set()  # states a condition of which has no text
    for t in g.transitions:
        leaving.setdefault(t.src, []).append(t)
        if t.src not in labels or t.dst not in labels:
            err(f"transition {t.src}->{t.dst} references unknown state", "unknown-state")
            continue
        if t.condition is not None:
            for what in texpr.unrendered(t.condition):
                err(f"condition on {t.src}->{t.dst} uses {what}, which the expression "
                    "grammar does not render", "unknown-operator")
                textless.add(t.src)
            for name in sorted(t.condition.free_names()):
                if name not in known_names:
                    err(
                        f"condition on {t.src}->{t.dst} uses undeclared name '{name}'",
                        "unknown-symbol",
                    )
                elif name in g.containers and g.containers[name].rank:
                    # a condition reads one value: a symbol or a scalar's
                    err(f"condition on {t.src}->{t.dst} reads array '{name}'; a condition "
                        "reads only symbols and scalars", "condition-container")
    for st in g.states:
        outs = leaving.get(st.label, [])
        conded = [t for t in outs if t.condition is not None]
        if conded and len(conded) == len(outs) and st.label not in textless:
            if not _exhaustive_conditions([t.condition for t in conded]):
                warn(
                    f"outgoing conditions of '{st.label}' may not be exhaustive",
                    "non-exhaustive",
                    st.label,
                )

    return diags


def _pinned(params: set[str], w: SubsetRange, x: SubsetRange) -> set[str]:
    """The parameters that ``w`` and ``x`` pin.  A dimension pins a parameter
    when both subsets index it with the same single-parameter point
    expression, so a collision forces equal values."""
    out: set[str] = set()
    for (wb, we, _), (xb, xe, _) in zip(w.dims, x.dims):
        if wb != we or xb != xe:
            continue
        if wb != xb and symbolic.simplify(wb) != symbolic.simplify(xb):
            continue
        deps = wb.free_symbols() & params
        if len(deps) == 1:
            out |= deps
    return out


class Meet(Enum):
    """Where a write and another access of one container in a map over some
    parameters can touch one element (see :func:`meet`)."""

    NEVER = "never"  # at no pair of iterations
    SAME_POINT = "same point"  # only when both run at one iteration
    UNKNOWN = "unknown"


def meet(params: set[str], w: SubsetRange, x: SubsetRange) -> Meet:
    """The dependence test of a write ``w`` and an access ``x`` of one
    container in a map over ``params``: the race check and the vector
    launch both ask it.

    ``NEVER`` when some dimension that no parameter indexes has point
    indices whose difference simplifies to a nonzero constant (the ZIV test
    of Allen and Kennedy, *Optimizing Compilers for Modern Architectures*,
    2001); ``SAME_POINT`` when the two pin every parameter (see
    :func:`_pinned`); ``UNKNOWN`` otherwise."""
    for (wb, we, _), (xb, xe, _) in zip(w.dims, x.dims):
        if (wb is not xb and wb is we and xb is xe and params.isdisjoint(wb.free_symbols())
                and params.isdisjoint(xb.free_symbols())):
            d = symbolic.simplify(wb - xb)
            if isinstance(d, symbolic.Const) and d.value != 0:
                return Meet.NEVER
    return Meet.SAME_POINT if _pinned(params, w, x) >= params else Meet.UNKNOWN


def scope_cross_iteration_hazards(
    state: State, entry: MapEntry, facts: StateFacts | None = None
) -> list[tuple[str, Memlet, Memlet]]:
    """Same-container boundary memlets that may collide across iterations.

    A write/access pair is safe only if :func:`meet` proves that they never
    meet or meet only at one iteration, or both sides agree on the same
    write-conflict resolution.  ``facts`` is the state's snapshot, taken
    here when not given.
    """
    facts = facts or state.facts()
    return iteration_conflicts(entry.param_names, facts.outs[entry.nid],
                               facts.ins[facts.exits[entry].nid])


def iteration_conflicts(param_names: Sequence[str], read_edges: Sequence[Edge],
                        write_edges: Sequence[Edge]) -> list[tuple[str, Memlet, Memlet]]:
    """The same-container memlet pairs of a map with parameters
    ``param_names``, which reads by the edges ``read_edges`` (out of its
    entry) and writes by ``write_edges`` (into its exit), that may collide
    across iterations (see :func:`scope_cross_iteration_hazards`)."""
    reads: dict[str, list[Memlet]] = {}
    writes: dict[str, list[Memlet]] = {}
    for edges, out in ((read_edges, reads), (write_edges, writes)):
        for e in edges:
            if e.memlet is not None:
                out.setdefault(e.memlet.container, []).append(e.memlet)
    params = set(param_names)
    hazards = []
    for cont, wlist in writes.items():
        others = wlist + reads.get(cont, [])
        for w in wlist:
            for x in others:
                if w.wcr is not None and x.wcr == w.wcr:
                    continue
                if meet(params, w.subset, x.subset) is Meet.UNKNOWN:
                    hazards.append((cont, w, x))
    return hazards


def _exhaustive_conditions(conds: Sequence[TExpr]) -> bool:
    """Structural check: some pair of conditions are each other's negation."""
    rendered = [texpr.to_text(c) for c in conds]
    negs = [texpr.to_text(texpr.negated(c)) for c in conds]
    return any(n in rendered for n in negs)


# ---------------------------------------------------------------------------
# Content signatures, shared by structural equality and content keys
#
# Every field the JSON form holds, as flat tuples of interned values: names,
# enums, interned expressions and subsets, and tasklet code and conditions as
# text (which tells 1 from 1.0).  A signature names another node by its
# entry in ``names``: its key in the state's table in a content key, its
# position in structural equality; a node the state does not hold names
# itself.  Signatures are compared, never hashed.


def _unknown_node(n: Node, names: dict) -> tuple:
    raise TypeError(type(n).__name__)


def _attr_sig(v):
    """A library attribute as a signature: dicts by their sorted items,
    lists and tuples alike by their items (the JSON form keeps no tuple),
    any other value with its type, so that 1, 1.0 and True differ."""
    if isinstance(v, dict):
        return (dict, tuple((k, _attr_sig(v[k])) for k in sorted(v)))
    if isinstance(v, (list, tuple)):
        return (tuple, tuple(_attr_sig(x) for x in v))
    return (type(v), v)


# each node type's signature: its fields after a tag that fixes how many
# follow (a nested graph's own content is left to the caller)
_NODE_SIGNATURES: dict[type, Callable] = {
    AccessNode: lambda n, names: ("access", n.container),
    Tasklet: lambda n, names: ("tasklet", n.name, n.inputs, n.outputs, len(n.code),
                               *[y for c, x in n.code for y in (c, texpr.to_text(x))]),
    MapEntry: lambda n, names: ("map_entry", n.params, n.schedule, n.tiled),
    MapExit: lambda n, names: ("map_exit", names.get(n.entry, n.entry)),
    LibraryNode: lambda n, names: ("library", n.kind, n.name, _attr_sig(n.attributes)),
    NestedSdfg: lambda n, names: ("nested", tuple(sorted(n.symbol_map.items()))),
}


def _edge_signature(e: Edge, names: dict) -> tuple:
    m = e.memlet
    src, dst = names.get(e.src, e.src), names.get(e.dst, e.dst)
    if m is None:
        return (src, dst, e.src_conn, e.dst_conn, None)
    return (src, dst, e.src_conn, e.dst_conn, m.container, m.wcr, m.volume, m.subset.dims)


def _graph_signature(g: Sdfg) -> tuple:
    """Every field of ``g`` outside its states."""
    return (
        g.name, g.start, tuple(sorted(g.symbols.items())),
        tuple([(k, d.name, d.dtype, d.shape, d.kind, d.transient, d.lifetime, d.storage)
               for k, d in g.containers.items()]),
        tuple([(t.src, t.dst, None if t.condition is None else texpr.to_text(t.condition),
                tuple(t.assignments.items())) for t in g.transitions]),
    )


def content_key(g: Sdfg) -> tuple:
    """An exact key of ``g``'s content, for tables that share work between
    equal graphs: two graphs have equal keys exactly when every field their
    JSON forms hold is equal and their node ids are too.  Each state is one
    flat tuple (its label, node count, each node's place in the state's
    table, id and signature, then each edge's), which keeps the objects a
    table of keys holds few, so that garbage collection has little to walk;
    a nested graph's key follows its node's signature.  Raises what a
    malformed graph makes a signature raise (``TypeError`` for a node of
    another type)."""
    return (_graph_signature(g), tuple([_state_key(st) for st in g.states]))


def _state_key(st: State) -> tuple:
    nodes = st.nodes
    names = {n: k for k, n in nodes.items()}
    out = [st.label, len(nodes)]
    for k, n in nodes.items():
        out += (k, n.nid)
        out += _NODE_SIGNATURES.get(type(n), _unknown_node)(n, names)
        if type(n) is NestedSdfg:
            out.append(content_key(n.sdfg))
    for e in st.edges:
        out += _edge_signature(e, names)
    return tuple(out)


def _state_signature(st: State) -> tuple[tuple, list[Sdfg]]:
    """The state with its nodes by position (in id order) instead of id, and
    its nested graphs."""
    nodes = st.sorted_nodes()
    pos = {n: i for i, n in enumerate(nodes)}
    out = [st.label, len(nodes)]
    for n in nodes:
        out += _NODE_SIGNATURES.get(type(n), _unknown_node)(n, pos)
    for e in st.edges:
        out += _edge_signature(e, pos)
    return tuple(out), [n.sdfg for n in nodes if type(n) is NestedSdfg]


def structural_eq(a: Sdfg, b: Sdfg) -> bool:
    """Field-by-field comparison ignoring raw node-id values."""
    if _graph_signature(a) != _graph_signature(b) or len(a.states) != len(b.states):
        return False
    for sa, sb in zip(a.states, b.states):
        (sig_a, nested_a), (sig_b, nested_b) = _state_signature(sa), _state_signature(sb)
        if sig_a != sig_b or not all(map(structural_eq, nested_a, nested_b)):
            return False
    return True
