"""Automatic optimization heuristics and library-node specialization.

The target-independent pipeline (:func:`auto_optimize`) runs, in order:
dataflow coarsening, map-scope cleanup (degenerate-map removal, loop
auto-parallelization, nested-map collapse), greedy subgraph fusion of maps
with equal or permuted iteration spaces, and transient allocation
mitigation.  Library nodes and write-conflict maps stay as they are, so the
interpreter runs matrix products, reductions and transposes through numpy.

CPU specialization (:func:`specialize`) is a code-generation step: tiling of
write-conflict maps, then library-node expansion by a priority
list whose last entry is a "native" pure-graph expansion that always
succeeds.  The C emitter runs it on a copy before it emits.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from . import symbolic, texpr
from .ir import (
    AccessNode, DataKind, LibKind, LibraryNode, Lifetime, MapEntry, MapExit,
    Memlet, NestedSdfg, Node, Schedule, Sdfg, State, Storage, Tasklet, Ternary, Wcr,
    iteration_conflicts, race_free,
)
from .passes import (
    PassReport, _snapshot, coarsen, find_loops, loop_to_map, nodes_of, to_fixed_point,
)
from .symbolic import Const, Min, SubsetRange, Sym, SymExpr, element_subset
from .texpr import TBin, TNum, TRef


class Device(Enum):
    CPU = "cpu"
    DIST = "dist"

    @staticmethod
    def parse(name: str) -> "Device":
        try:
            return Device(name.lower())
        except ValueError:
            raise ValueError(f"unsupported backend '{name}'")


# ---------------------------------------------------------------------------
# Map-scope cleanup


def cleanup_maps(g: Sdfg) -> PassReport:
    """Remove size-1 map dimensions, run loop-to-map to a fixed point, and
    collapse directly nested maps into multidimensional ones."""
    report = PassReport()
    for name, n in to_fixed_point({
        "degenerate_map": lambda: _remove_degenerate_dim(g),
        "loop_to_map": lambda: any(loop_to_map(g, loop, report) for loop in find_loops(g)),
        "map_collapse": lambda: _collapse_nested(g),
    }):
        report.count(name, n)
    return report


def _remove_degenerate_dim(g: Sdfg) -> bool:
    asm = g.assumptions()
    for st, node in nodes_of(g, MapEntry):
        for d, (p, (b, e, s)) in enumerate(node.params):
            if symbolic.eq(b, e, asm) is Ternary.TRUE:
                _rename_in_scope(st, node, st.scope_children(node), {p: b})
                node.params = node.params[:d] + node.params[d + 1:]
                if not node.params:
                    _dissolve_scope(st, node, st.exit_of(node))
                return True
    return False


def _rename_in_scope(st: State, entry: MapEntry, children: list[Node],
                     sub: dict[str, SymExpr]) -> None:
    """Substitute ``sub`` for parameters of ``entry`` in its scope, whose
    nodes are ``children``: memlets (the scope's boundary included), tasklet
    code and nested map ranges."""
    edges = {id(e): e for n in children for e in st.in_edges(n) + st.out_edges(n)}
    edges.update((id(e), e) for e in st.out_edges(entry) + st.in_edges(st.exit_of(entry)))
    tsub = {k: texpr.parse_texpr(str(v)) for k, v in sub.items()}
    for e in edges.values():
        if e.memlet is not None:
            e.memlet.subset = e.memlet.subset.substitute(sub)
            e.memlet.volume = symbolic.substitute(e.memlet.volume, sub)
    for n in children:
        if isinstance(n, Tasklet):
            n.code = tuple((c, texpr.subst_refs(x, tsub)) for c, x in n.code)
        elif isinstance(n, MapEntry):
            n.params = tuple(
                (p, tuple(symbolic.substitute(x, sub) for x in rng))
                for p, rng in n.params
            )


def _dissolve_scope(st: State, entry: MapEntry, exit_node: MapExit) -> None:
    """Remove an empty-parameter scope, bridging edges by connector."""
    for hub in (entry, exit_node):
        ins = {e.dst_conn: e for e in st.in_edges(hub)}
        outs = st.out_edges(hub)
        for oe in list(outs):
            if oe.src_conn is None:
                st.remove_edge(oe)
                continue
            key = "IN_" + oe.src_conn[len("OUT_"):]
            ie = ins.get(key)
            if ie is None:
                st.remove_edge(oe)
                continue
            st.add_edge(ie.src, oe.dst, oe.memlet, ie.src_conn, oe.dst_conn)
            st.remove_edge(oe)
        for ie in list(st.in_edges(hub)):
            st.remove_edge(ie)
    st.remove_node(entry)
    st.remove_node(exit_node)


def _collapse_nested(g: Sdfg) -> bool:
    for st, node in nodes_of(g, MapEntry):
        inner = {e.dst for e in st.out_edges(node)}
        if len(inner) != 1:
            continue
        inner_entry = inner.pop()
        if not isinstance(inner_entry, MapEntry):
            continue
        if inner_entry.schedule is not node.schedule:
            continue
        if {e.src for e in st.in_edges(inner_entry)} != {node}:
            continue
        inner_exit = st.exit_of(inner_entry)
        outer_exit = st.exit_of(node)
        if {e.dst for e in st.out_edges(inner_exit)} != {outer_exit}:
            continue
        _collapse_pair(st, node, inner_entry, inner_exit, outer_exit)
        return True
    return False


def _collapse_pair(st: State, outer_entry: MapEntry, inner_entry: MapEntry,
                   inner_exit: MapExit, outer_exit: MapExit) -> None:
    # entry side: outer[OUT_c] -> inner[IN_c'] ; inner[OUT_c'] -> t
    # becomes outer[OUT_c] -> t with the innermost memlet
    mid_by_conn = {
        _strip(e.dst_conn): e for e in st.in_edges(inner_entry) if e.dst_conn
    }
    for oe in list(st.out_edges(inner_entry)):
        if oe.src_conn is None:
            st.add_edge(outer_entry, oe.dst)
        else:
            mid = mid_by_conn.get(_strip(oe.src_conn))
            if mid is not None:
                st.add_edge(outer_entry, oe.dst, oe.memlet,
                            mid.src_conn, oe.dst_conn)
        st.remove_edge(oe)
    # exit side: t -> inner_exit[IN_d] ; inner_exit[OUT_d] -> outer_exit[IN_c]
    # becomes t -> outer_exit[IN_c]
    out_by_conn = {
        _strip(e.src_conn): e for e in st.out_edges(inner_exit) if e.src_conn
    }
    for ie in list(st.in_edges(inner_exit)):
        if ie.dst_conn is not None:
            mid = out_by_conn.get(_strip(ie.dst_conn))
            if mid is not None:
                st.add_edge(ie.src, outer_exit, ie.memlet, ie.src_conn, mid.dst_conn)
        st.remove_edge(ie)
    outer_entry.params = outer_entry.params + inner_entry.params
    st.remove_node(inner_entry)
    st.remove_node(inner_exit)


def _strip(conn: str | None) -> str:
    if not conn:
        return ""
    for p in ("IN_", "OUT_"):
        if conn.startswith(p):
            return conn[len(p):]
    return conn


# ---------------------------------------------------------------------------
# Greedy subgraph fusion


def _space_sig(entry: MapEntry) -> tuple:
    return tuple(sorted(f"{b}:{e}:{s}" for _, (b, e, s) in entry.params))


def _align_params(m1: MapEntry, m2: MapEntry) -> dict[str, str] | None:
    """Match each dimension of m2 to an unused equal-range dimension of m1."""
    used = [False] * len(m1.params)
    mapping: dict[str, str] = {}
    for p2, rng2 in m2.params:
        key2 = tuple(str(x) for x in rng2)
        for i, (p1, rng1) in enumerate(m1.params):
            if used[i]:
                continue
            if tuple(str(x) for x in rng1) == key2:
                used[i] = True
                mapping[p2] = p1
                break
        else:
            return None
    return mapping


def subgraph_fusion(g: Sdfg) -> PassReport:
    """Fuse maps sharing the same (or permuted) iteration space when the data
    each consumer reads per iteration is covered by what the producer wrote;
    single-element intermediates private to the pair shrink to scalars.

    The result is that of fusing one pair at a time, each time the first
    legal pair of top-level parallel maps (more dimensions first, then in
    topological order), every fusion built on a copy of the state and kept
    only when the copy is race-free.  Each state's fusions are folded on one
    copy instead and checked for races once (see :class:`_MapFusion`); only
    when a fusion does not keep the scope brackets or that check fails does
    the state fuse pair by pair.  Container
    descriptors change when the state's result is swapped in, so a rejected
    candidate leaves the graph untouched."""
    report = PassReport()
    places = _access_places(g)
    for i, st in enumerate(g.states):
        if sum(isinstance(n, MapEntry) and n.schedule is Schedule.PARALLEL
               for n in st.nodes.values()) < 2:
            continue
        fusion = _MapFusion(g, i, places, deferred=True)
        if not fusion.run():
            fusion = _MapFusion(g, i, places, deferred=False)
            fusion.run()
        if fusion.count:
            g.states[i] = fusion.work
            for cont in fusion.scalars:
                g.containers[cont].shape = ()
                g.containers[cont].kind = DataKind.SCALAR
            report.count("subgraph_fusion", fusion.count)
    return report


def _access_places(g: Sdfg) -> dict[str, list[tuple[int, int]]]:
    """Each container's access nodes as (state index, node id).  Fusion
    keeps every access node and its id, so the table holds for the whole
    pass."""
    places: dict[str, list[tuple[int, int]]] = {}
    for i, st in enumerate(g.states):
        for n in st.nodes.values():
            if isinstance(n, AccessNode):
                places.setdefault(n.container, []).append((i, n.nid))
    return places


def _by_container(edges) -> dict[str, list]:
    """Memlet-carrying edges grouped by container, in edge order."""
    out: dict[str, list] = {}
    for e in edges:
        if e.memlet is not None:
            out.setdefault(e.memlet.container, []).append(e)
    return out


class _Racy(Exception):
    """A fused state whose race check was deferred is not race-free."""


class _MapFusion:
    """The fusions of the top-level parallel maps of ``g.states[i]``, one
    pair at a time as :func:`subgraph_fusion` describes, on a working copy
    of the state (``work``).

    Without ``deferred``, every fusion is built on a copy of the working
    state and kept only when the copy passes ``race_free``.  With it, the
    fusions fold into one working copy in place, taken at the first fusion,
    and their race checks are deferred: one ``race_free`` of the state
    before the fusions and one of the state after stand for the checks of
    every state between.  That holds for fusions that keep the scope
    brackets (:meth:`_clean`): a race such a fusion introduces stays in the
    later states, except a conflict across iterations that involves an
    intermediate's memlets, which the fusion moves inside the scope; such a
    conflict is in the scopes being fused, so it is looked for there before
    the fusion.  A fold that meets a fusion of another shape, or such a
    conflict, or whose deferred checks fail, raises :class:`_Racy`.

    Each search for a pair orders the working state once and tries every
    pair.
    """

    def __init__(self, g: Sdfg, i: int, places: dict[str, list[tuple[int, int]]],
                 deferred: bool):
        self.g, self.i, self.places, self.deferred = g, i, places, deferred
        self.asm = g.assumptions()
        self.base = self.work = g.states[i]
        self.base_facts = self.base.facts()
        self.top = {n.nid for n in self.base_facts.scopes[None]
                    if isinstance(n, MapEntry) and n.schedule is Schedule.PARALLEL}
        self.sig = {nid: _space_sig(self.base.nodes[nid]) for nid in self.top}
        self.count = 0
        self.scalars: set[str] = set()

    def run(self) -> bool:
        """Fuse to a fixed point; False when the fold raises :class:`_Racy`."""
        try:
            while self._step():
                pass
            if self.deferred:
                self._check()
        except _Racy:
            return False
        return True

    def _check(self) -> None:
        """The deferred race checks: the state before the fusions when more
        than one fusion followed it (the check of the state after one fusion
        is that fusion's own), then the state after."""
        if self.count > 1 and not race_free(self.base, self.asm, self.base_facts):
            raise _Racy
        if self.count and not race_free(self.work, self.asm):
            raise _Racy

    def _step(self) -> bool:
        """Apply the first legal fusion; False when there is none."""
        maps = [n for n in self.work.topological() if n.nid in self.top]
        pos = {n.nid: k for k, n in enumerate(maps)}
        maps.sort(key=lambda m: -len(m.params))
        for m1 in maps:
            for m2 in maps:
                if m1 is m2 or pos[m1.nid] > pos[m2.nid] or self.sig[m1.nid] != self.sig[m2.nid]:
                    continue
                legal = self._legal(m1, m2)
                if legal is not None and self._fuse(m1, m2, *legal):
                    return True
        return False

    def _legal(self, m1: MapEntry, m2: MapEntry
               ) -> tuple[dict[str, str], dict[int, AccessNode]] | None:
        """The parameter mapping and intermediates of fusing m2 into m1, when
        the checks on the maps and their connecting nodes pass."""
        mapping = _align_params(m1, m2)
        if mapping is None:
            return None
        st = self.work
        x1 = st.exit_of(m1)
        consumers = {e.dst.nid: e.dst for e in st.out_edges(x1)}
        # the intermediates: access nodes fed by m1's exit and feeding m2's entry
        mids = {
            nid: n for nid, n in consumers.items()
            if isinstance(n, AccessNode) and any(e.dst is m2 for e in st.out_edges(n))
        }
        if not mids:
            # only contiguous subgraphs fuse: the maps must at least share an input
            in1 = {e.memlet.container for e in st.in_edges(m1) if e.memlet}
            in2 = {e.memlet.container for e in st.in_edges(m2) if e.memlet}
            if not (in1 & in2):
                return None
        # no other consumer of m1 may reach m2 (fusing would close a cycle);
        # the consumers of a top-level exit are top-level
        if any(nid not in mids and st.reaches(n, m2) for nid, n in consumers.items()):
            return None
        w1 = _by_container(st.in_edges(x1))
        r2 = _by_container(st.out_edges(m2))
        rename = {k: Sym(v) for k, v in mapping.items()}
        asm = self.asm
        for p, _ in m1.params:
            asm = asm.with_bound(p, 0)
        # every intermediate the consumer reads must be covered by the producer
        for n in mids.values():
            writes = [e.memlet.subset for e in w1.get(n.container, [])]
            for e in r2.get(n.container, []):
                r = e.memlet.subset.substitute(rename)
                if not any(symbolic.covers(w, r, asm) is Ternary.TRUE for w in writes):
                    return None
        return mapping, mids

    def _clean(self, m1: MapEntry, m2: MapEntry, mids: dict[int, AccessNode]) -> bool:
        """Whether fusing m2 into m1 keeps the scope brackets and drops no
        memlet by its shape: each intermediate is written only by m1's exit,
        on connectors of their own that some write into the exit matches
        (so that each keeps a producer inside the scope), and read only by
        m2; the connectors into m2's entry are distinct, carry memlets and
        match the ones out of it; and those into m2's exit match the ones
        out of it."""
        st = self.work
        x1, x2 = st.exit_of(m1), st.exit_of(m2)
        written = {pe.dst_conn for pe in st.in_edges(x1) if pe.memlet is not None}
        producers = [e for n in mids.values() for e in st.in_edges(n)]
        if (any(e.src is not x1 or "IN_" + _strip(e.src_conn) not in written for e in producers)
                or len({e.src_conn for e in producers}) != len(producers)
                or any(e.dst is not m2 for n in mids.values() for e in st.out_edges(n))):
            return False
        if any(e.memlet is None for e in st.in_edges(m2)):
            return False
        entry_in = [_strip(e.dst_conn) for e in st.in_edges(m2)]
        entry_out = {_strip(e.src_conn) for e in st.out_edges(m2) if e.memlet is not None}
        exit_in = [_strip(e.dst_conn) for e in st.in_edges(x2)]
        exit_out = {_strip(e.src_conn) for e in st.out_edges(x2)}
        return (len(set(entry_in)) == len(entry_in) and set(entry_in) == entry_out
                and len(set(exit_in)) == len(exit_in) and set(exit_in) == exit_out)

    def _fuse(self, m1: MapEntry, m2: MapEntry, mapping: dict[str, str],
              mids: dict[int, AccessNode]) -> bool:
        """Fuse m2 into m1: False when the fused state closes a cycle or
        races."""
        work = self.work
        children = [c.nid for c in work.scope_children(m2)]
        if self.deferred:
            if not self._clean(m1, m2, mids) or mids and any(
                    iteration_conflicts(m.param_names, work.out_edges(m),
                                        work.in_edges(work.exit_of(m))) for m in (m1, m2)):
                raise _Racy
            if work is self.base:
                self.work = self.base.clone()
            st = self.work
        else:
            st = work.clone()
        nodes = st.nodes
        _apply_fusion(st, nodes[m1.nid], nodes[m2.nid], [nodes[c] for c in children],
                      mapping, [nodes[nid] for nid in mids])
        if self.deferred:
            self.top.discard(m2.nid)
        else:
            try:
                facts = st.facts()
                facts.parents
            except ValueError:
                return False
            if not race_free(st, self.asm, facts):
                return False
            self.work = st
            self.top = {n.nid for n in facts.scopes[None]
                        if isinstance(n, MapEntry) and n.schedule is Schedule.PARALLEL}
        self.count += 1
        inside = {c.nid for c in st.scope_children(nodes[m1.nid])}
        for nid in mids:
            self._scalarize(nodes[nid], inside)
        return True

    def _scalarize(self, acc: AccessNode, inside: set[int]) -> None:
        """Shrink ``acc``'s container to a scalar when it is a transient
        array whose every access node is in the fused scope (node ids
        ``inside``) and whose every memlet addresses one element with the
        same index expression."""
        cont = acc.container
        desc = self.g.containers.get(cont)
        if desc is None or not desc.transient or desc.kind is not DataKind.ARRAY:
            return
        if any(i != self.i or nid not in inside for i, nid in self.places[cont]):
            return
        edges = [e for e in self.work.edges if e.memlet is not None and e.memlet.container == cont]
        if len({str(e.memlet.subset) for e in edges}) != 1:
            return
        if any(str(b) != str(e) for b, e, _ in edges[0].memlet.subset.dims):
            return
        for e in edges:
            e.memlet.subset = SubsetRange(())
            e.memlet.volume = Const(1)
        self.scalars.add(cont)


def _apply_fusion(st: State, m1: MapEntry, m2: MapEntry, m2_children: list[Node],
                  mapping: dict[str, str], mids: list[AccessNode]) -> None:
    """Fuse m2's scope, whose nodes are ``m2_children``, into m1's with m2's
    parameters renamed by ``mapping``; the intermediates ``mids`` move into
    the fused scope.  A connector rerouted to m1's entry or exit is named
    ``F<m2's id>_<its name>``, with a numeric suffix when an edge into that
    node names it already."""
    x1, x2 = st.exit_of(m1), st.exit_of(m2)
    _rename_in_scope(st, m2, m2_children, {k: Sym(v) for k, v in mapping.items()})

    # move intermediate access nodes into the fused scope
    for n in mids:
        for e in st.in_edges(n):
            if e.src is x1:
                # producer edge: rewire from the producing node directly
                conn = "IN_" + _strip(e.src_conn)
                for pe in [pe for pe in st.in_edges(x1)
                           if pe.dst_conn == conn and pe.memlet is not None]:
                    st.add_edge(pe.src, n, pe.memlet, pe.src_conn, None)
                    st.remove_edge(pe)
                st.remove_edge(e)
        for e in st.out_edges(n):
            if e.dst is m2:
                # consumer edge: connect the access node into m2's scope reads
                conn = _strip(e.dst_conn)
                for ce in [ce for ce in st.out_edges(m2) if _strip(ce.src_conn) == conn]:
                    st.add_edge(n, ce.dst, ce.memlet, None, ce.dst_conn)
                    st.remove_edge(ce)
                st.remove_edge(e)

    def move(hub, to):
        """Route each input of ``hub`` with its outputs through ``to``, on a
        connector no edge into ``to`` names yet."""
        taken = {_strip(e.dst_conn) for e in st.in_edges(to)}
        for e in st.in_edges(hub):
            conn = _strip(e.dst_conn)
            for ce in [ce for ce in st.out_edges(hub) if _strip(ce.src_conn) == conn]:
                fresh, k = f"F{m2.nid}_{conn}", 0
                while fresh in taken:
                    k += 1
                    fresh = f"F{m2.nid}_{conn}_{k}"
                taken.add(fresh)
                st.add_edge(e.src, to, e.memlet, e.src_conn, f"IN_{fresh}")
                st.add_edge(to, ce.dst, ce.memlet, f"OUT_{fresh}", ce.dst_conn)
                st.remove_edge(ce)
            st.remove_edge(e)

    # the rest of m2's reads move to m1's entry, its writes to m1's exit
    for e in [e for e in st.in_edges(m2) if e.memlet is None]:
        st.remove_edge(e)
    move(m2, m1)
    for e in st.out_edges(m2):  # dependency-only edges
        if e.memlet is None:
            st.add_edge(m1, e.dst)
        st.remove_edge(e)
    move(x2, x1)
    st.remove_node(m2)  # with the edges left at them
    st.remove_node(x2)


# ---------------------------------------------------------------------------
# Tile write-conflict maps


def tile_wcr(g: Sdfg, tile: int = 16) -> PassReport:
    """Split parallel maps with write-conflict outputs into an outer tile map
    and an inner sequential accumulation, committing once per tile."""
    if tile < 1:
        raise ValueError(f"tile size must be positive, got {tile}")
    report = PassReport()
    while any(_tile_one(g, st, node, tile) for st, node in _tiling_candidates(g)):
        report.count("tile_wcr")
    return report


def _tiling_candidates(g: Sdfg):
    return ((st, node) for st, node in nodes_of(g, MapEntry)
            if node.schedule is Schedule.PARALLEL and not node.tiled)


def _tiling(st: State, entry: MapEntry) -> tuple[MapExit, int, Wcr] | None:
    """The exit, the dimension to tile and the conflict resolution of a map
    that :func:`tile_wcr` tiles, else None."""
    exit_node = st.exit_of(entry)
    wcr_edges = [e for e in st.in_edges(exit_node) if e.memlet is not None and e.memlet.wcr]
    if not wcr_edges:
        return None
    if len(wcr_edges) != 1 or len([e for e in st.in_edges(exit_node) if e.memlet]) != 1:
        return None
    children = st.scope_children(entry)
    tasklets = [n for n in children if isinstance(n, Tasklet)]
    if len(tasklets) != 1 or any(isinstance(n, (MapEntry, NestedSdfg, LibraryNode)) for n in children):
        return None
    we = wcr_edges[0]
    target_params = set(we.memlet.subset.free_symbols()) & set(entry.param_names)
    red_dims = [i for i, p in enumerate(entry.param_names) if p not in target_params]
    if not red_dims:
        return None
    wcr = we.memlet.wcr
    if wcr not in (Wcr.ADD, Wcr.MUL):
        return None
    return exit_node, red_dims[0], wcr  # tile the first reduction dimension


def _tile_one(g: Sdfg, st: State, entry: MapEntry, tile: int) -> bool:
    found = _tiling(st, entry)
    if found is None:
        return False
    exit_node, dim, wcr = found
    _apply_tiling(g, st, entry, exit_node, dim, tile, wcr)
    return True


def _apply_tiling(g: Sdfg, st: State, entry: MapEntry, exit_node: MapExit,
                  dim: int, tile: int, wcr: Wcr) -> None:
    p, (b, e, s) = entry.params[dim]
    length = symbolic.simplify((e - b) // s + 1)
    n_tiles = symbolic.simplify((length + Const(tile - 1)) // Const(tile))
    tp = f"{p}_tile"
    outer_params = (
        entry.params[:dim]
        + ((tp, (Const(0), symbolic.simplify(n_tiles - 1), Const(1))),)
        + entry.params[dim + 1:]
    )
    lo = symbolic.simplify(b + Sym(tp) * Const(tile) * s)
    hi = symbolic.simplify(Min(b + (Sym(tp) * Const(tile) + Const(tile - 1)) * s, e))
    inner_params = ((p, (lo, hi, s)),)

    tasklet = [n for n in st.scope_children(entry) if isinstance(n, Tasklet)][0]
    we = [x for x in st.in_edges(exit_node) if x.memlet is not None][0]

    acc_name = g.fresh_name(f"{we.memlet.container}_acc")
    g.add_scalar(acc_name, g.containers[we.memlet.container].dtype, transient=True,
                 storage=Storage.STACK)

    entry.params = outer_params
    entry.tiled = True

    init = st.add(Tasklet(f"init_{acc_name}", (), ("out",),
                          (("out", TNum(float(wcr.identity))),)))
    st.add_edge(entry, init)
    acc1 = st.add(AccessNode(acc_name))
    st.add_edge(init, acc1, Memlet(acc_name, SubsetRange(())), src_conn="out")

    ientry = st.add(MapEntry(inner_params, Schedule.SEQUENTIAL))
    iexit = st.add(MapExit(ientry))
    st.add_edge(acc1, ientry, Memlet(acc_name, SubsetRange(())), dst_conn="IN_acc")

    # original inputs: reroute tasklet inputs through the inner entry
    for ie in list(st.in_edges(tasklet)):
        if ie.src is entry and ie.memlet is not None:
            st.add_edge(ientry, tasklet, ie.memlet,
                        "OUT_" + _strip(ie.src_conn), ie.dst_conn)
            conn = _strip(ie.src_conn)
            st.add_edge(entry, ientry, _outer_of(st, entry, conn), f"OUT_{conn}",
                        f"IN_{conn}")
            st.remove_edge(ie)
        elif ie.src is entry:
            st.remove_edge(ie)
            st.add_edge(ientry, tasklet)

    # turn the conflicting write into a sequential accumulation on acc
    out_conn, code = tasklet.code[0]
    acc_in = "acc_in"
    op = "+" if wcr is Wcr.ADD else "*"
    tasklet.code = ((out_conn, TBin(op, TRef(acc_in), code)),)
    tasklet.inputs = tuple(tasklet.inputs) + (acc_in,)
    st.add_edge(ientry, tasklet, Memlet(acc_name, SubsetRange(())),
                "OUT_acc", acc_in)

    acc2 = st.add(AccessNode(acc_name))
    st.add_edge(tasklet, iexit, Memlet(acc_name, SubsetRange(())),
                src_conn=out_conn, dst_conn="IN_acc2")
    st.add_edge(iexit, acc2, Memlet(acc_name, SubsetRange(())), src_conn="OUT_acc2")

    commit = st.add(Tasklet("commit", ("v",), ("out",), (("out", TRef("v")),)))
    st.add_edge(acc2, commit, Memlet(acc_name, SubsetRange(())), dst_conn="v")
    tiled_sub = we.memlet.subset.substitute({})  # unchanged target cells
    st.add_edge(commit, exit_node, Memlet(we.memlet.container, tiled_sub, wcr),
                src_conn="out", dst_conn=we.dst_conn)
    st.remove_edge(we)


def _outer_of(st: State, entry: MapEntry, conn: str) -> Memlet:
    for e in st.in_edges(entry):
        if _strip(e.dst_conn) == conn and e.memlet is not None:
            return Memlet(e.memlet.container, e.memlet.subset, e.memlet.wcr)
    raise KeyError(conn)


# ---------------------------------------------------------------------------
# Transient allocation mitigation


def transient_mitigation(g: Sdfg, stack_limit_bytes: int = 4096) -> PassReport:
    """Constant small transients go to the stack; transients whose size
    depends only on program symbols become persistent allocations."""
    report = PassReport()
    loopish = g.assigned_symbols()
    for st in g.states:
        for n in st.nodes.values():
            if isinstance(n, MapEntry):
                loopish |= set(n.param_names)
    for desc in g.containers.values():
        if not desc.transient or desc.kind is DataKind.STREAM:
            continue
        free = set()
        for d in desc.shape:
            free |= d.free_symbols()
        if not free:
            nbytes = desc.byte_size({})
            if nbytes <= stack_limit_bytes and desc.storage is Storage.HEAP:
                desc.storage = Storage.STACK
                report.count("stack_placement")
            continue
        if free & loopish:
            continue  # size depends on an iteration variable
        if free <= set(g.symbols) and desc.lifetime is not Lifetime.PERSISTENT:
            desc.lifetime = Lifetime.PERSISTENT
            report.count("persistent_placement")
    return report


# ---------------------------------------------------------------------------
# Library expansion


class ExpansionError(ValueError):
    """No expansion applies to a library node (or the pinned one does not)."""


@dataclass
class Expansion:
    name: str
    applicable: Callable[[Sdfg, State, LibraryNode], bool]
    apply: Callable[[Sdfg, State, LibraryNode], None]


class ExpansionRegistry:
    """Priority list of expansions per library-node kind; the last entry for
    each kind is the native pure-graph expansion, which always succeeds."""

    def __init__(self):
        self.by_kind: dict[LibKind, list[Expansion]] = {}

    def register(self, kind: LibKind, expansion: Expansion) -> None:
        self.by_kind.setdefault(kind, []).append(expansion)

    def pick(self, g: Sdfg, st: State, node: LibraryNode,
             pinned: dict[str, str] | None = None) -> Expansion | None:
        cands = self.by_kind.get(node.kind, [])
        if pinned and node.kind.value in pinned:
            cands = [x for x in cands if x.name == pinned[node.kind.value]]
        for x in cands:
            if x.applicable(g, st, node):
                return x
        return None


def _matmul_dims(g: Sdfg, st: State, node: LibraryNode):
    ins = {e.dst_conn: e for e in st.in_edges(node) if e.memlet is not None}
    oute = [e for e in st.out_edges(node) if e.memlet is not None][0]

    def kept_lengths(e, kept_attr):
        kept = node.attributes.get(kept_attr)
        lens = e.memlet.subset.lengths()
        if kept is None:
            return list(lens)
        return [ln for ln, k in zip(lens, kept) if k]

    a_lens = kept_lengths(ins["a"], "a_kept")
    b_lens = kept_lengths(ins["b"], "b_kept")
    return ins["a"], ins["b"], oute, a_lens, b_lens


def _is_mm(g, st, node):
    if node.kind is not LibKind.MATMUL:
        return False
    _, _, _, a_lens, b_lens = _matmul_dims(g, st, node)
    return len(a_lens) == 2 and len(b_lens) == 2


def _expand_matmul_native(g: Sdfg, st: State, node: LibraryNode,
                          blocked: bool = False, tile: int = 4) -> None:
    enclosing = st.scope_parents().get(node.nid)
    before_ids = set(st.nodes)
    ae, be, oe, a_lens, b_lens = _matmul_dims(g, st, node)
    a_kept = node.attributes.get("a_kept")
    b_kept = node.attributes.get("b_kept")
    o_kept = node.attributes.get("out_kept")
    if len(a_lens) == 2 and len(b_lens) == 2:
        m, k = a_lens
        n = b_lens[1]
        if symbolic.eq(k, b_lens[0], g.assumptions()) is Ternary.FALSE:
            raise ValueError(
                f"inner dimensions of the product differ: {k} vs {b_lens[0]}")
        out_params = ["i", "j"]
        a_params, b_params = ["i", "k"], ["k", "j"]
    elif len(a_lens) == 2 and len(b_lens) == 1:
        m, k = a_lens
        out_params = ["i"]
        a_params, b_params = ["i", "k"], ["k"]
        n = None
    else:  # vector @ matrix
        k = a_lens[0]
        n = b_lens[1]
        out_params = ["j"]
        a_params, b_params = ["k"], ["k", "j"]
        m = None

    names = {}
    base = f"mm{node.nid}"
    for p in set(out_params + a_params + b_params):
        names[p] = f"{base}_{p}"
    extents = {"i": m, "j": n, "k": k}

    def rng(p):
        return (Const(0), symbolic.simplify(extents[p] - 1), Const(1))

    out_cont = oe.memlet.container
    # init phase: zero the target cells
    ie = st.add(MapEntry(tuple((names[p], rng(p)) for p in out_params), Schedule.PARALLEL))
    ix = st.add(MapExit(ie))
    t0 = st.add(Tasklet(f"{base}_zero", (), ("out",), (("out", TNum(0.0)),)))
    st.add_edge(ie, t0)
    elem_out = element_subset(oe.memlet.subset, o_kept, [names[p] for p in out_params])
    st.add_edge(t0, ix, Memlet(out_cont, elem_out), src_conn="out", dst_conn="IN_o")
    mid = st.add(AccessNode(out_cont))
    st.add_edge(ix, mid, Memlet(out_cont, oe.memlet.subset), src_conn="OUT_o")

    # accumulation phase
    if blocked:
        loop_params = []
        inner_params = []
        for p in out_params:
            tp = names[p] + "_b"
            ext = extents[p]
            ntiles = symbolic.simplify((ext + Const(tile - 1)) // Const(tile))
            loop_params.append((tp, (Const(0), symbolic.simplify(ntiles - 1), Const(1))))
            lo = symbolic.simplify(Sym(tp) * Const(tile))
            hi = symbolic.simplify(Min(Sym(tp) * Const(tile) + Const(tile - 1), extents[p] - 1))
            inner_params.append((names[p], (lo, hi, Const(1))))
        me = st.add(MapEntry(tuple(loop_params), Schedule.PARALLEL, tiled=True))
        mx = st.add(MapExit(me))
        me2 = st.add(MapEntry(tuple(inner_params) + ((names["k"], rng("k")),),
                              Schedule.SEQUENTIAL, tiled=True))
        mx2 = st.add(MapExit(me2))
    else:
        me = st.add(MapEntry(tuple((names[p], rng(p)) for p in out_params + ["k"]),
                             Schedule.PARALLEL, tiled=True))
        mx = st.add(MapExit(me))
        me2 = mx2 = None

    t = st.add(Tasklet(f"{base}_mac", ("a", "b"), ("out",),
                       (("out", TBin("*", TRef("a"), TRef("b"))),)))
    entry_in = me2 if me2 is not None else me
    exit_out = mx2 if mx2 is not None else mx

    elem_a = element_subset(ae.memlet.subset, a_kept, [names[p] for p in a_params])
    elem_b = element_subset(be.memlet.subset, b_kept, [names[p] for p in b_params])
    st.add_edge(ae.src, me, Memlet(ae.memlet.container, ae.memlet.subset),
                ae.src_conn, "IN_a")
    st.add_edge(be.src, me, Memlet(be.memlet.container, be.memlet.subset),
                be.src_conn, "IN_b")
    st.add_edge(mid, me, Memlet(out_cont, oe.memlet.subset), None, "IN_dep")
    if me2 is not None:
        st.add_edge(me, me2, Memlet(ae.memlet.container, ae.memlet.subset),
                    "OUT_a", "IN_a")
        st.add_edge(me, me2, Memlet(be.memlet.container, be.memlet.subset),
                    "OUT_b", "IN_b")
        st.add_edge(me2, t, Memlet(ae.memlet.container, elem_a), "OUT_a", "a")
        st.add_edge(me2, t, Memlet(be.memlet.container, elem_b), "OUT_b", "b")
    else:
        st.add_edge(me, t, Memlet(ae.memlet.container, elem_a), "OUT_a", "a")
        st.add_edge(me, t, Memlet(be.memlet.container, elem_b), "OUT_b", "b")

    elem_o = element_subset(oe.memlet.subset, o_kept, [names[p] for p in out_params])
    st.add_edge(t, exit_out, Memlet(out_cont, elem_o, Wcr.ADD),
                src_conn="out", dst_conn="IN_c")
    if mx2 is not None:
        st.add_edge(mx2, mx, Memlet(out_cont, oe.memlet.subset, Wcr.ADD),
                    "OUT_c", "IN_c")
    st.add_edge(exit_out if mx2 is None else mx, oe.dst,
                Memlet(out_cont, oe.memlet.subset, Wcr.ADD), "OUT_c", oe.dst_conn)

    st.remove_node(node)
    _anchor_new_sources(st, enclosing, before_ids)


def _expand_reduce_native(g: Sdfg, st: State, node: LibraryNode,
                          tiled: bool = False, tile: int = 16) -> None:
    enclosing = st.scope_parents().get(node.nid)
    before_ids = set(st.nodes)
    ins = {e.dst_conn: e for e in st.in_edges(node) if e.memlet is not None}
    oe = [e for e in st.out_edges(node) if e.memlet is not None][0]
    ae = ins["a"]
    a_kept = node.attributes.get("a_kept")
    axes = node.attributes.get("axes")
    wcr = Wcr(node.attributes.get("op", "add"))
    lens = ae.memlet.subset.lengths()
    kept = a_kept if a_kept is not None else [True] * ae.memlet.subset.rank
    in_lens = [ln for ln, k in zip(lens, kept) if k]
    nin = len(in_lens)
    red_axes = list(range(nin)) if axes is None else list(axes)
    out_axes = [i for i in range(nin) if i not in red_axes]

    base = f"red{node.nid}"
    pnames = [f"{base}_p{i}" for i in range(nin)]
    out_cont = oe.memlet.container

    init = st.add(Tasklet(f"{base}_init", (), ("out",),
                          (("out", TNum(float(wcr.identity))),)))
    mid = st.add(AccessNode(out_cont))
    if out_axes:
        ie = st.add(MapEntry(
            tuple((pnames[i], (Const(0), symbolic.simplify(in_lens[i] - 1), Const(1)))
                  for i in out_axes),
            Schedule.PARALLEL))
        ix = st.add(MapExit(ie))
        st.add_edge(ie, init)
        elem_o = element_subset(oe.memlet.subset, node.attributes.get("out_kept"),
                            [pnames[i] for i in out_axes])
        st.add_edge(init, ix, Memlet(out_cont, elem_o), src_conn="out", dst_conn="IN_o")
        st.add_edge(ix, mid, Memlet(out_cont, oe.memlet.subset), src_conn="OUT_o")
    else:
        st.add_edge(init, mid, Memlet(out_cont, oe.memlet.subset), src_conn="out")

    me = st.add(MapEntry(
        tuple((pnames[i], (Const(0), symbolic.simplify(in_lens[i] - 1), Const(1)))
              for i in range(nin)),
        Schedule.PARALLEL))
    mx = st.add(MapExit(me))
    t = st.add(Tasklet(f"{base}_elem", ("a",), ("out",), (("out", TRef("a")),)))
    st.add_edge(ae.src, me, Memlet(ae.memlet.container, ae.memlet.subset),
                ae.src_conn, "IN_a")
    st.add_edge(mid, me, Memlet(out_cont, oe.memlet.subset), None, "IN_dep")
    elem_a = element_subset(ae.memlet.subset, a_kept, pnames)
    st.add_edge(me, t, Memlet(ae.memlet.container, elem_a), "OUT_a", "a")
    elem_o = element_subset(oe.memlet.subset, node.attributes.get("out_kept"),
                        [pnames[i] for i in out_axes])
    st.add_edge(t, mx, Memlet(out_cont, elem_o, wcr), src_conn="out", dst_conn="IN_c")
    st.add_edge(mx, oe.dst, Memlet(out_cont, oe.memlet.subset, wcr), "OUT_c", oe.dst_conn)

    st.remove_node(node)
    _anchor_new_sources(st, enclosing, before_ids)
    if tiled:
        _tile_one(g, st, me, tile)
    me.tiled = True


def _anchor_new_sources(st: State, enclosing, before_ids: set[int]) -> None:
    """Dependency-anchor new source nodes inside the scope that enclosed the
    expanded node, so scope membership stays unambiguous."""
    if enclosing is None:
        return
    for nid in sorted(set(st.nodes) - before_ids):
        n = st.nodes[nid]
        if isinstance(n, (MapExit,)):
            continue
        if not st.in_edges(n):
            st.add_edge(enclosing, n)


def _expand_transpose_native(g: Sdfg, st: State, node: LibraryNode) -> None:
    ins = {e.dst_conn: e for e in st.in_edges(node) if e.memlet is not None}
    oe = [e for e in st.out_edges(node) if e.memlet is not None][0]
    ae = ins["a"]
    lens = ae.memlet.subset.lengths()
    base = f"tr{node.nid}"
    params = [f"{base}_i", f"{base}_j"]
    me = st.add(MapEntry(
        ((params[0], (Const(0), symbolic.simplify(lens[0] - 1), Const(1))),
         (params[1], (Const(0), symbolic.simplify(lens[1] - 1), Const(1)))),
        Schedule.PARALLEL))
    mx = st.add(MapExit(me))
    t = st.add(Tasklet(f"{base}_copy", ("a",), ("out",), (("out", TRef("a")),)))
    st.add_edge(ae.src, me, Memlet(ae.memlet.container, ae.memlet.subset),
                ae.src_conn, "IN_a")
    elem_a = element_subset(ae.memlet.subset, None, params)
    st.add_edge(me, t, Memlet(ae.memlet.container, elem_a), "OUT_a", "a")
    elem_o = element_subset(oe.memlet.subset, None, [params[1], params[0]])
    st.add_edge(t, mx, Memlet(oe.memlet.container, elem_o), src_conn="out", dst_conn="IN_c")
    st.add_edge(mx, oe.dst, Memlet(oe.memlet.container, oe.memlet.subset),
                "OUT_c", oe.dst_conn)
    st.remove_node(node)


def cpu_registry() -> ExpansionRegistry:
    reg = ExpansionRegistry()
    reg.register(LibKind.MATMUL, Expansion(
        "blocked_native", _is_mm,
        lambda g, st, n: _expand_matmul_native(g, st, n, blocked=True)))
    reg.register(LibKind.MATMUL, Expansion(
        "native", lambda g, st, n: True,
        lambda g, st, n: _expand_matmul_native(g, st, n, blocked=False)))
    reg.register(LibKind.REDUCE, Expansion(
        "tiled_native",
        lambda g, st, n: (
            n.attributes.get("axes") is None
            and Wcr(n.attributes.get("op", "add")) is Wcr.ADD
            and _reduce_rank(g, st, n) == 1
        ),
        lambda g, st, n: _expand_reduce_native(g, st, n, tiled=True)))
    reg.register(LibKind.REDUCE, Expansion(
        "native", lambda g, st, n: True,
        lambda g, st, n: _expand_reduce_native(g, st, n, tiled=False)))
    reg.register(LibKind.TRANSPOSE, Expansion(
        "native", lambda g, st, n: True, _expand_transpose_native))
    return reg


def _reduce_rank(g, st, node) -> int:
    ae = [e for e in st.in_edges(node) if e.memlet is not None][0]
    kept = node.attributes.get("a_kept")
    if kept is None:
        return ae.memlet.subset.rank
    return sum(1 for k in kept if k)


CPU_EXPANDABLE = {LibKind.MATMUL, LibKind.REDUCE, LibKind.TRANSPOSE}


def expand_library(g: Sdfg, pinned: dict[str, str] | None = None) -> PassReport:
    """Replace each library node with the first applicable expansion from the
    CPU priority list."""
    # expansions are named after their node's id: number the nodes as the
    # JSON form does, so a graph expands to the same names after a round trip
    for st in g.states:
        st.renumber()
    report = PassReport()
    reg = cpu_registry()
    while (match := next(((st, node) for st, node in nodes_of(g, LibraryNode)
                          if node.kind in CPU_EXPANDABLE), None)) is not None:
        st, node = match
        exp = reg.pick(g, st, node, pinned)
        if exp is None:
            kind = node.kind.value
            why = (f": the pinned '{pinned[kind]}' does not apply to node "
                   f"'{node.name}' in state '{st.label}'" if pinned and kind in pinned
                   else "")
            raise ExpansionError(f"no applicable expansion for {kind}{why}")
        exp.apply(g, st, node)
        report.count(f"expand_{node.kind.value}_{exp.name}")
    return report


# ---------------------------------------------------------------------------
# The pipeline and CPU specialization


def pipeline_stages(g: Sdfg, stack_limit_bytes: int = 4096) -> dict[str, Callable[[], PassReport]]:
    """The target-independent stages of :func:`auto_optimize` on ``g`` by
    name, in pipeline order.  Each stage looks its pass up by name when it
    runs, so a pass rebound on this module (a tracing wrapper, say) sees the
    call."""
    return {
        "coarsen": lambda: coarsen(g),
        "cleanup_maps": lambda: cleanup_maps(g),
        "subgraph_fusion": lambda: subgraph_fusion(g),
        "transient_mitigation": lambda: transient_mitigation(g, stack_limit_bytes),
    }


def specialization_stages(g: Sdfg, tile: int = 16, pinned: dict[str, str] | None = None
                          ) -> dict[str, Callable[[], PassReport]]:
    """The CPU code-generation stages of :func:`specialize` on ``g`` by
    name, in order: tiling cuts the conflicting commits of a parallel-for,
    and expansion replaces library calls with native maps."""
    return {
        "tile_wcr": lambda: tile_wcr(g, tile),
        "expand_library": lambda: expand_library(g, pinned),
    }


def auto_optimize(g: Sdfg, stack_limit_bytes: int = 4096) -> PassReport:
    """Run every stage of :func:`pipeline_stages`, in order, and check that
    the result still validates.  The distribution pipeline optimizes the
    programs of ``Device.DIST``."""
    report = PassReport()
    _snapshot(g, report, before=True)
    for stage in pipeline_stages(g, stack_limit_bytes).values():
        report.merge(stage())
    # number the nodes as the JSON form does, so that the optimized graph and
    # its round trip have one content key (one program in the interpreter)
    _renumber(g)
    errors = [d for d in g.validate() if d.severity == "error"]
    if errors:
        raise ValueError("optimized graph no longer validates: "
                         + "; ".join(d.message for d in errors))
    _snapshot(g, report, before=False)
    return report


def _renumber(g: Sdfg) -> None:
    """Renumber the nodes of every state of ``g`` and of its nested graphs."""
    for st in g.states:
        st.renumber()
        for node in st.nodes.values():
            if isinstance(node, NestedSdfg):
                _renumber(node.sdfg)


def needs_specialization(g: Sdfg) -> bool:
    """Whether :func:`specialize` would change ``g``: it has a library node
    to expand or a write-conflict map to tile."""
    return (any(node.kind in CPU_EXPANDABLE for _, node in nodes_of(g, LibraryNode))
            or any(_tiling(st, node) for st, node in _tiling_candidates(g)))


def specialize(g: Sdfg, tile: int = 16) -> PassReport:
    """Lower ``g`` in place for C on the CPU: run every stage of
    :func:`specialization_stages`, in order."""
    report = PassReport()
    for stage in specialization_stages(g, tile).values():
        report.merge(stage())
    return report
