"""Dataflow-coarsening transformations and the loop auto-parallelizer.

Each transformation matches a local graph pattern and rewrites in place; a
rewrite only happens when its legality conditions hold, with UNKNOWN symbolic
verdicts treated as unsafe.  Every rewrite searches for its first match in
one order (:func:`nodes_of`: state order, then node id), and every pass
that repeats rewrites applies the first one that fires, counts it and
searches again (:func:`to_fixed_point`).  Coarsening applies state fusion,
redundant copy removal, and nested-graph inlining to a fixed point, which
terminates because every application strictly shrinks the graph (nodes +
states + copy edges), by at least one for each pair of states that a
state-fusion application merges: one application fuses a whole chain of
states, with one race check when the fused state is race-free.  Loop-to-map
is consumed separately (by the map-cleanup pass) and terminates by consuming
one loop per application.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import symbolic, texpr
from .ir import (
    AccessNode, InterstateEdge, MapEntry, MapExit, Memlet, NestedSdfg, Node, Schedule,
    Sdfg, State, Tasklet, Ternary, Wcr, race_free,
)
from .symbolic import Const, SubsetRange, Sym, SymExpr, propagate_subset
from .texpr import TBin, TExpr, TRef


@dataclass
class PassReport:
    applications: dict[str, int] = field(default_factory=dict)
    before_states: int = 0
    after_states: int = 0
    before_nodes: int = 0
    after_nodes: int = 0
    loop_decisions: list[tuple[str, bool]] = field(default_factory=list)

    def count(self, name: str, n: int = 1) -> None:
        self.applications[name] = self.applications.get(name, 0) + n

    @property
    def total(self) -> int:
        return sum(self.applications.values())

    def merge(self, other: "PassReport") -> None:
        for k, v in other.applications.items():
            self.count(k, v)
        self.loop_decisions.extend(other.loop_decisions)

    def to_json(self) -> dict:
        return {
            "applications": dict(self.applications),
            "states": {"before": self.before_states, "after": self.after_states},
            "nodes": {"before": self.before_nodes, "after": self.after_nodes},
            "loop_decisions": [
                {"loop": label, "parallelized": ok} for label, ok in self.loop_decisions
            ],
        }


def graph_measure(g: Sdfg) -> int:
    """Well-founded measure: states + nodes + container-to-container copies,
    counted recursively through nested graphs."""
    total = len(g.states)
    for st in g.states:
        total += len(st.nodes)
        total += sum(
            1
            for e in st.edges
            if isinstance(e.src, AccessNode) and isinstance(e.dst, AccessNode)
        )
        for n in st.nodes.values():
            if isinstance(n, NestedSdfg):
                total += graph_measure(n.sdfg)
    return total


def _snapshot(g: Sdfg, report: PassReport, before: bool) -> None:
    if before:
        report.before_states = len(g.states)
        report.before_nodes = sum(len(s.nodes) for s in g.states)
    else:
        report.after_states = len(g.states)
        report.after_nodes = sum(len(s.nodes) for s in g.states)


def nodes_of(g: Sdfg, kind: type) -> Iterator[tuple[State, Node]]:
    """Every node of type ``kind`` as ``(state, node)``, in the order each
    rewrite searches for its first match: state order, then node id.  Each
    state's nodes are listed when the search reaches it."""
    for st in g.states:
        for node in st.sorted_nodes():
            if isinstance(node, kind):
                yield st, node


def to_fixed_point(rewrites: dict[str, Callable[[], int]]) -> Iterator[tuple[str, int]]:
    """Apply the first of ``rewrites`` (name -> rewrite, in priority order)
    that fires and yield its name with the number of rewrites it made (a
    rewrite that fires with True makes one); search again until none
    fires."""
    while True:
        for name, fire in rewrites.items():
            if made := fire():
                yield name, int(made)
                break
        else:
            return


# ---------------------------------------------------------------------------
# State fusion


def _fusible_links(g: Sdfg) -> dict[str, InterstateEdge]:
    """Each transition state fusion may merge across, keyed by its source:
    unconditional, assignment-free, and the only edge out of its source and
    into its (other) destination state."""
    outs = Counter(t.src for t in g.transitions)
    ins = Counter(t.dst for t in g.transitions)
    return {t.src: t for t in g.transitions
            if t.condition is None and not t.assignments and t.src != t.dst
            and outs[t.src] == 1 and ins[t.dst] == 1}


def _fusible_chains(g: Sdfg) -> list[list[InterstateEdge]]:
    """The maximal runs of fusible links, each in control-flow order, by the
    place of its first state in the graph's state list; then each ring of
    fusible links (states with no other way in or out), from its state that
    comes first in that list."""
    links = _fusible_links(g)
    targets = {t.dst for t in links.values()}
    chains: list[list[InterstateEdge]] = []
    seen: set[str] = set()
    for ring in (False, True):
        for st in g.states:
            first = st.label
            if first not in links or first in seen or (first in targets) != ring:
                continue
            chain = [links[first]]
            while chain[-1].dst in links and chain[-1].dst != first:
                chain.append(links[chain[-1].dst])
            seen.update(t.src for t in chain)
            chains.append(chain)
    return chains


def _merge_states(states: list[State]) -> State | None:
    """Build from copies of ``states`` (each running right after the one
    before) their fused state, the left fold of pairwise merges; None when
    sink/source matching is ambiguous at any step.

    Each state's source access nodes fuse with the occurrence of their
    container that is live at the end of the states before it (the one
    reaching no other occurrence), when those states write the container.
    The fold keeps the reachability of its result up to date instead of
    deriving it again from each intermediate state."""
    merged = State(states[0].label)
    reach: dict[Node, set[Node]] = {}  # node -> the nodes it reaches
    occs: dict[str, list[AccessNode]] = {}
    written: set[str] = set()
    for i, st in enumerate(states):
        b = st.clone()
        b_nodes = b.sorted_nodes()
        b_written = {id(e.dst) for e in b.edges}
        terminals: dict[str, list[AccessNode]] = {}
        fuse_map: dict[Node, AccessNode] = {}  # b node -> merged node
        for n in b_nodes:
            if not isinstance(n, AccessNode) or id(n) in b_written:
                continue
            if n.container not in written:
                continue  # read-only so far: a separate read occurrence is safe
            cont = n.container
            if cont not in terminals:
                terminals[cont] = [u for u in occs[cont]
                                   if not any(v is not u and v in reach[u] for v in occs[cont])]
            cands = terminals[cont]
            if len(cands) > 1:
                return None  # ambiguous merge target
            if cands:
                fuse_map[n] = cands[0]
        last = i == len(states) - 1
        if not last:
            nodes = b.nodes
            b_reach = {nodes[nid]: {nodes[d] for d in r} for nid, r in b.facts().reach.items()}
            grown: dict[Node, set[Node]] = {}
            for n, target in fuse_map.items():
                grown.setdefault(target, set()).update(b_reach[n])
            for u, r in reach.items():
                for target, extra in grown.items():
                    if target is u or target in r:
                        r |= extra
        for n in b_nodes:
            if n in fuse_map:
                continue
            n.nid = -1
            merged.add(n)
            if not last:
                reach[n] = b_reach[n]
            if isinstance(n, AccessNode):
                occs.setdefault(n.container, []).append(n)
                if id(n) in b_written:
                    written.add(n.container)
        for e in b.edges:
            merged.add_edge(fuse_map.get(e.src, e.src), fuse_map.get(e.dst, e.dst),
                            e.memlet, e.src_conn, e.dst_conn)
    return merged


def _fuse(g: Sdfg, chain: list[InterstateEdge]) -> bool:
    """Replace the states of ``chain``, fusible links in control-flow order,
    by their fused state when no data race can arise; one race check."""
    labels = [chain[0].src] + [t.dst for t in chain]
    if labels[-1] == labels[0]:
        return False  # a ring has no first state to fold from
    states = [g.state(label) for label in labels]
    merged = _merge_states(states)
    if merged is None or not race_free(merged, g.assumptions()):
        return False

    # commit: the fused state takes the first state's place and label
    gone = {id(s) for s in states[1:]}
    g.states[:] = [merged if s is states[0] else s for s in g.states if id(s) not in gone]
    links = {id(t) for t in chain}
    g.transitions[:] = [t for t in g.transitions if id(t) not in links]
    renamed = set(labels[1:])
    for tr in g.transitions:
        if tr.src in renamed:
            tr.src = labels[0]
        if tr.dst in renamed:
            tr.dst = labels[0]
    return True


def _fuse_pairwise(g: Sdfg, chain: list[InterstateEdge]) -> int:
    """Fuse ``chain`` one link at a time, each time the first link (by the
    places of its states) whose pair fuses, until none does; the number of
    links fused."""
    chain = list(chain)
    fused = 0
    while True:
        order = {s.label: i for i, s in enumerate(g.states)}
        link = next((t for t in sorted(chain, key=lambda t: (order[t.src], order[t.dst]))
                     if _fuse(g, [t])), None)
        if link is None:
            return fused
        chain.remove(link)
        fused += 1


def _fuse_first_chain(g: Sdfg) -> int:
    """One state-fusion application: fuse the first chain of fusible links
    that fuses at all, the whole chain with one race check when its fused
    state is race-free, else one link at a time; the number of links fused.

    The result equals fusing one pair at a time to a fixed point: a race or
    an ambiguous match among some states stays when states after them join,
    so a chain whose fused state is race-free fuses pair by pair too, and
    the merges give the same state in any order."""
    for chain in _fusible_chains(g):
        if _fuse(g, chain):
            return len(chain)
        fused = _fuse_pairwise(g, chain) if len(chain) > 1 else 0
        if fused:
            return fused
    return 0


def state_fusion(g: Sdfg, s1_label: str, s2_label: str) -> bool:
    """Merge two sequential states when no data race can arise.

    Requires an unconditional, assignment-free transition that is the only
    edge out of the first state and into the second.  Sink access nodes of the
    first state fuse with matching source access nodes of the second; the
    merge is refused when any same-container access pair is left unordered
    with unprovable disjointness.
    """
    if s1_label == s2_label:
        return False
    try:
        g.state(s1_label), g.state(s2_label)
    except KeyError:
        raise ValueError(f"invalid state ids {s1_label!r}, {s2_label!r}")
    link = _fusible_links(g).get(s1_label)
    return link is not None and link.dst == s2_label and _fuse(g, [link])


# ---------------------------------------------------------------------------
# Redundant copy removal


def compose_subsets(outer: SubsetRange, inner: SubsetRange) -> SubsetRange:
    """Index the region selected by `outer` with relative coordinates `inner`."""
    assert outer.rank == inner.rank
    dims = []
    for (ob, oe, os), (ib, ie, istep) in zip(outer.dims, inner.dims):
        b = symbolic.simplify(ob + ib * os)
        e = symbolic.simplify(ob + ie * os)
        s = symbolic.simplify(os * istep)
        dims.append((b, e, s))
    return SubsetRange.make(dims)


def redundant_copy_removal(g: Sdfg) -> bool:
    """Remove a transient that only materializes a copy of another container,
    composing the read subsets onto the source."""
    for st, node in nodes_of(g, AccessNode):
        name = node.container
        desc = g.containers.get(name)
        if desc is None or not desc.transient:
            continue
        ins = st.in_edges(node)
        if len(ins) != 1:
            continue
        ce = ins[0]
        if not isinstance(ce.src, AccessNode) or ce.memlet is None:
            continue
        if ce.memlet.wcr is not None or ce.memlet.container != ce.src.container:
            continue
        src_name = ce.src.container
        # the copy must cover the whole transient
        copy_lens = tuple(map(str, ce.memlet.subset.lengths()))
        t_shape = tuple(map(str, (symbolic.simplify(d) for d in desc.shape)))
        if copy_lens != t_shape:
            continue
        # T must live entirely here: this single write, reads on this node only
        occs = [
            (s2, n2)
            for s2 in g.states
            for n2 in s2.nodes.values()
            if isinstance(n2, AccessNode) and n2.container == name
        ]
        if len(occs) != 1:
            continue
        # rewired readers attach to the copy's own source occurrence, so
        # only *other* written occurrences of the source can break ordering
        if any(
            st.in_edges(n2)
            for n2 in st.nodes.values()
            if isinstance(n2, AccessNode) and n2.container == src_name
            and n2 is not ce.src
        ):
            continue
        # rewire readers onto the copy source
        for e in list(st.out_edges(node)):
            if e.memlet is None or e.memlet.container != name:
                return False  # unexpected shape; bail conservatively
            new_sub = compose_subsets(ce.memlet.subset, e.memlet.subset)
            st.add_edge(
                ce.src, e.dst,
                Memlet(src_name, new_sub, e.memlet.wcr),
                ce.src_conn, e.dst_conn,
            )
            st.remove_edge(e)
        st.remove_edge(ce)
        st.remove_node(node)
        del g.containers[name]
        return True
    return False


# ---------------------------------------------------------------------------
# Nested-graph inlining


def inline_nested(g: Sdfg) -> bool:
    """Splice a single-state nested graph into its parent state."""
    match = next(((st, node) for st, node in nodes_of(g, NestedSdfg)
                  if len(node.sdfg.states) == 1 and not node.sdfg.transitions), None)
    if match is not None:
        _inline_one(g, *match)
    return match is not None


def _inline_one(g: Sdfg, st: State, node: NestedSdfg) -> None:
    inner = node.sdfg
    istate = inner.states[0]
    symmap = dict(node.symbol_map)

    in_by_conn = {e.dst_conn: e for e in st.in_edges(node) if e.memlet is not None}
    out_by_conn = {e.src_conn: e for e in st.out_edges(node) if e.memlet is not None}

    # name mapping for containers
    rename: dict[str, tuple[str, SubsetRange | None]] = {}
    for cname, desc in inner.containers.items():
        if desc.transient:
            fresh = g.fresh_name(f"{inner.name}_{cname}")
            nd = copy.copy(desc)
            nd.name = fresh
            nd.shape = tuple(symbolic.substitute(d, symmap) for d in nd.shape)
            g.add_container(nd)
            rename[cname] = (fresh, None)
        else:
            e = in_by_conn.get(cname) or out_by_conn.get(cname)
            if e is None:
                raise ValueError(f"nested connector '{cname}' unbound")
            rename[cname] = (e.memlet.container, e.memlet.subset)

    node_map: dict[int, object] = {}
    copies: list[Node] = []
    for n in istate.sorted_nodes():
        old_id = n.nid
        if isinstance(n, AccessNode):
            outer_name, _ = rename[n.container]
            is_source = not istate.in_edges(n)
            is_sink = not istate.out_edges(n)
            if n.container in in_by_conn and is_source and not inner.containers[n.container].transient:
                node_map[old_id] = in_by_conn[n.container].src
                continue
            if n.container in out_by_conn and is_sink and not inner.containers[n.container].transient:
                node_map[old_id] = out_by_conn[n.container].dst
                continue
            nn = AccessNode(outer_name)
            copies.append(nn)
            node_map[old_id] = nn
            continue
        nn = n.clone()
        if isinstance(nn, MapEntry):
            nn.params = tuple(
                (p, tuple(symbolic.substitute(x, symmap) for x in rng))
                for p, rng in nn.params
            )
        if isinstance(nn, Tasklet):
            tmap = {k: texpr.parse_texpr(str(v)) for k, v in symmap.items()}
            nn.code = tuple((c, texpr.subst_refs(e, tmap)) for c, e in nn.code)
        copies.append(nn)
        node_map[old_id] = nn
    for nn in copies:  # each copied exit names the copied entry
        if isinstance(nn, MapExit):
            nn.entry = node_map[nn.entry.nid]
        st.add(nn)

    for e in istate.edges:
        m = e.memlet
        new_m = None
        if m is not None:
            outer_name, outer_sub = rename[m.container]
            sub = m.subset.substitute(symmap)
            if outer_sub is not None:
                sub = compose_subsets(outer_sub, sub)
            new_m = Memlet(outer_name, sub, m.wcr)
        st.add_edge(node_map[e.src.nid], node_map[e.dst.nid], new_m, e.src_conn, e.dst_conn)

    st.remove_node(node)


# ---------------------------------------------------------------------------
# Loop detection and loop-to-map


@dataclass
class LoopInfo:
    guard: str
    body: str
    var: str
    start: SymExpr
    stop: SymExpr  # exclusive bound from the guard condition
    step: int
    init_edge: object
    back_edge: object
    body_edge: object
    exit_edge: object


def find_loops(g: Sdfg) -> list[LoopInfo]:
    """Guard/body patterns with conditions and increments on the transitions."""
    loops = []
    for st in g.states:
        outs = g.out_transitions(st.label)
        ins = g.in_transitions(st.label)
        if len(outs) != 2 or len(ins) != 2:
            continue
        body_t = exit_t = None
        for t in outs:
            if t.condition is None:
                continue
            c = t.condition
            if isinstance(c, TBin) and c.op in ("<", ">") and isinstance(c.left, TRef):
                body_t = t
            else:
                exit_t = t
        if body_t is None or exit_t is None or body_t.assignments:
            continue
        var = body_t.condition.left.name
        if var in exit_t.assignments:
            continue
        init_t = back_t = None
        for t in ins:
            if var in t.assignments:
                expr = t.assignments[var]
                delta = symbolic.simplify(expr - Sym(var))
                if isinstance(delta, Const) and t.src == body_t.dst:
                    back_t = t
                elif var not in expr.free_symbols():
                    init_t = t
        if init_t is None or back_t is None:
            continue
        body_label = body_t.dst
        if body_label == st.label:
            continue
        # single-state body: body's only transitions are guard->body->guard
        if [t.src for t in g.in_transitions(body_label)] != [st.label]:
            continue
        bouts = g.out_transitions(body_label)
        if len(bouts) != 1 or bouts[0] is not back_t:
            continue
        step = symbolic.simplify(back_t.assignments[var] - Sym(var))
        try:
            stop = symbolic.parse_expr(texpr.to_text(body_t.condition.right))
        except symbolic.ExprSyntaxError:
            continue
        if body_t.condition.op == ">":
            if not (isinstance(step, Const) and step.value < 0):
                continue
        loops.append(
            LoopInfo(
                st.label, body_label, var, init_t.assignments[var], stop,
                step.value, init_t, back_t, body_t, exit_t,
            )
        )
    return loops


def _body_access_sets(state: State):
    reads: dict[str, list[Memlet]] = {}
    writes: dict[str, list[Memlet]] = {}
    for n in state.sorted_nodes():
        if not isinstance(n, AccessNode):
            continue
        for e in state.in_edges(n):
            if e.memlet is not None:
                writes.setdefault(n.container, []).append(e.memlet)
        for e in state.out_edges(n):
            if e.memlet is not None:
                reads.setdefault(n.container, []).append(e.memlet)
    return reads, writes


def _reduction_op(tasklet: Tasklet, conn: str) -> tuple[Wcr, TExpr] | None:
    """Match `out = <conn> ⊕ rest` (or symmetric) for a commutative ⊕."""
    if len(tasklet.code) != 1:
        return None
    _, code = tasklet.code[0]
    if not isinstance(code, TBin) or code.op not in ("+", "*"):
        return None
    wcr = Wcr.ADD if code.op == "+" else Wcr.MUL
    for mine, rest in ((code.left, code.right), (code.right, code.left)):
        if isinstance(mine, TRef) and mine.name == conn and conn not in rest.free_names():
            return wcr, rest
    return None


def loop_to_map(g: Sdfg, loop: LoopInfo, report: PassReport | None = None) -> bool:
    """Convert an affine unit-step loop into a parallel map when provably safe.

    Safe means: for iterations `i` and `i + k` (k >= 1), writes are disjoint
    from the other iteration's reads and writes; containers violating this are
    admitted only as same-operator reductions (turned into wcr) or as
    write-before-read transients private to the body (privatized per
    iteration).  UNKNOWN verdicts refuse the conversion.  ``report`` records
    the decision and the state fusions that fold the converted loop into its
    neighbours; the caller counts the conversion itself.
    """
    applied = _loop_to_map(g, loop)
    if report is not None:
        report.loop_decisions.append((loop.guard, applied))
    if applied:
        # fold away the trivial states the loop construction left behind
        label = loop.body
        for pred in [t.src for t in g.in_transitions(label)]:
            if state_fusion(g, pred, label):
                label = pred
                if report is not None:
                    report.count("state_fusion")
                break
        for succ in [t.dst for t in g.out_transitions(label)]:
            if state_fusion(g, label, succ):
                if report is not None:
                    report.count("state_fusion")
                break
    return applied


def _loop_to_map(g: Sdfg, loop: LoopInfo) -> bool:
    if loop.step != 1:
        return False
    body = g.state(loop.body)
    var = loop.var
    a = g.assumptions()
    delta = "__iter_delta"
    a = a.with_bound(delta, 1)
    a = a.with_bound(var, g.symbols.get(var, 0))
    shift = {var: Sym(var) + Sym(delta)}

    reads, writes = _body_access_sets(body)
    reductions: dict[str, Wcr] = {}
    private: set[str] = set()
    for cont in sorted(writes):
        ws = writes[cont]
        others = ws + reads.get(cont, [])
        conflict = False
        for w in ws:
            for x in others:
                d1 = symbolic.disjoint(w.subset, x.subset.substitute(shift), a)
                d2 = symbolic.disjoint(x.subset, w.subset.substitute(shift), a)
                if d1 is not Ternary.TRUE or d2 is not Ternary.TRUE:
                    conflict = True
                    break
            if conflict:
                break
        if not conflict:
            continue
        wcr = _container_reduction(body, cont)
        if wcr is not None:
            reductions[cont] = wcr
            continue
        if _privatizable(g, body, cont, a):
            private.add(cont)
            continue
        return False

    # occurrences that are both read and written stay inside the scope, which
    # only privatized containers support
    for n in body.sorted_nodes():
        if not isinstance(n, AccessNode) or n.container in private:
            continue
        if n.container in reductions:
            continue
        if body.in_edges(n) and body.out_edges(n):
            return False

    _convert_loop(g, loop, reductions, private)
    return True


def _container_reduction(body: State, cont: str) -> Wcr | None:
    """All writes are `x ⊕= f(..)` read-modify-write tasklets with one ⊕,
    where `f` never reads the reduced container itself."""
    ops: set[Wcr] = set()
    for n in body.sorted_nodes():
        if not isinstance(n, AccessNode) or n.container != cont:
            continue
        for e in body.in_edges(n):
            if e.memlet is None or not isinstance(e.src, Tasklet):
                return None
            conn = _sole_read_conn(body, e.src, cont)
            if conn is None:
                return None
            red = _reduction_op(e.src, conn)
            if red is None:
                return None
            ops.add(red[0])
        for e in body.out_edges(n):
            # every read must be the read-modify connector of a reducing tasklet
            if not isinstance(e.dst, Tasklet):
                return None
            if _sole_read_conn(body, e.dst, cont) != e.dst_conn:
                return None
            if _reduction_op(e.dst, e.dst_conn) is None:
                return None
    if len(ops) != 1:
        return None
    return ops.pop()


def _sole_read_conn(body: State, tasklet: Tasklet, cont: str) -> str | None:
    conns = [e.dst_conn for e in body.in_edges(tasklet)
             if e.memlet is not None and e.memlet.container == cont]
    return conns[0] if len(conns) == 1 else None


def _privatizable(g: Sdfg, body: State, cont: str, a) -> bool:
    desc = g.containers.get(cont)
    if desc is None or not desc.transient:
        return False
    for st in g.states:
        if st is body:
            continue
        if any(isinstance(n, AccessNode) and n.container == cont for n in st.nodes.values()):
            return False
    reads_sub = []
    writes_sub = []
    for n in body.sorted_nodes():
        if not isinstance(n, AccessNode) or n.container != cont:
            continue
        if not body.in_edges(n) and body.out_edges(n):
            return False  # read before any write
        writes_sub += [e.memlet.subset for e in body.in_edges(n) if e.memlet]
        reads_sub += [e.memlet.subset for e in body.out_edges(n) if e.memlet]
    for r in reads_sub:
        if not any(symbolic.covers(w, r, a) is Ternary.TRUE for w in writes_sub):
            return False
    return True


def _convert_loop(g: Sdfg, loop: LoopInfo, reductions: dict[str, Wcr], private: set[str]) -> None:
    body = g.state(loop.body)
    var = loop.var
    end = symbolic.simplify(loop.stop - 1)
    params = ((var, (loop.start, end, Const(1))),)

    # rewrite reducing tasklets to wcr form before moving nodes: out = in ⊕ f
    # becomes out = f with a wcr(⊕) write
    for cont in reductions:
        for n in body.sorted_nodes():
            if not isinstance(n, AccessNode) or n.container != cont:
                continue
            for e in body.in_edges(n):
                t = e.src
                assert isinstance(t, Tasklet)
                red = _reduction_op(t, _sole_read_conn(body, t, cont))
                assert red is not None
                out_conn_, _ = t.code[0]
                _, rest = red
                t.code = ((out_conn_, rest),)
                t.inputs = tuple(i for i in t.inputs if i in rest.free_names())

    new = State(body.label)
    entry = new.add(MapEntry(params, Schedule.PARALLEL))
    exit_node = new.add(MapExit(entry))

    body_nodes = body.sorted_nodes()
    body_edges = [(e.src, e.dst, e.memlet, e.src_conn, e.dst_conn) for e in body.edges]
    body_ins = {id(n): bool(body.in_edges(n)) for n in body_nodes}

    node_map: dict[int, object] = {}  # id(body node) -> new node
    dropped: set[int] = set()
    outer_sources: set[int] = set()
    outer_sinks: set[int] = set()
    for n in body_nodes:
        if isinstance(n, AccessNode) and n.container in reductions and not body_ins[id(n)]:
            dropped.add(id(n))  # the read side of a reduction disappears
            continue
        if isinstance(n, AccessNode) and n.container not in private:
            acc = AccessNode(n.container)
            new.add(acc)
            (outer_sinks if body_ins[id(n)] else outer_sources).add(id(n))
            node_map[id(n)] = acc
        else:
            n.nid = -1
            new.add(n)
            node_map[id(n)] = n

    conn = [0]

    def fresh_conn():
        conn[0] += 1
        return f"L{conn[0]}"

    for bsrc, bdst, m, sc, dc in body_edges:
        if id(bsrc) in dropped or id(bdst) in dropped:
            continue  # read edges of reduction containers are dropped
        src = node_map[id(bsrc)]
        dst = node_map[id(bdst)]
        if id(bsrc) in outer_sources:
            c = fresh_conn()
            outer = propagate_subset(m.subset, params)
            new.add_edge(src, entry, Memlet(m.container, outer), dst_conn=f"IN_{c}")
            new.add_edge(entry, dst, Memlet(m.container, m.subset, m.wcr),
                         src_conn=f"OUT_{c}", dst_conn=dc)
            continue
        if id(bdst) in outer_sinks:
            c = fresh_conn()
            wcr = reductions.get(m.container, m.wcr)
            outer = propagate_subset(m.subset, params)
            new.add_edge(src, exit_node, Memlet(m.container, m.subset, wcr),
                         src_conn=sc, dst_conn=f"IN_{c}")
            new.add_edge(exit_node, dst, Memlet(m.container, outer, wcr),
                         src_conn=f"OUT_{c}")
            continue
        new.add_edge(src, dst, m, sc, dc)

    # tasklets and inner maps with no remaining inputs still need a scope
    # dependency
    for n in list(new.sorted_nodes()):
        if isinstance(n, (AccessNode, MapExit)) or n is entry:
            continue
        if not new.in_edges(n):
            new.add_edge(entry, n)

    # splice into the control-flow graph
    idx = g.states.index(body)
    g.states[idx] = new
    guard = g.state(loop.guard)
    g.states.remove(guard)
    init_assign = {k: v for k, v in loop.init_edge.assignments.items() if k != var}
    g.transitions.remove(loop.init_edge)
    g.transitions.remove(loop.back_edge)
    g.transitions.remove(loop.body_edge)
    g.transitions.remove(loop.exit_edge)
    if loop.init_edge.src == loop.guard:
        raise ValueError("self-looping guard cannot be converted")
    g.add_transition(loop.init_edge.src, new.label, loop.init_edge.condition, init_assign)
    g.add_transition(new.label, loop.exit_edge.dst, None, loop.exit_edge.assignments)
    if g.start == loop.guard:
        g.start = new.label


def reversed_loop_clone(g: Sdfg, guard_label: str) -> Sdfg:
    """Clone the graph with one loop running its iterations in reverse order.

    This is the brute-force dependence oracle: an order-insensitive loop gives
    identical results under the reversed clone.
    """
    clone = g.copy()
    loops = [l for l in find_loops(clone) if l.guard == guard_label]
    if not loops:
        raise ValueError(f"no loop with guard '{guard_label}'")
    loop = loops[0]
    s = loop.step
    start, stop = loop.start, loop.stop
    if s > 0:
        last = symbolic.simplify(start + ((stop - start - 1) // Const(s)) * Const(s))
        cond = TBin(">=", TRef(loop.var), texpr.parse_texpr(str(start)))
    else:
        last = symbolic.simplify(start + ((stop - start + 1) // Const(s)) * Const(s))
        cond = TBin("<=", TRef(loop.var), texpr.parse_texpr(str(start)))
    loop.init_edge.assignments[loop.var] = last
    loop.back_edge.assignments[loop.var] = symbolic.simplify(Sym(loop.var) - Const(s))
    loop.body_edge.condition = cond
    loop.exit_edge.condition = texpr.negated(cond)
    return clone


# ---------------------------------------------------------------------------
# Coarsening driver


def coarsen(g: Sdfg) -> PassReport:
    """Fixed-point application of state fusion, redundant copy removal, and
    nested-graph inlining, in deterministic order.  One state-fusion
    application fuses a chain of states and counts each pair it merged."""
    report = PassReport()
    _snapshot(g, report, before=True)
    budget = measure = graph_measure(g)
    for name, n in to_fixed_point({
        "state_fusion": lambda: _fuse_first_chain(g),
        "redundant_copy_removal": lambda: redundant_copy_removal(g),
        "inline_nested": lambda: inline_nested(g),
    }):
        report.count(name, n)
        new_measure = graph_measure(g)
        assert new_measure <= measure - n, "coarsening step failed to shrink the graph"
        assert report.total <= budget, "coarsening exceeded its termination budget"
        measure = new_measure
    _snapshot(g, report, before=False)
    return report
