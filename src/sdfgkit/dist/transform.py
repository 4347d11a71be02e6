"""Distribution transformations.

:func:`distribute` rewrites each supported operation of a coarsened graph
into a rank-parallel form: operands move from rank 0 to every rank through a
collective, the operation runs on rank-local (``DISTRIBUTED_LOCAL``) copies,
and results move back to rank 0.  Everything else stays on rank 0.

Supported operations:

* A top-level map whose body is tasklets that do not read the map
  parameters, and whose array operands are *aligned*: each memlet indexes
  the map parameters, in order, with unit coefficients, so the view it
  sweeps enumerates in iteration order.  Scalar operands are broadcast,
  array operands scattered, results gathered (summed in rank order for a
  scalar written with conflict resolution ``add``).  The default layout
  splits the flattened views into equal contiguous chunks; a map takes the
  2-D block layout instead when a matrix product forces it (see below).
* A matrix product of full-dimensional operands (matrix-matrix,
  matrix-vector, vector-matrix).  On an ``R x C`` grid a matrix-matrix
  product scatters the row panels of the left operand over the grid rows and
  the column panels of the right operand over the grid columns; each rank
  multiplies its panels into its block of the result.  Products with a
  vector split the result over all ranks the same way.

The layout rule: within a state, the result of a matrix-matrix product is
2-D-block distributed.  A two-parameter aligned map over 2-D operands that
reads or writes a block-distributed container takes the same block layout,
and so do all of its array operands; this repeats until nothing changes.
Product operands are never forced: a product scatters its own panels.

:func:`remove_redundant_comm` then removes each gather whose transient
result is read only by a scatter of the same view and layout, wiring the
producer's rank-local data straight into the consumer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import symbolic
from ..ir import (
    AccessNode, DataKind, Edge, LibKind, LibraryNode, MapEntry, Memlet, Node, Sdfg,
    State, Storage, Tasklet, Wcr,
)
from ..passes import PassReport, _snapshot, coarsen, nodes_of
from ..symbolic import Const, SubsetRange, Sym
from .layout import Distribution, ProcessGrid

_GATHER_TO_SCATTER = {
    LibKind.GATHER: LibKind.SCATTER,
    LibKind.BLOCK_GATHER: LibKind.BLOCK_SCATTER,
}


@dataclass
class _Operand:
    outer: Edge  # between the global access node and the map scope
    inner: Edge  # between the map scope and the tasklet
    view: SubsetRange  # global view the operand moves
    role: str  # "bcast" | "scatter" | "gather" | "reduce"


def distribution_pipeline(g: Sdfg, grid: ProcessGrid) -> PassReport:
    """Coarsen, distribute, then remove redundant communication."""
    report = coarsen(g)
    report.merge(distribute(g, grid))
    report.merge(remove_redundant_comm(g))
    _snapshot(g, report, before=False)
    return report


def distribute(g: Sdfg, grid: ProcessGrid) -> PassReport:
    """Distribute every supported operation of the top-level graph."""
    report = PassReport()
    for st in g.states:
        scopes = st.facts().scopes
        maps = {}
        for node in scopes[None]:
            if isinstance(node, MapEntry):
                ops = _map_operands(g, st, node, scopes[node])
                if ops is not None:
                    maps[node] = ops
        products = [n for n in st.sorted_nodes() if _product_ranks(g, st, n)]
        block = _block_maps(g, st, maps, products)
        for entry, ops in maps.items():
            _distribute_map(g, st, entry, ops, grid, entry in block)
            report.count("distribute_map")
        for node in products:
            _distribute_product(g, st, node, grid)
            report.count("distribute_matmul")
    return report


# -- maps ------------------------------------------------------------------------


def _aligned(sub: SubsetRange, params: tuple[str, ...]) -> bool:
    """Each dimension is a point; the ones that use map parameters index
    them in order, one each, with coefficient 1."""
    used = []
    for b, e, _ in sub.dims:
        if b != e:
            return False
        ps = set(params) & b.free_symbols()
        if len(ps) > 1:
            return False
        if ps:
            p = ps.pop()
            if symbolic.linear_coeff(b, p) != 1:
                return False
            used.append(p)
    return tuple(used) == params


def _map_operands(g: Sdfg, st: State, entry: MapEntry,
                  members: tuple[Node, ...]) -> list[_Operand] | None:
    exit_node = st.exit_of(entry)
    params = entry.param_names
    if any(_extent(rng).free_symbols() & g.assigned_symbols() for _, rng in entry.params):
        return None  # rank-local containers are allocated once, before any loop runs
    for n in members:
        if not isinstance(n, Tasklet) or any(
                code.free_names() & set(params) for _, code in n.code):
            return None
    ops = []
    for outer in st.in_edges(entry):
        inner = [e for e in st.out_edges(entry)
                 if e.src_conn == "OUT_" + (outer.dst_conn or "")[3:]]
        if outer.memlet is None or len(inner) != 1 or not isinstance(outer.src, AccessNode):
            return None
        desc = g.containers[outer.memlet.container]
        if desc.kind is DataKind.SCALAR:
            ops.append(_Operand(outer, inner[0], outer.memlet.subset, "bcast"))
        elif _aligned(inner[0].memlet.subset, params):
            view = symbolic.propagate_subset(inner[0].memlet.subset, entry.params)
            ops.append(_Operand(outer, inner[0], view, "scatter"))
        else:
            return None
    for inner in st.in_edges(exit_node):
        outer = [e for e in st.out_edges(exit_node)
                 if e.src_conn == "OUT_" + (inner.dst_conn or "")[3:]]
        if inner.memlet is None or len(outer) != 1:
            return None
        m = inner.memlet
        if m.wcr not in (None, Wcr.ADD):
            return None
        if _aligned(m.subset, params):
            view = symbolic.propagate_subset(m.subset, entry.params)
            ops.append(_Operand(outer[0], inner, view, "gather"))
        elif m.wcr is Wcr.ADD and g.containers[m.container].kind is DataKind.SCALAR:
            ops.append(_Operand(outer[0], inner, m.subset, "reduce"))
        else:
            return None
    return ops


def _block_maps(g: Sdfg, st: State, maps: dict, products: list) -> set[MapEntry]:
    """Maps that take the 2-D block layout of a matrix product's result."""
    blocked = {st.out_edges(n)[0].memlet.container
               for n in products if _product_ranks(g, st, n) == (2, 2)}
    arrays = {
        entry: {op.outer.memlet.container for op in ops if op.role != "bcast"}
        for entry, ops in maps.items()
        if len(entry.params) == 2 and all(
            op.role in ("bcast", "scatter", "gather")
            and (op.role == "bcast" or g.containers[op.outer.memlet.container].rank == 2)
            for op in ops)
    }
    chosen: set[MapEntry] = set()
    changed = True
    while changed:
        changed = False
        for entry, conts in arrays.items():
            if entry not in chosen and conts & blocked:
                chosen.add(entry)
                blocked |= conts
                changed = True
    return chosen


def _extent(rng) -> symbolic.SymExpr:
    b, e, s = rng
    return symbolic.simplify((e - b) // s + 1)


def _distribute_map(g: Sdfg, st: State, entry: MapEntry, ops: list[_Operand],
                    grid: ProcessGrid, block: bool) -> None:
    extents = [_extent(rng) for _, rng in entry.params]
    if block:
        dist = Distribution(grid.dims, (0, 1))
        lshape = dist.local_shape(extents)
        names = entry.param_names
        scatter, gather = LibKind.BLOCK_SCATTER, LibKind.BLOCK_GATHER
    else:
        dist = Distribution((grid.size,), (0,))
        lshape = dist.local_shape([symbolic.simplify(math.prod(extents, start=Const(1)))])
        names = entry.param_names[:1]
        scatter, gather = LibKind.SCATTER, LibKind.GATHER
    entry.params = tuple(
        (p, (Const(0), symbolic.simplify(n - 1), Const(1))) for p, n in zip(names, lshape))
    point = SubsetRange.point([Sym(p) for p in names])
    for op in ops:
        cont = op.outer.memlet.container
        dtype = g.containers[cont].dtype
        if op.role == "bcast":
            local = _local(g, cont, dtype, ())
            _feed(st, op.outer, LibraryNode(LibKind.BCAST, f"bcast_{cont}"), op.view, local, ())
            op.inner.memlet = Memlet(local, SubsetRange(()))
        elif op.role == "scatter":
            local = _local(g, cont, dtype, lshape)
            lib = LibraryNode(scatter, f"{scatter.value}_{cont}", {"dist": dist.to_attr()})
            _feed(st, op.outer, lib, op.view, local, lshape)
            op.inner.memlet = Memlet(local, point)
        elif op.role == "gather":
            local = _local(g, cont, dtype, lshape)
            lib = LibraryNode(gather, f"{gather.value}_{cont}", {"dist": dist.to_attr()})
            # the local block is written whole; conflict resolution applies at rank 0
            _drain(st, op.outer, lib, op.view, local, lshape, op.inner.memlet.wcr)
            op.inner.memlet = Memlet(local, point)
        else:
            local = _local(g, cont, dtype, ())
            lib = LibraryNode(LibKind.GATHER, f"reduce_{cont}",
                              {"dist": Distribution((grid.size,), (0,)).to_attr(),
                               "reduce": "add"})
            _drain(st, op.outer, lib, op.view, local, (), Wcr.ADD, local_wcr=Wcr.ADD)
            op.inner.memlet = Memlet(local, SubsetRange(()), wcr=Wcr.ADD)


# -- matrix products -----------------------------------------------------------


def _product_ranks(g: Sdfg, st: State, node) -> tuple[int, int] | None:
    """Operand ranks of a distributable matrix product, else None."""
    if not isinstance(node, LibraryNode) or node.kind is not LibKind.MATMUL:
        return None
    if not all(all(node.attributes.get(k) or [True])
               for k in ("a_kept", "b_kept", "out_kept")):
        return None
    ins = {e.dst_conn: e for e in st.in_edges(node)}
    outs = st.out_edges(node)
    if len(outs) != 1 or outs[0].memlet.wcr is not None or set(ins) != {"a", "b"}:
        return None
    if not all(isinstance(e.src, AccessNode) for e in ins.values()):
        return None
    if any(e.memlet.subset.free_symbols() & g.assigned_symbols()
           for e in [*ins.values(), *outs]):
        return None  # views that move with a loop counter
    ranks = (ins["a"].memlet.subset.rank, ins["b"].memlet.subset.rank)
    return ranks if ranks in ((2, 2), (2, 1), (1, 2)) else None


def _distribute_product(g: Sdfg, st: State, node: LibraryNode, grid: ProcessGrid) -> None:
    ranks = _product_ranks(g, st, node)
    if ranks == (2, 2):
        layouts = {"a": (0, None), "b": (None, 1), "out": (0, 1)}
        pgrid = grid.dims
    elif ranks == (2, 1):
        layouts = {"a": (0, None), "b": (None,), "out": (0,)}
        pgrid = (grid.size,)
    else:
        layouts = {"a": (None,), "b": (None, 0), "out": (0,)}
        pgrid = (grid.size,)
    for e in st.in_edges(node):
        dist = Distribution(pgrid, layouts[e.dst_conn])
        cont = e.memlet.container
        lshape = dist.local_shape(e.memlet.subset.lengths())
        local = _local(g, cont, g.containers[cont].dtype, lshape)
        lib = LibraryNode(LibKind.BLOCK_SCATTER, f"block_scatter_{cont}",
                          {"dist": dist.to_attr()})
        _feed(st, e, lib, e.memlet.subset, local, lshape)
    (e,) = st.out_edges(node)
    dist = Distribution(pgrid, layouts["out"])
    cont = e.memlet.container
    lshape = dist.local_shape(e.memlet.subset.lengths())
    local = _local(g, cont, g.containers[cont].dtype, lshape)
    lib = LibraryNode(LibKind.BLOCK_GATHER, f"block_gather_{cont}", {"dist": dist.to_attr()})
    _drain(st, e, lib, e.memlet.subset, local, lshape, None)


# -- rewiring helpers --------------------------------------------------------------


def _local(g: Sdfg, base: str, dtype, shape) -> str:
    name = g.fresh_name(f"{base}_local")
    if shape:
        g.add_array(name, dtype, shape, transient=True, storage=Storage.DISTRIBUTED_LOCAL)
    else:
        g.add_scalar(name, dtype, transient=True, storage=Storage.DISTRIBUTED_LOCAL)
    return name


def _feed(st: State, edge: Edge, lib: LibraryNode, view: SubsetRange,
          local: str, lshape) -> None:
    """Replace ``access -> consumer`` by ``access -> lib -> local -> consumer``."""
    st.remove_edge(edge)
    st.add(lib)
    acc = st.add(AccessNode(local))
    full = SubsetRange.full(lshape)
    st.add_edge(edge.src, lib, Memlet(edge.memlet.container, view), dst_conn="a")
    st.add_edge(lib, acc, Memlet(local, full), src_conn="out")
    st.add_edge(acc, edge.dst, Memlet(local, full), dst_conn=edge.dst_conn)


def _drain(st: State, edge: Edge, lib: LibraryNode, view: SubsetRange, local: str,
           lshape, wcr: Wcr | None, local_wcr: Wcr | None = None) -> None:
    """Replace ``producer -> access`` by ``producer -> local -> lib -> access``."""
    st.remove_edge(edge)
    st.add(lib)
    acc = st.add(AccessNode(local))
    full = SubsetRange.full(lshape)
    st.add_edge(edge.src, acc, Memlet(local, full, wcr=local_wcr), src_conn=edge.src_conn)
    st.add_edge(acc, lib, Memlet(local, full), dst_conn="a")
    st.add_edge(lib, edge.dst, Memlet(edge.memlet.container, view, wcr=wcr), src_conn="out")


# -- redundant communication ----------------------------------------------------------


def remove_redundant_comm(g: Sdfg) -> PassReport:
    """Remove gather/scatter pairs through an otherwise-unused transient.

    A pair qualifies when a gather writes view V of transient T into an
    access node whose only reader is a scatter of the same view V with the
    same layout, T is used nowhere else, and both rank-local sides are whole
    containers of one shape.  The scatter's consumers then read the gather's
    rank-local input directly.
    """
    report = PassReport()
    uses: dict[str, int] = {}
    for st in g.states:
        for e in st.edges:
            if e.memlet is not None:
                uses[e.memlet.container] = uses.get(e.memlet.container, 0) + 1
    for st, node in nodes_of(g, LibraryNode):
        pair = _redundant_pair(g, st, node, uses)
        if pair is not None:
            _bypass(g, st, node, *pair)
            report.count("remove_redundant_comm")
    return report


def _redundant_pair(g: Sdfg, st: State, gather: LibraryNode, uses):
    if gather.kind not in _GATHER_TO_SCATTER or gather.attributes.get("reduce"):
        return None
    (out,) = st.out_edges(gather)
    t = out.memlet.container
    if out.memlet.wcr is not None or not g.containers[t].transient or uses[t] != 2:
        return None
    reads = st.out_edges(out.dst)
    if len(reads) != 1:
        return None
    scatter = reads[0].dst
    if (not isinstance(scatter, LibraryNode)
            or scatter.kind is not _GATHER_TO_SCATTER[gather.kind]
            or str(reads[0].memlet.subset) != str(out.memlet.subset)
            or scatter.attributes.get("dist") != gather.attributes.get("dist")):
        return None
    (src,) = st.in_edges(gather)
    (dst,) = st.out_edges(scatter)
    lg, ls = src.memlet.container, dst.memlet.container
    whole = str(g.containers[lg].full_subset())
    if (str(src.memlet.subset) != whole or str(dst.memlet.subset) != whole
            or str(g.containers[ls].full_subset()) != whole
            or uses[ls] != sum(e.memlet is not None and e.memlet.container == ls
                               for e in st.edges)):
        return None
    return out.dst, scatter


def _bypass(g: Sdfg, st: State, gather: LibraryNode, t_acc: AccessNode,
            scatter: LibraryNode) -> None:
    (src,) = st.in_edges(gather)
    (dst,) = st.out_edges(scatter)
    produced, consumed = src.src, dst.dst
    lg, ls = produced.container, consumed.container
    for e in st.out_edges(consumed):
        st.add_edge(produced, e.dst, e.memlet, e.src_conn, e.dst_conn)
    for e in st.edges:
        if e.memlet is not None and e.memlet.container == ls:
            e.memlet = Memlet(lg, e.memlet.subset, e.memlet.wcr)
    for n in (gather, t_acc, scatter, consumed):
        st.remove_node(n)
    del g.containers[t_acc.container], g.containers[ls]
