"""The in-process rank simulator.

One interpreter :class:`~sdfgkit.interp.Machine` runs per rank; the simulator
is a deterministic round-robin driver over their ``run()`` generators and
services the communication events they yield.  It never executes tasklets,
maps or compute library nodes itself.

Execution modes:

* A *global-view* graph (produced by :func:`~sdfgkit.dist.distribute`; it has
  ``DISTRIBUTED_LOCAL`` containers) keeps its global containers on rank 0.
  Other ranks start without inputs, and their machines drop, once per state,
  the top-level steps that touch only global data.
* Any other graph is a *local-view* (SPMD) program: every rank receives the
  inputs and runs every node, with its own per-rank symbol bindings.

Point-to-point semantics: a send snapshots its view when posted and never
blocks; a send or receive whose peer is negative (the null process) is
posted but moves nothing.  Messages match on (source, destination, tag) in
posting order, and receives complete in ``comm_waitall``.  Collectives run
once every rank has reached the same collective node, combining rank data in
rank order, so results do not depend on the scheduling order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..interp import CommEvent, ExecContext, InterpreterError, Machine
from ..ir import P2P_KINDS, LibKind, Memlet, Sdfg, Storage
from .layout import Distribution, ProcessGrid


class SimError(InterpreterError):
    """A fault in a distributed execution (bad layout, racing receives, ...)."""


class DeadlockError(SimError):
    """No rank can make progress, or messages are left unmatched at exit."""


class CollectiveOrderError(SimError):
    """Ranks reached different collective operations."""


@dataclass
class _Op:
    """A posted point-to-point operation."""

    ev: CommEvent
    rank: int
    peer: int
    tag: int
    req: str  # request container
    memlet: Memlet  # sent or received view
    region: tuple[range, ...] = ()  # receive only
    data: np.ndarray | None = None  # send only: snapshot taken when posted
    seq: int = 0  # receive only: index among receives with the same key
    delivered: bool = False

    def describe(self) -> str:
        if self.ev.node.kind is LibKind.ISEND:
            what = f"send to {self.peer}"
        else:
            what = f"receive from {self.peer}"
        return (f"  rank {self.rank}: {what} tag {self.tag} {self.memlet} "
                f"(state '{self.ev.state}')")


@dataclass
class _Rank:
    rank: int
    machine: Machine
    gen: Iterator
    at: CommEvent | None = None  # the waitall or collective blocking the rank
    done: bool = False
    recvs: list[_Op] = field(default_factory=list)  # posted, not yet completed

    @property
    def at_collective(self) -> bool:
        return self.at is not None and self.at.node.kind not in P2P_KINDS


class RankSim:
    """Simulate ``grid.size`` ranks executing one graph.

    ``bindings`` optionally gives per-rank symbol bindings on top of
    ``ctx.bindings``; ``rank_order`` is the order in which each sweep
    advances the ranks.
    """

    def __init__(self, g: Sdfg, grid: ProcessGrid, ctx: ExecContext,
                 bindings: Sequence[dict] | None = None,
                 rank_order: Sequence[int] | None = None):
        n = grid.size
        if bindings is not None and len(bindings) != n:
            raise SimError(f"{len(bindings)} per-rank bindings for {n} ranks")
        self.order = list(range(n)) if rank_order is None else list(rank_order)
        if sorted(self.order) != list(range(n)):
            raise SimError(f"rank order {self.order} is not a permutation of {n} ranks")
        self.grid = grid
        # a global-view program: rank 0 holds the global containers
        local = frozenset(k for k, d in g.containers.items()
                          if d.storage is Storage.DISTRIBUTED_LOCAL)
        self.ranks: list[_Rank] = []
        # every rank runs the same graph: the machines take its program from
        # the interpreter's table, so it is validated once, and ranks with
        # equal container shapes and rank sets share one program
        for r in range(n):
            rctx = ExecContext(
                bindings={**ctx.bindings, **(bindings[r] if bindings else {})},
                store=dict(ctx.store) if r == 0 or not local else {},
                rank=r,
            )
            m = Machine(g, rctx)
            if local and r != 0:
                m.rank_local = local
            self.ranks.append(_Rank(r, m, m.run()))
        self.sends: dict[tuple[int, int, int], list[_Op]] = {}
        self.recv_counts: dict[tuple[int, int, int], int] = {}
        self.collective_ops = 0

    # -- driver --------------------------------------------------------------

    def run(self) -> tuple[dict[str, np.ndarray], dict]:
        """Run to completion; returns rank 0's outputs and the counters."""
        while True:
            progress = False
            for r in self.order:
                progress |= self._advance(self.ranks[r])
            live = [rk for rk in self.ranks if not rk.done]
            if not live:
                break
            if all(rk.at_collective for rk in live):
                if len(live) < len(self.ranks):
                    raise CollectiveOrderError(
                        "ranks finished while others wait at a collective:\n"
                        + self._table())
                self._collective([rk.at for rk in self.ranks])
                for rk in self.ranks:
                    rk.at = None
            elif not progress:
                raise DeadlockError("deadlock: waitall pending on some rank:\n"
                                    + self._table())
        left = [op for ops in self.sends.values() for op in ops if not op.delivered]
        left += [op for rk in self.ranks for op in rk.recvs]
        if left:
            raise DeadlockError("deadlock: unmatched message at exit:\n"
                                + "\n".join(op.describe() for op in left))
        return self.ranks[0].machine.outputs(), {
            "per_rank": {rk.rank: rk.machine.ctx.counters.as_dict() for rk in self.ranks},
            "collective_ops": self.collective_ops,
        }

    def _advance(self, rk: _Rank) -> bool:
        """Run one rank until it blocks or finishes; True if it moved."""
        if rk.done or rk.at_collective:
            return False
        if rk.at is not None:
            if not self._waitall(rk, rk.at):
                return False
            rk.at = None
        for ev in rk.gen:
            if ev.node.kind in (LibKind.ISEND, LibKind.IRECV):
                self._post(rk, ev)
            elif ev.node.kind is not LibKind.WAITALL or not self._waitall(rk, ev):
                rk.at = ev
                return True
        rk.done = True
        return True

    def _table(self) -> str:
        lines = []
        for rk in self.ranks:
            if rk.done:
                lines.append(f"  rank {rk.rank}: finished")
            elif rk.at is not None:
                lines.append(f"  rank {rk.rank}: at {rk.at.node.kind.value} "
                             f"'{rk.at.node.name}' (state '{rk.at.state}')")
            lines += [op.describe() for op in rk.recvs]
        lines += [op.describe() for ops in self.sends.values()
                  for op in ops if not op.delivered]
        return "\n".join(lines)

    # -- point to point --------------------------------------------------------

    def _post(self, rk: _Rank, ev: CommEvent) -> None:
        peer = ev.node.attributes["peer"].evaluate(ev.env)
        tag = ev.node.attributes["tag"].evaluate(ev.env)
        counters = ev.machine.ctx.counters
        if peer >= len(self.ranks):
            raise SimError(f"rank {rk.rank} addresses rank {peer} on a "
                           f"{len(self.ranks)}-rank grid")
        req = ev.outs["req"].container
        if ev.node.kind is LibKind.ISEND:
            counters.messages_posted += 1
            if peer < 0:
                return
            data = ev.read("buf").copy()
            counters.comm_bytes += data.nbytes
            self.sends.setdefault((rk.rank, peer, tag), []).append(
                _Op(ev, rk.rank, peer, tag, req, ev.ins["buf"], data=data))
            return
        if peer < 0:
            return
        memlet = ev.outs["buf"]
        region = memlet.subset.evaluate(ev.env)
        op = _Op(ev, rk.rank, peer, tag, req, memlet, region=region)
        for other in rk.recvs:
            if (other.ev.machine is ev.machine and other.memlet.container == memlet.container
                    and all(any(i in b for i in a) for a, b in zip(other.region, region))):
                raise SimError(f"overlapping receives into '{memlet.container}':\n"
                               f"{other.describe()}\n{op.describe()}")
        key = (peer, rk.rank, tag)
        op.seq = self.recv_counts.get(key, 0)
        self.recv_counts[key] = op.seq + 1
        rk.recvs.append(op)

    def _waitall(self, rk: _Rank, ev: CommEvent) -> bool:
        """Complete the rank's receives on the request array; True when none
        is left pending."""
        req = ev.ins["req"].container
        for op in [op for op in rk.recvs if op.req == req]:
            sent = self.sends.get((op.peer, op.rank, op.tag), [])
            if len(sent) <= op.seq:
                continue
            msg = sent[op.seq]
            shape = tuple(len(r) for r in op.region)
            if msg.data.size != math.prod(shape):
                raise SimError(f"message of {msg.data.size} elements does not fit "
                               f"the receive:\n{msg.describe()}\n{op.describe()}")
            op.ev.write("buf", msg.data.reshape(shape))
            counters = op.ev.machine.ctx.counters
            counters.messages_delivered += 1
            counters.comm_bytes += msg.data.nbytes
            msg.delivered = True
            rk.recvs.remove(op)
        return not any(op.req == req for op in rk.recvs)

    # -- collectives -----------------------------------------------------------

    def _collective(self, evs: list[CommEvent]) -> None:
        node = evs[0].node
        for r, ev in enumerate(evs):
            if ev.node is not node:
                raise CollectiveOrderError(
                    f"rank 0 is at {node.kind.value} '{node.name}' (state "
                    f"'{evs[0].state}'), rank {r} at {ev.node.kind.value} "
                    f"'{ev.node.name}' (state '{ev.state}')")
        self.collective_ops += 1
        for ev in evs:
            ev.machine.ctx.counters.collective_calls += 1
        kind = node.kind
        if kind is LibKind.BCAST:
            value = evs[0].read("a")
            for r, ev in enumerate(evs):
                _write(ev, value)
                self._transfer(0, r, value.nbytes)
        elif kind in (LibKind.SCATTER, LibKind.BLOCK_SCATTER):
            view = evs[0].read("a")
            if kind is LibKind.SCATTER:
                view = view.reshape(-1)
            dist = self._layout(node, view.ndim)
            for r, ev in enumerate(evs):
                part = view[np.ix_(*self._owned(dist, view.shape, ev))]
                _write(ev, part)
                self._transfer(0, r, part.nbytes)
        elif kind in (LibKind.GATHER, LibKind.BLOCK_GATHER):
            root = evs[0]
            out = root.outs["out"]
            shape = tuple(len(r) for r in out.subset.evaluate(root.env))
            if node.attributes.get("reduce"):
                # partial results of a conflict-resolved map: summed in rank
                # order and consumed, so the next execution restarts at zero
                total = 0
                for r, ev in enumerate(evs):
                    m = ev.ins["a"]
                    key = tuple(slice(x.start, x.stop, x.step)
                                for x in m.subset.evaluate(ev.env))
                    part = np.array(ev.machine.store[m.container][key])
                    ev.machine.store[m.container][key] = 0
                    total = total + part
                    self._transfer(r, 0, part.nbytes)
                _write(root, total)
                return
            if kind is LibKind.GATHER:
                shape = (math.prod(shape),)
            full = np.zeros(shape, dtype=root.machine.store[out.container].dtype)
            dist = self._layout(node, len(shape))
            for r, ev in enumerate(evs):
                idx = self._owned(dist, shape, ev)
                part = ev.read("a")
                want = tuple(len(i) for i in idx)
                if part.size != math.prod(want):
                    raise SimError(f"{node.name}: rank {r} holds {part.shape}, "
                                   f"not the {want} block it is covered by")
                full[np.ix_(*idx)] = part.reshape(want)
                self._transfer(r, 0, part.nbytes)
            _write(root, full)
        else:
            raise SimError(f"unsupported collective '{kind.value}'")

    def _layout(self, node, ndim: int) -> Distribution:
        dist = Distribution.from_attr(node.attributes.get("dist"), ndim, self.grid)
        if dist.size != len(self.ranks):
            raise SimError(f"{node.name}: layout for {dist.size} ranks on a "
                           f"{len(self.ranks)}-rank grid")
        return dist

    def _owned(self, dist: Distribution, shape, ev) -> tuple[list[int], ...]:
        try:
            return dist.owned(shape, ev.machine.ctx.rank, ev.machine.sym)
        except ValueError as ex:
            raise SimError(f"{ev.node.name}: {ex}") from None

    def _transfer(self, src: int, dst: int, nbytes: int) -> None:
        if src != dst:
            self.ranks[src].machine.ctx.counters.comm_bytes += nbytes
            self.ranks[dst].machine.ctx.counters.comm_bytes += nbytes


def _write(ev: CommEvent, value: np.ndarray) -> None:
    """Store a collective's result into the ``out`` view, which must hold
    exactly as many elements."""
    m = ev.outs["out"]
    shape = tuple(len(r) for r in m.subset.evaluate(ev.env))
    if np.size(value) != math.prod(shape):
        raise SimError(
            f"{ev.node.name}: {m} on rank {ev.machine.ctx.rank} has shape {shape}, "
            f"not the {np.shape(value)} elements it is covered by")
    ev.write("out", np.reshape(value, shape))


def sim_run(g: Sdfg, grid: ProcessGrid, ctx: ExecContext,
            bindings: Sequence[dict] | None = None,
            rank_order: Sequence[int] | None = None) -> tuple[dict[str, np.ndarray], dict]:
    """Simulate the graph on ``grid``; returns rank 0's outputs and
    ``{"per_rank": {rank: counters}, "collective_ops": n}``."""
    return RankSim(g, grid, ctx, bindings, rank_order).run()
