"""Level-based ticket distribution, the primitive shared by GateKeeper
and SumUp.

A distributor starts with ``t`` tickets at BFS level 0.  Each node that
receives tickets consumes one (admitting itself / becoming eligible) and
splits the rest evenly over its *forward* links — edges to neighbors one
BFS level farther from the distributor.  Tickets that reach a node with
no forward links are dropped.  Because the number of edges crossing into
the Sybil region is bounded by the attack-edge count, only O(1) tickets
per attack edge can ever leak, which is the source of both protocols'
per-attack-edge guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.errors import SybilDefenseError
from repro.graph.core import Graph
from repro.graph.traversal import bfs_distances, bfs_distances_block

__all__ = [
    "TicketDistribution",
    "TicketPlan",
    "ticket_plans",
    "distribute_tickets",
    "adaptive_ticket_count",
]

# Budgets of the doubling ladder propagated together in one level sweep.
_LADDER_BLOCK = 16


@dataclass(frozen=True)
class TicketDistribution:
    """Outcome of one ticket distribution run.

    Attributes
    ----------
    source:
        The distributor node.
    tickets_sent:
        The initial ticket count ``t``.
    node_tickets:
        Tickets received per node (the distributor counts its own ``t``).
    reached:
        Node ids that received at least one ticket.
    edge_tickets:
        Mapping ``(u, v) -> tickets`` forwarded along each directed
        forward edge; SumUp turns these into link capacities.
    """

    source: int
    tickets_sent: float
    node_tickets: np.ndarray
    reached: np.ndarray
    edge_tickets: dict[tuple[int, int], float]


class TicketPlan:
    """The BFS scaffolding for repeated distributions from one source.

    GateKeeper's adaptive doubling re-runs the distribution with larger
    budgets; the BFS levels and forward-edge classification only depend
    on (graph, source), so they are computed once here and reused.

    The plan also lays the distribution out level by level.  Reachable
    nodes get *positions* in level order (ascending id within a level),
    so the destinations of level ``L``'s forward edges are exactly the
    contiguous block of level ``L + 1`` positions.  Forward edges are
    stably sorted by source level, so each level's edges form one slice
    that keeps CSR order.  A distribution then touches each forward edge
    once, and per-destination sums accumulate in CSR edge order — the
    order of a sequential ``np.add.at`` — which keeps every output
    byte-identical across budgets and block sizes.
    """

    def __init__(
        self, graph: Graph, source: int, distances: np.ndarray | None = None
    ) -> None:
        graph._check_node(source)
        self._graph = graph
        self._source = int(source)
        n = graph.num_nodes
        if distances is None:
            distances = bfs_distances(graph, source)
        elif distances.shape != (n,):
            raise SybilDefenseError(
                f"precomputed distances must have shape ({n},)"
            )
        self._dist = distances
        src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
        dst = graph.indices
        forward = (distances[src] >= 0) & (distances[dst] == distances[src] + 1)
        self._fsrc = src[forward]
        self._fdst = dst[forward]

        reachable = np.flatnonzero(distances >= 0)
        node_levels = distances[reachable]
        self._nodes = reachable[np.argsort(node_levels, kind="stable")]
        # level L occupies positions [_node_offsets[L], _node_offsets[L + 1])
        self._node_offsets = np.concatenate(([0], np.cumsum(np.bincount(node_levels))))
        position = np.empty(n, dtype=np.int64)
        position[self._nodes] = np.arange(self._nodes.size)
        # forward links per position; a node without any forwards nothing,
        # so its divisor is never used and 1 keeps 0/0 out of the sweep
        fanout = np.bincount(position[self._fsrc], minlength=self._nodes.size)
        self._fanout = np.maximum(fanout, 1).astype(float)

        edge_order = np.argsort(distances[self._fsrc], kind="stable")
        edge_levels = distances[self._fsrc[edge_order]]
        # level L's forward edges are [_edge_offsets[L], _edge_offsets[L + 1])
        self._edge_offsets = np.concatenate(
            ([0], np.cumsum(np.bincount(edge_levels, minlength=1)))
        )
        # each edge's source and destination index within its level's block
        local = np.int32 if n <= np.iinfo(np.int32).max else np.int64
        self._edge_src = (
            position[self._fsrc[edge_order]] - self._node_offsets[edge_levels]
        ).astype(local)
        self._edge_dst = (
            position[self._fdst[edge_order]] - self._node_offsets[edge_levels + 1]
        ).astype(local)

    @property
    def source(self) -> int:
        """The distributor node."""
        return self._source

    @property
    def distances(self) -> np.ndarray:
        """BFS hop distances from the distributor (-1 for unreachable).

        Exposed so callers that need the same levels (SumUp's capacity
        orientation) reuse this plan's BFS instead of re-running it.
        """
        return self._dist

    def run(self, num_tickets: float) -> TicketDistribution:
        """Distribute ``num_tickets`` tickets level by level."""
        if num_tickets < 1:
            raise SybilDefenseError("num_tickets must be at least 1")
        block = self._propagate(np.array([float(num_tickets)]))
        return self._distribution(num_tickets, block[0])

    def _propagate(self, budgets: np.ndarray) -> np.ndarray:
        """Node tickets for a block of budgets, one row per budget.

        Columns are level-order positions.  Each level's sources hold
        their final tickets before the level runs (they only receive from
        the level above), and its destinations hold none yet, so their
        totals are one ``bincount`` over the level's edge slice.
        """
        k = budgets.size
        telemetry.current().count("sybil.tickets.budgets", k)
        tickets = np.zeros((k, self._nodes.size))
        tickets[:, 0] = budgets  # the distributor is the only level-0 node
        rows = np.arange(k)[:, None]
        offsets = self._node_offsets
        for level in range(self._edge_offsets.size - 1):
            lo, hi = self._edge_offsets[level], self._edge_offsets[level + 1]
            if lo == hi:
                continue
            here, below, end = offsets[level], offsets[level + 1], offsets[level + 2]
            # one ticket consumed per node, the rest split over forward links
            per_link = (
                np.maximum(tickets[:, here:below] - 1.0, 0.0) / self._fanout[here:below]
            )
            share = per_link[:, self._edge_src[lo:hi]]
            width = end - below
            bins = (self._edge_dst[lo:hi] + rows * width).ravel()
            tickets[:, below:end] = np.bincount(
                bins, weights=share.ravel(), minlength=k * width
            ).reshape(k, width)
        return tickets

    def _distribution(self, num_tickets: float, row: np.ndarray) -> TicketDistribution:
        """Package one budget's level-order ticket row as a distribution.

        The row is scattered into a fresh node-indexed array, so the
        result holds no view into the propagated block.  Edge shares are
        recomputed from the final node tickets with the propagation's own
        arithmetic; a node's tickets never change after its level runs.
        """
        telemetry.current().count("sybil.tickets.distributions")
        tickets = np.zeros(self._graph.num_nodes)
        tickets[self._nodes] = row
        per_link = np.zeros(self._graph.num_nodes)
        per_link[self._nodes] = np.maximum(row - 1.0, 0.0) / self._fanout
        share = per_link[self._fsrc]
        positive = share > 0
        edge_tickets = dict(
            zip(
                zip(self._fsrc[positive].tolist(), self._fdst[positive].tolist()),
                share[positive].tolist(),
            )
        )
        return TicketDistribution(
            source=self._source,
            tickets_sent=float(num_tickets),
            node_tickets=tickets,
            reached=np.flatnonzero(tickets >= 1.0).astype(np.int64),
            edge_tickets=edge_tickets,
        )


def ticket_plans(
    graph: Graph,
    sources: np.ndarray | list[int],
    chunk_size: int | None = None,
    workers: int | None = None,
) -> list[TicketPlan]:
    """Build one :class:`TicketPlan` per source with one block BFS.

    GateKeeper runs the distribution from ~99 distributors per
    controller; computing every distributor's BFS levels through
    :func:`repro.graph.bfs_distances_block` amortizes the frontier
    bookkeeping across the whole distributor block.  Each returned plan
    is identical to ``TicketPlan(graph, source)`` (the block rows are
    byte-identical to per-source BFS).
    """
    chosen = np.asarray(list(sources), dtype=np.int64)
    if chosen.size == 0:
        raise SybilDefenseError("at least one source is required")
    rows = bfs_distances_block(
        graph, chosen, chunk_size=chunk_size, workers=workers
    )
    return [
        TicketPlan(graph, int(source), distances=row)
        for source, row in zip(chosen, rows)
    ]


def distribute_tickets(
    graph: Graph, source: int, num_tickets: float
) -> TicketDistribution:
    """Run the GateKeeper/SumUp ticket distribution from ``source``."""
    return TicketPlan(graph, source).run(num_tickets)


def adaptive_ticket_count(
    graph: Graph,
    source: int,
    target_reached: int,
    initial: float = 2.0,
    max_doublings: int = 40,
    plan: TicketPlan | None = None,
) -> TicketDistribution:
    """Double the ticket count until >= ``target_reached`` nodes are reached.

    This is GateKeeper's adaptive estimation of ``t``: the protocol does
    not know n, so each distributor doubles its ticket budget until the
    reach target is hit.  Raises :class:`SybilDefenseError` if the target
    is unreachable (e.g. disconnected graph).  ``plan`` supplies a
    prebuilt :class:`TicketPlan` for ``source`` (e.g. one of a
    :func:`ticket_plans` block) so repeated doublings and many
    distributors share their BFS scaffolding.

    The ladder ``initial * 2**k`` for ``k < max_doublings`` is propagated
    ``_LADDER_BLOCK`` budgets per level sweep, and the first budget whose
    reach meets the target wins — the budget a one-at-a-time doubling
    loop would stop at, with a byte-identical distribution.  Only the
    winning budget is packaged as a :class:`TicketDistribution`.
    """
    if target_reached < 1:
        raise SybilDefenseError("target_reached must be positive")
    if max_doublings < 1:
        raise SybilDefenseError("max_doublings must be at least 1")
    if plan is None:
        plan = TicketPlan(graph, source)
    elif plan.source != int(source):
        raise SybilDefenseError(
            f"plan was built for source {plan.source}, not {source}"
        )
    first = float(max(initial, 1.0))
    for start in range(0, max_doublings, _LADDER_BLOCK):
        # t0 * 2**k is exact, so these equal repeated doubling bit for bit
        budgets = np.ldexp(
            first, np.arange(start, min(start + _LADDER_BLOCK, max_doublings))
        )
        block = plan._propagate(budgets)
        reach = np.count_nonzero(block >= 1.0, axis=1)
        hits = np.flatnonzero(reach >= target_reached)
        if hits.size:
            return plan._distribution(budgets[hits[0]], block[hits[0]])
    raise SybilDefenseError(
        f"distributor {source} reached only {reach[-1]} nodes "
        f"(target {target_reached}) after {max_doublings} doublings"
    )
