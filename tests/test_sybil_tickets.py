"""Unit tests for ticket distribution.

:class:`TestLegacyIdentity` pins the level-sliced, block-evaluated
kernel byte for byte against the original per-level full-scan
distribution and its one-budget-per-doubling ladder, kept below as
oracles.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SybilDefenseError
from repro.generators import barabasi_albert, complete_graph, path_graph, star_graph
from repro.graph import Graph, bfs_distances
from repro.sybil import (
    GateKeeper,
    GateKeeperConfig,
    adaptive_ticket_count,
    distribute_tickets,
)
from repro.sybil.tickets import _LADDER_BLOCK, TicketPlan


class _LegacyPlan:
    """The original distribution: every level re-scans all forward edges."""

    def __init__(self, graph, source):
        n = graph.num_nodes
        self._n = n
        self._source = int(source)
        self._dist = bfs_distances(graph, source)
        reachable = self._dist >= 0
        self._max_level = int(self._dist[reachable].max()) if reachable.any() else 0
        src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
        dst = graph.indices
        forward = (self._dist[src] >= 0) & (self._dist[dst] == self._dist[src] + 1)
        self._fsrc = src[forward]
        self._fdst = dst[forward]
        self._forward_count = np.bincount(self._fsrc, minlength=n).astype(float)
        self._src_level = self._dist[self._fsrc]

    def run(self, num_tickets):
        tickets = np.zeros(self._n, dtype=float)
        tickets[self._source] = float(num_tickets)
        edge_share = np.zeros(self._fsrc.size, dtype=float)
        has_forward = self._forward_count > 0
        for level in range(self._max_level):
            at_level = self._src_level == level
            if not at_level.any():
                continue
            available = np.maximum(tickets - 1.0, 0.0)
            share = np.zeros(self._n, dtype=float)
            share[has_forward] = (
                available[has_forward] / self._forward_count[has_forward]
            )
            contribution = share[self._fsrc[at_level]]
            edge_share[at_level] = contribution
            np.add.at(tickets, self._fdst[at_level], contribution)
        positive = edge_share > 0
        edge_tickets = {
            (int(u), int(v)): float(s)
            for u, v, s in zip(
                self._fsrc[positive], self._fdst[positive], edge_share[positive]
            )
        }
        reached = np.flatnonzero(tickets >= 1.0).astype(np.int64)
        return float(num_tickets), tickets, reached, edge_tickets


def _legacy_ladder(graph, source, target, initial=2.0, max_doublings=40):
    """The original adaptive ladder: one full distribution per doubling."""
    plan = _LegacyPlan(graph, source)
    tickets = max(initial, 1.0)
    best = None
    for _ in range(max_doublings):
        best = plan.run(tickets)
        if best[2].size >= target:
            return best
        tickets *= 2.0
    raise SybilDefenseError(
        f"distributor {source} reached only {best[2].size} nodes "
        f"(target {target}) after {max_doublings} doublings"
    )


def _assert_identical(result, legacy):
    tickets_sent, node_tickets, reached, edge_tickets = legacy
    assert result.tickets_sent == tickets_sent
    assert result.node_tickets.dtype == node_tickets.dtype
    assert result.node_tickets.tobytes() == node_tickets.tobytes()
    assert result.reached.dtype == reached.dtype
    assert result.reached.tobytes() == reached.tobytes()
    assert result.edge_tickets == edge_tickets
    assert list(result.edge_tickets) == list(edge_tickets)


def _caterpillar(spine):
    """A path with one leaf per spine node: from node 0 each doubling
    carries tickets about one spine hop deeper, so the reach keeps growing
    and any ladder index can be targeted."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + i) for i in range(spine)]
    return Graph.from_edges(edges, num_nodes=2 * spine)


def _target_hit_at(graph, source, index):
    """A reach target whose ladder (initial 2) first meets it at ``index``."""
    plan = _LegacyPlan(graph, source)
    reach = [plan.run(2.0 * 2**k)[2].size for k in range(index + 1)]
    assert index == 0 or reach[index - 1] < reach[index]
    return reach[index]


class TestDistribution:
    def test_star_from_hub(self):
        result = distribute_tickets(star_graph(5), 0, 11)
        # hub keeps 1, each leaf gets 2 tickets
        assert result.node_tickets[0] == 11
        assert np.allclose(result.node_tickets[1:], 2.0)
        assert result.reached.size == 6

    def test_path_consumes_one_per_hop(self):
        result = distribute_tickets(path_graph(5), 0, 4)
        # tickets along the path: 4, 3, 2, 1, 0
        assert np.allclose(result.node_tickets, [4, 3, 2, 1, 0])
        assert result.reached.size == 4

    def test_ticket_conservation_bound(self):
        """Total tickets at any level never exceed what was sent."""
        g = barabasi_albert(200, 3, seed=0)
        result = distribute_tickets(g, 0, 500)
        from repro.graph import bfs_distances

        dist = bfs_distances(g, 0)
        for level in range(1, int(dist.max()) + 1):
            level_total = result.node_tickets[dist == level].sum()
            assert level_total <= 500 + 1e-6

    def test_edge_tickets_flow_forward(self):
        g = barabasi_albert(100, 3, seed=1)
        result = distribute_tickets(g, 0, 300)
        from repro.graph import bfs_distances

        dist = bfs_distances(g, 0)
        for (u, v), amount in result.edge_tickets.items():
            assert dist[v] == dist[u] + 1
            assert amount > 0

    def test_node_tickets_match_incoming_edges(self):
        g = barabasi_albert(100, 3, seed=2)
        result = distribute_tickets(g, 0, 300)
        incoming = np.zeros(g.num_nodes)
        for (_, v), amount in result.edge_tickets.items():
            incoming[v] += amount
        mask = np.arange(g.num_nodes) != 0
        assert np.allclose(result.node_tickets[mask], incoming[mask])

    def test_fewer_tickets_reach_fewer_nodes(self):
        g = barabasi_albert(300, 3, seed=3)
        small = distribute_tickets(g, 0, 10)
        large = distribute_tickets(g, 0, 1000)
        assert small.reached.size < large.reached.size

    def test_below_one_ticket_rejected(self, triangle):
        with pytest.raises(SybilDefenseError):
            distribute_tickets(triangle, 0, 0.5)

    def test_complete_graph_one_level(self):
        result = distribute_tickets(complete_graph(5), 0, 9)
        assert np.allclose(result.node_tickets[1:], 2.0)


class TestAdaptive:
    def test_reaches_target(self):
        g = barabasi_albert(400, 3, seed=4)
        result = adaptive_ticket_count(g, 0, target_reached=200)
        assert result.reached.size >= 200

    def test_unreachable_target_raises(self):
        g = Graph.from_edges([(0, 1)], num_nodes=5)  # mostly disconnected
        for max_doublings in (1, 5, _LADDER_BLOCK, _LADDER_BLOCK + 1, 40):
            with pytest.raises(SybilDefenseError) as raised:
                adaptive_ticket_count(
                    g, 0, target_reached=4, max_doublings=max_doublings
                )
            with pytest.raises(SybilDefenseError) as legacy:
                _legacy_ladder(g, 0, 4, max_doublings=max_doublings)
            assert str(raised.value) == str(legacy.value)

    @pytest.mark.parametrize("max_doublings", [0, -1])
    def test_max_doublings_must_be_positive(self, max_doublings):
        g = barabasi_albert(50, 2, seed=0)
        with pytest.raises(SybilDefenseError, match="max_doublings"):
            adaptive_ticket_count(g, 0, target_reached=10, max_doublings=max_doublings)

    def test_invalid_target(self, triangle):
        with pytest.raises(SybilDefenseError):
            adaptive_ticket_count(triangle, 0, target_reached=0)

    def test_plan_reuse_matches_fresh_run(self):
        g = barabasi_albert(150, 3, seed=5)
        plan = TicketPlan(g, 0)
        for budget in (64, 1, 1e6, 64):  # earlier runs leave no state behind
            assert (
                plan.run(budget).node_tickets.tobytes()
                == distribute_tickets(g, 0, budget).node_tickets.tobytes()
            )


_GRAPHS = {
    "star": lambda: star_graph(5),
    "path": lambda: path_graph(12),
    "complete": lambda: complete_graph(6),
    "ba": lambda: barabasi_albert(200, 3, seed=7),
    "caterpillar": lambda: _caterpillar(24),
    "disconnected": lambda: Graph.from_edges(
        [(0, 1), (1, 2), (2, 0), (2, 3), (5, 6)], num_nodes=8
    ),
    "isolated_source": lambda: Graph.from_edges([(1, 2)], num_nodes=4),
}


class TestLegacyIdentity:
    """Byte identity with the per-level full-scan kernel and its ladder."""

    @pytest.mark.parametrize("budget", [1, 2, 7.5, 64, 1e6])
    @pytest.mark.parametrize("name", sorted(_GRAPHS))
    def test_run_matches_oracle(self, name, budget):
        g = _GRAPHS[name]()
        for source in (0, g.num_nodes - 1):
            _assert_identical(
                TicketPlan(g, source).run(budget), _LegacyPlan(g, source).run(budget)
            )

    @pytest.mark.parametrize(
        "index",
        [0, 1, _LADDER_BLOCK - 2, _LADDER_BLOCK - 1, _LADDER_BLOCK,
         _LADDER_BLOCK + 1, 2 * _LADDER_BLOCK],
        ids=lambda k: f"hit{k}",
    )
    def test_ladder_hit_index_matches_oracle(self, index):
        """The target is met first at ladder index ``index``: on the first
        budget, on each side of a block boundary, and blocks later."""
        g = _caterpillar(3 * _LADDER_BLOCK + 8)
        target = _target_hit_at(g, 0, index)
        legacy = _legacy_ladder(g, 0, target)
        assert legacy[0] == 2.0 * 2**index
        _assert_identical(adaptive_ticket_count(g, 0, target), legacy)

    @pytest.mark.parametrize("max_doublings", [1, _LADDER_BLOCK, _LADDER_BLOCK + 3])
    def test_ladder_cut_short_matches_oracle(self, max_doublings):
        """A ladder shorter than the needed index fails with the same
        message; one that just fits succeeds identically."""
        g = _caterpillar(3 * _LADDER_BLOCK + 8)
        target = _target_hit_at(g, 0, max_doublings)
        with pytest.raises(SybilDefenseError) as raised:
            adaptive_ticket_count(g, 0, target, max_doublings=max_doublings)
        with pytest.raises(SybilDefenseError) as legacy:
            _legacy_ladder(g, 0, target, max_doublings=max_doublings)
        assert str(raised.value) == str(legacy.value)
        _assert_identical(
            adaptive_ticket_count(g, 0, target, max_doublings=max_doublings + 1),
            _legacy_ladder(g, 0, target, max_doublings=max_doublings + 1),
        )

    def test_slow_analog_hits_past_first_block(self, tiny_physics):
        """On a slow-mixing analog some sources need more doublings than
        one block holds; every such source matches the oracle.

        The sources are chosen by the oracle itself (the last budget of
        the first block misses the target), not by walk-sampled
        distributors, so the past-block coverage does not hang on a
        seed."""
        target = max(2, int(0.5 * tiny_physics.num_nodes))
        last_in_block = 2.0 * 2 ** (_LADDER_BLOCK - 1)
        sources = [
            s
            for s in range(tiny_physics.num_nodes)
            if _LegacyPlan(tiny_physics, s).run(last_in_block)[2].size < target
        ]
        past_block = 0
        for source in sources:
            legacy = _legacy_ladder(tiny_physics, source, target)
            past_block += legacy[0] > last_in_block
            _assert_identical(
                adaptive_ticket_count(tiny_physics, source, target), legacy
            )
        assert past_block > 0
        assert past_block == len(sources)

    @pytest.mark.parametrize("analog", ["tiny_wiki", "tiny_physics"])
    def test_gatekeeper_reach_counts_match_oracle(self, analog, request):
        graph = request.getfixturevalue(analog)
        gk = GateKeeper(graph, GateKeeperConfig(num_distributors=30, seed=3))
        result = gk.run(0)
        target = max(2, int(0.5 * graph.num_nodes))
        expected = np.zeros(graph.num_nodes, dtype=np.int64)
        for source in result.distributors.tolist():
            expected[_legacy_ladder(graph, source, target)[2]] += 1
        assert result.reach_counts.tobytes() == expected.tobytes()


class TestSybilLeakage:
    def test_tickets_into_sybil_region_bounded(self):
        """The defining property: tickets crossing into the Sybil region
        are bounded by what the attack-edge cut carries."""
        from repro.sybil import standard_attack

        honest = barabasi_albert(300, 4, seed=6)
        attack = standard_attack(honest, 5, seed=6)
        result = distribute_tickets(attack.graph, 0, 2 * attack.graph.num_nodes)
        leaked = sum(
            amount
            for (u, v), amount in result.edge_tickets.items()
            if attack.is_sybil(int(v)) and not attack.is_sybil(int(u))
        )
        total = result.tickets_sent
        # 5 attack edges out of ~1200: leakage should be a tiny fraction
        assert leaked < 0.1 * total
