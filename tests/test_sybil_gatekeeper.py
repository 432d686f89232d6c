"""Unit tests for GateKeeper admission control."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import telemetry
from repro.errors import SybilDefenseError
from repro.generators import barabasi_albert
from repro.graph import Graph
from repro.sybil import GateKeeper, GateKeeperConfig, standard_attack
from repro.sybil.tickets import _LADDER_BLOCK


@pytest.fixture(scope="module")
def small_attack():
    honest = barabasi_albert(400, 4, seed=0)
    return standard_attack(honest, 8, seed=0)


class TestConfig:
    def test_defaults(self):
        cfg = GateKeeperConfig()
        assert cfg.num_distributors == 99
        assert cfg.admission_factor == 0.2

    def test_invalid_distributors(self):
        with pytest.raises(SybilDefenseError):
            GateKeeperConfig(num_distributors=0)

    def test_invalid_admission_factor(self):
        with pytest.raises(SybilDefenseError):
            GateKeeperConfig(admission_factor=0.0)
        with pytest.raises(SybilDefenseError):
            GateKeeperConfig(admission_factor=1.5)

    def test_invalid_reach_fraction(self):
        with pytest.raises(SybilDefenseError):
            GateKeeperConfig(reach_fraction=0.0)


class TestDistributorSelection:
    def test_count(self, small_attack):
        gk = GateKeeper(small_attack.graph, GateKeeperConfig(num_distributors=20))
        distributors = gk.select_distributors(0)
        assert distributors.size == 20

    def test_deterministic_per_controller(self, small_attack):
        gk = GateKeeper(small_attack.graph, GateKeeperConfig(num_distributors=10))
        assert np.array_equal(gk.select_distributors(3), gk.select_distributors(3))

    def test_mostly_honest_distributors(self, small_attack):
        """Walk-sampled distributors land in the Sybil region only in
        proportion to its (small) stationary mass through g edges."""
        gk = GateKeeper(small_attack.graph, GateKeeperConfig(num_distributors=50))
        distributors = gk.select_distributors(0)
        sybil_count = int(np.count_nonzero(distributors >= small_attack.num_honest))
        assert sybil_count < 15

    def test_invalid_controller(self, small_attack):
        gk = GateKeeper(small_attack.graph)
        from repro.errors import NodeNotFoundError

        with pytest.raises(NodeNotFoundError):
            gk.select_distributors(10**6)


class TestAdmission:
    def test_run_admits_most_honest(self, small_attack):
        gk = GateKeeper(
            small_attack.graph,
            GateKeeperConfig(num_distributors=30, admission_factor=0.2, seed=1),
        )
        result = gk.run(0)
        honest_frac, per_edge = small_attack.evaluate_accepted(result.admitted)
        assert honest_frac > 0.8
        assert per_edge < 20

    def test_tighter_factor_admits_fewer(self, small_attack):
        gk = GateKeeper(
            small_attack.graph,
            GateKeeperConfig(num_distributors=30, admission_factor=0.1, seed=2),
        )
        result = gk.run(0)
        loose = result.admitted_at(0.1).size
        tight = result.admitted_at(0.5).size
        assert tight <= loose

    def test_rethreshold_consistent_with_run(self, small_attack):
        cfg = GateKeeperConfig(num_distributors=25, admission_factor=0.3, seed=3)
        gk = GateKeeper(small_attack.graph, cfg)
        result = gk.run(0)
        assert np.array_equal(result.admitted, result.admitted_at(0.3))

    @pytest.mark.parametrize("factor", [-1.0, 0.0, 1.5])
    def test_rethreshold_rejects_factor_outside_unit_interval(
        self, small_attack, factor
    ):
        gk = GateKeeper(small_attack.graph, GateKeeperConfig(num_distributors=10))
        result = gk.run(0)
        with pytest.raises(SybilDefenseError, match=r"\(0, 1\]"):
            result.admitted_at(factor)
        assert result.admitted_at(1.0).size <= result.admitted_at(0.1).size

    def test_reach_counts_bounded_by_distributors(self, small_attack):
        gk = GateKeeper(small_attack.graph, GateKeeperConfig(num_distributors=15))
        result = gk.run(0)
        assert result.reach_counts.max() <= 15
        assert result.reach_counts.min() >= 0

    def test_tiny_graph_rejected(self):
        with pytest.raises(SybilDefenseError):
            GateKeeper(Graph.from_edges([(0, 1)]))

    def test_sybil_bound_scales_with_attack_edges(self):
        """More attack edges admit proportionally more Sybils, i.e. the
        per-edge bound stays roughly flat (GateKeeper's guarantee)."""
        honest = barabasi_albert(400, 4, seed=4)
        per_edge_values = []
        for g_edges in (4, 16):
            attack = standard_attack(honest, g_edges, seed=5)
            gk = GateKeeper(
                attack.graph,
                GateKeeperConfig(num_distributors=30, admission_factor=0.2, seed=5),
            )
            _, per_edge = attack.evaluate_accepted(gk.run(0).admitted)
            per_edge_values.append(per_edge)
        # per-edge admission should not explode when g quadruples
        assert per_edge_values[1] < 8 * max(per_edge_values[0], 0.5)


class TestTelemetry:
    def test_run_span_and_ticket_counters(self, small_attack):
        """One span per run; one distribution per cache miss; budgets are
        propagated a whole block at a time, so they cover every doubling
        up to the hit, rounded up to the block."""
        gk = GateKeeper(small_attack.graph, GateKeeperConfig(num_distributors=20))
        with telemetry.activate() as tel:
            first = gk.run(0)
            misses = np.unique(first.distributors).size
            assert tel.counter("sybil.tickets.distributions") == misses
            second = gk.run(1)
        assert tel.spans["sybil.gatekeeper.run"].count == 2
        cached = gk._distribution_cache
        assert tel.counter("sybil.tickets.distributions") == len(cached)
        assert len(cached) == np.unique(
            np.concatenate([first.distributors, second.distributors])
        ).size
        doublings = [
            int(math.log2(d.tickets_sent / 2.0)) + 1 for d in cached.values()
        ]
        blocks = sum(-(-k // _LADDER_BLOCK) for k in doublings)
        assert tel.counter("sybil.tickets.budgets") == blocks * _LADDER_BLOCK
        assert tel.counter("sybil.tickets.budgets") >= sum(doublings)
