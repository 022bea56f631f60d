"""Integration tests for MultiPathRB (Theorem 4 behaviour)."""

from __future__ import annotations

import pytest

from repro.adversary.placement import random_fault_selection
from repro.core.multipath import MultiPathConfig, MultiPathNode
from repro.sim.builder import build_simulation, run_scenario
from repro.sim.config import FaultPlan, ScenarioConfig
from repro.topology.deployment import grid_jittered_deployment, uniform_deployment


@pytest.fixture(scope="module")
def small_grid():
    """A 6x6-unit grid (49 nodes): small enough for MultiPathRB to finish fast."""
    return grid_jittered_deployment(6, 6, spacing=1.0)


@pytest.fixture(scope="module")
def dense_small():
    return uniform_deployment(90, 6, 6, rng=13)


def mp_config(**kwargs) -> ScenarioConfig:
    defaults = dict(protocol="multipath", radius=3.0, message_length=2, multipath_tolerance=1, seed=3)
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestFaultFreeDelivery:
    def test_full_delivery_on_grid(self, small_grid):
        result = run_scenario(small_grid, mp_config())
        assert result.terminated
        assert result.completion_fraction == 1.0
        assert result.correctness_fraction == 1.0

    def test_full_delivery_random_deployment(self, dense_small):
        result = run_scenario(dense_small, mp_config(seed=5))
        assert result.completion_fraction == 1.0
        assert result.correctness_fraction == 1.0

    def test_higher_tolerance_still_delivers_when_dense(self, dense_small):
        result = run_scenario(dense_small, mp_config(multipath_tolerance=2, seed=5))
        assert result.completion_fraction > 0.9
        assert result.correctness_fraction == 1.0

    def test_multipath_much_slower_than_neighborwatch(self, small_grid):
        mp = run_scenario(small_grid, mp_config())
        nw = run_scenario(small_grid, mp_config().with_protocol("neighborwatch"))
        assert mp.completion_rounds > 3 * nw.completion_rounds


class TestLyingResilience:
    def test_scattered_liars_below_threshold_cannot_corrupt(self, dense_small):
        """With fewer than t liars per neighborhood, authenticity holds."""
        liars = random_fault_selection(dense_small.num_nodes, 2, exclude=[dense_small.source_index], rng=4)
        result = run_scenario(
            dense_small, mp_config(multipath_tolerance=2, seed=5), FaultPlan(liars=tuple(liars))
        )
        assert result.correctness_fraction == 1.0

    def test_tolerance_zero_is_fragile_against_liars(self, dense_small):
        """With t = 0 a single liar can poison its neighbors (sanity check that
        the tolerance parameter is actually what provides the protection)."""
        liars = random_fault_selection(dense_small.num_nodes, 4, exclude=[dense_small.source_index], rng=4)
        result = run_scenario(
            dense_small, mp_config(multipath_tolerance=0, seed=5), FaultPlan(liars=tuple(liars))
        )
        assert result.correctness_fraction < 1.0


class TestJammingResilience:
    def test_jamming_delays_but_does_not_corrupt(self, small_grid):
        jammers = random_fault_selection(small_grid.num_nodes, 4, exclude=[small_grid.source_index], rng=6)
        clean = run_scenario(small_grid, mp_config())
        jammed = run_scenario(
            small_grid,
            mp_config(),
            FaultPlan(jammers=tuple(jammers), jammer_budget=10, jam_probability=0.2),
        )
        assert jammed.correctness_fraction == 1.0
        # The jammed run has four fewer honest devices (the jammers), so its
        # last honest delivery may land slightly earlier; allow one schedule
        # cycle of slack around the "jamming never speeds things up" shape.
        cycle = jammed.metadata["rounds_per_cycle"]
        assert jammed.completion_rounds >= clean.completion_rounds - cycle


class TestProtocolObjectBehaviour:
    def test_requires_node_schedule(self):
        import numpy as np

        from repro.core.protocol import NodeContext
        from repro.core.regions import SquareGrid
        from repro.core.schedule import SquareSchedule

        node = MultiPathNode()
        positions = np.array([[0.0, 0.0], [1.0, 0.0]])
        sched = SquareSchedule(SquareGrid(2, 2, 1.0), 2.0, positions, 0)
        with pytest.raises(TypeError):
            node.setup(
                NodeContext(node_id=1, position=(1.0, 0.0), radius=2.0, schedule=sched, message_length=2)
            )

    def test_source_committed_from_start(self, small_grid):
        cfg = mp_config()
        sim = build_simulation(small_grid, cfg)
        source = sim.nodes[small_grid.source_index].protocol
        assert source.delivered
        assert source.delivered_message == cfg.message_bits

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MultiPathConfig(tolerance=-1)

    def test_committed_bits_match_message(self, small_grid):
        cfg = mp_config()
        sim = build_simulation(small_grid, cfg)
        sim.run(max_rounds=200_000)
        message = cfg.message_bits
        for node in sim.nodes:
            proto = node.protocol
            if isinstance(proto, MultiPathNode) and node.honest:
                for index, value in proto.committed.items():
                    assert value == message[index - 1]

    def test_neighbors_of_source_commit_directly(self, small_grid):
        cfg = mp_config()
        sim = build_simulation(small_grid, cfg)
        # Run just long enough for the source's first SOURCE control frame to
        # stream out (one bit per cycle), but far too short for the COMMIT /
        # HEARD voting chain to have reached anyone beyond the source's range.
        from repro.core.messages import ControlCodec

        frame_bits = ControlCodec(cfg.message_length, sim.schedule.num_slots).frame_bits
        sim.run_slots(sim.schedule.num_slots * (frame_bits + 3))
        src_pos = small_grid.positions[small_grid.source_index]
        committed_nodes = [
            n.node_id
            for n in sim.nodes
            if isinstance(n.protocol, MultiPathNode)
            and n.node_id != small_grid.source_index
            and n.protocol.committed
        ]
        assert committed_nodes, "some source neighbors should have committed bits already"
        for node_id in committed_nodes:
            dx = abs(small_grid.positions[node_id][0] - src_pos[0])
            dy = abs(small_grid.positions[node_id][1] - src_pos[1])
            assert max(dx, dy) <= 2 * cfg.radius


class TestSetupAtScale:
    def test_peers_and_causes_match_the_scan_at_2400_nodes(self):
        """Every device's peers (R) and cause owners (2R) at 2,400 nodes.

        The oracle scans the whole map for each device: the devices within
        reach under the dense distance expression, counted per slot; a slot
        names the device that alone holds it in reach.
        """
        import numpy as np

        from repro.experiments.factories import UniformDeploymentFactory

        side = (2400 / 0.125) ** 0.5
        deployment = UniformDeploymentFactory(2400, side, side)(5)
        config = ScenarioConfig(
            protocol="multipath", radius=6.0, message_length=4, seed=5, capture_probability=0.3
        )
        sim = build_simulation(deployment, config)
        schedule = sim.schedule
        positions = deployment.positions
        slots = np.array([schedule.slot_of_node(i) for i in range(2400)])

        def scan(node, reach):
            diff = positions - positions[node]
            near = np.flatnonzero(np.sqrt(np.sum(diff**2, axis=-1)) <= reach)
            held = np.bincount(slots[near], minlength=schedule.num_slots)
            owners = {int(slots[j]): int(j) for j in near if held[slots[j]] == 1}
            return owners, int(np.count_nonzero(held > 1))

        ambiguous_causes = 0
        for node in sim.nodes:
            proto = node.protocol
            peers, _ = scan(node.node_id, config.radius)
            peers.pop(schedule.slot_of_node(node.node_id), None)
            assert proto._peer_of_slot == peers
            assert list(proto._receivers) == sorted(peers)
            causes, ambiguous = scan(node.node_id, 2.0 * config.radius + 1e-9)
            for slot in range(schedule.num_slots):
                assert proto._resolve_cause(slot) == causes.get(slot)
            ambiguous_causes += ambiguous
        # Two holders of one slot can both lie within 2R (they are only 3R
        # apart): those causes name no device.
        assert ambiguous_causes > 0
