"""Tests for the epidemic baseline and the adversary models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.budget import BroadcastBudget
from repro.adversary.crash import crashes_for_survivor_count, crashes_for_target_density, survivors
from repro.adversary.jammer import ContinuousJammer, VetoJammer
from repro.adversary.liar import (
    fake_message_for,
    lying_epidemic_node,
    lying_multipath_node,
    lying_neighborwatch_node,
    lying_node_factory,
)
from repro.adversary.placement import (
    faults_in_neighborhood,
    fraction_to_count,
    max_faults_per_neighborhood,
    random_fault_selection,
)
from repro.adversary.spoofer import BitFlipSpoofer, ScriptedAdversary
from repro.core.epidemic import EpidemicConfig, EpidemicNode
from repro.core.messages import FrameKind
from repro.core.multipath import MultiPathNode
from repro.core.neighborwatch import NeighborWatchNode
from repro.adversary.placement import faults_in_square  # noqa: F401  (re-exported helper)
from repro.sim.builder import run_scenario
from repro.sim.config import FaultPlan, ScenarioConfig
from repro.topology.deployment import grid_jittered_deployment, uniform_deployment


@pytest.fixture(scope="module")
def grid_dep():
    return grid_jittered_deployment(8, 8, spacing=1.0)


def epi_config(**kwargs) -> ScenarioConfig:
    defaults = dict(protocol="epidemic", radius=3.0, message_length=3, seed=3)
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestEpidemicBaseline:
    def test_full_delivery_without_faults(self, grid_dep):
        result = run_scenario(grid_dep, epi_config())
        assert result.terminated
        assert result.completion_fraction == 1.0
        assert result.correctness_fraction == 1.0

    def test_much_faster_than_neighborwatch(self, grid_dep):
        epidemic = run_scenario(grid_dep, epi_config())
        nw = run_scenario(grid_dep, epi_config().with_protocol("neighborwatch"))
        assert nw.completion_rounds > 2 * epidemic.completion_rounds

    def test_single_liar_poisons_its_region(self, grid_dep):
        """The baseline offers no authenticity whatsoever."""
        src = grid_dep.source_index
        # pick a node far from the source
        dist = np.abs(grid_dep.positions - grid_dep.positions[src]).max(axis=1)
        liar = int(np.argmax(dist))
        result = run_scenario(grid_dep, epi_config(), FaultPlan(liars=(liar,)))
        assert result.correctness_fraction < 1.0

    def test_jammers_break_flooding(self, grid_dep):
        """A handful of jamming devices disrupt the unprotected flood."""
        jammers = random_fault_selection(grid_dep.num_nodes, 10, exclude=[grid_dep.source_index], rng=5)
        clean = run_scenario(grid_dep, epi_config())
        jammed = run_scenario(
            grid_dep,
            epi_config(),
            FaultPlan(jammers=tuple(jammers), jammer_budget=50, jam_probability=1.0),
        )
        assert jammed.completion_fraction <= clean.completion_fraction

    def test_rebroadcast_config_validation(self):
        with pytest.raises(ValueError):
            EpidemicConfig(rebroadcast_count=0)

    def test_requires_single_phase_schedule(self):
        import numpy as np

        from repro.core.protocol import NodeContext
        from repro.core.schedule import NodeSchedule

        node = EpidemicNode()
        sched = NodeSchedule(np.array([[0.0, 0.0], [1.0, 0.0]]), 2.0, 0, phases_per_slot=6)
        with pytest.raises(ValueError):
            node.setup(
                NodeContext(node_id=1, position=(1.0, 0.0), radius=2.0, schedule=sched, message_length=2)
            )

    def test_interests_are_the_neighbor_slot_row(self):
        # The row holds the device's own slot, every listening slot and the
        # source slot, ascending and distinct: the sorted set the
        # interests used to be built as.
        from repro.sim.builder import build_simulation

        dep = uniform_deployment(80, 10, 10, rng=3)
        sim = build_simulation(dep, epi_config(radius=2.0))
        schedule = sim.schedule
        for node in sim.nodes:
            own = schedule.slot_of_node(node.node_id)
            row = schedule.neighbor_slots_of_node(node.node_id)
            interests = list(node.protocol.interests())
            assert interests == row == sorted({own, 0, *row})

    def test_ignores_malformed_payload(self):
        import numpy as np

        from repro.core.messages import Frame
        from repro.core.protocol import ChannelState, NodeContext, Observation
        from repro.core.schedule import NodeSchedule

        node = EpidemicNode()
        sched = NodeSchedule(np.array([[0.0, 0.0], [1.0, 0.0]]), 2.0, 0, phases_per_slot=1)
        node.setup(
            NodeContext(node_id=1, position=(1.0, 0.0), radius=2.0, schedule=sched, message_length=3)
        )
        bad_length = Observation(ChannelState.MESSAGE, Frame(FrameKind.PAYLOAD, 0, (1, 0)))
        bad_values = Observation(ChannelState.MESSAGE, Frame(FrameKind.PAYLOAD, 0, (1, 2, 0)))
        node.observe(0, 0, 0, bad_length)
        node.observe(0, 0, 0, bad_values)
        assert not node.delivered


class TestBroadcastBudget:
    def test_unlimited(self):
        budget = BroadcastBudget(None)
        assert budget.remaining is None
        assert budget.spend(1000)
        assert not budget.exhausted

    def test_limited(self):
        budget = BroadcastBudget(2)
        assert budget.spend()
        assert budget.spend()
        assert not budget.spend()
        assert budget.exhausted
        assert budget.spent == 2
        assert budget.remaining == 0

    def test_can_spend_amount(self):
        budget = BroadcastBudget(3)
        assert budget.can_spend(3)
        assert not budget.can_spend(4)
        with pytest.raises(ValueError):
            budget.can_spend(-1)

    def test_negative_limit(self):
        with pytest.raises(ValueError):
            BroadcastBudget(-1)


class TestJammerUnits:
    def _setup(self, adversary):
        import numpy as np

        from repro.core.protocol import NodeContext
        from repro.core.schedule import NodeSchedule

        sched = NodeSchedule(np.array([[0.0, 0.0], [1.0, 0.0]]), 2.0, 0)
        adversary.setup(
            NodeContext(node_id=1, position=(1.0, 0.0), radius=2.0, schedule=sched, message_length=2)
        )
        return adversary

    def test_veto_jammer_targets_veto_phases(self):
        jammer = self._setup(VetoJammer(budget=100, jam_probability=1.0, rng=np.random.default_rng(0)))
        assert jammer.wants_slot(0, 3)
        frames = [jammer.act(0, 3, phase) for phase in range(6)]
        assert frames[0] is None and frames[2] is None
        assert frames[4] is not None and frames[5] is not None
        assert frames[4].kind is FrameKind.JAM

    def test_veto_jammer_respects_budget(self):
        jammer = self._setup(VetoJammer(budget=1, jam_probability=1.0, rng=np.random.default_rng(0)))
        jammer.wants_slot(0, 1)
        assert jammer.act(0, 1, 4) is not None
        assert jammer.act(0, 1, 5) is None
        assert not jammer.wants_slot(0, 2)

    def test_veto_jammer_probability_zero_never_jams(self):
        jammer = self._setup(VetoJammer(budget=10, jam_probability=0.0, rng=np.random.default_rng(0)))
        assert not jammer.wants_slot(0, 1)

    def test_continuous_jammer(self):
        jammer = self._setup(ContinuousJammer(budget=3))
        count = 0
        for slot in range(2):
            if jammer.wants_slot(0, slot):
                for phase in range(6):
                    if jammer.act(0, slot, phase) is not None:
                        count += 1
        assert count == 3
        assert jammer.broadcasts_spent == 3

    def test_jammer_never_delivers(self):
        jammer = self._setup(VetoJammer(budget=5))
        assert not jammer.delivered
        assert jammer.delivered_message is None

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            VetoJammer(jam_probability=1.5)
        with pytest.raises(ValueError):
            VetoJammer(target_phases=())


class TestScriptedAdversaries:
    def _setup(self, adversary):
        import numpy as np

        from repro.core.protocol import NodeContext
        from repro.core.schedule import NodeSchedule

        sched = NodeSchedule(np.array([[0.0, 0.0], [1.0, 0.0]]), 2.0, 0)
        adversary.setup(
            NodeContext(node_id=1, position=(1.0, 0.0), radius=2.0, schedule=sched, message_length=2)
        )
        return adversary

    def test_scripted_adversary_follows_script(self):
        adv = self._setup(ScriptedAdversary({(0, 2, 4): FrameKind.JAM}))
        assert adv.wants_slot(0, 2)
        assert not adv.wants_slot(0, 3)
        assert adv.act(0, 2, 4).kind is FrameKind.JAM
        assert adv.act(0, 2, 3) is None

    def test_scripted_adversary_predicate(self):
        adv = self._setup(
            ScriptedAdversary(predicate=lambda c, s, p: FrameKind.JAM if p == 5 else None, budget=2)
        )
        assert adv.wants_slot(0, 0)
        assert adv.act(0, 0, 5) is not None
        assert adv.act(0, 1, 5) is not None
        assert adv.act(0, 2, 5) is None  # budget exhausted

    def test_scripted_requires_script_or_predicate(self):
        with pytest.raises(ValueError):
            ScriptedAdversary()

    def test_bitflip_spoofer_targets_data_phases(self):
        adv = self._setup(BitFlipSpoofer(victim_slot=3, budget=10))
        assert adv.wants_slot(0, 3)
        assert not adv.wants_slot(0, 4)
        assert adv.act(0, 3, 0) is not None
        assert adv.act(0, 3, 1) is None
        assert adv.act(0, 3, 2) is not None

    def test_bitflip_spoofer_cycle_window(self):
        adv = self._setup(BitFlipSpoofer(victim_slot=1, start_cycle=1, end_cycle=2))
        assert not adv.wants_slot(0, 1)
        assert adv.wants_slot(1, 1)
        assert adv.wants_slot(2, 1)
        assert not adv.wants_slot(3, 1)


class TestLiars:
    def test_fake_message_is_complement(self):
        assert fake_message_for((1, 0, 1)) == (0, 1, 0)

    def test_factory_types(self):
        fake = (0, 1)
        assert isinstance(lying_neighborwatch_node(fake), NeighborWatchNode)
        assert isinstance(lying_multipath_node(fake), MultiPathNode)
        assert isinstance(lying_epidemic_node(fake), EpidemicNode)
        assert isinstance(lying_node_factory("nw2", fake), NeighborWatchNode)
        assert isinstance(lying_node_factory("multipath", fake, tolerance=2), MultiPathNode)
        assert isinstance(lying_node_factory("epidemic", fake), EpidemicNode)

    def test_factory_unknown_protocol(self):
        with pytest.raises(ValueError):
            lying_node_factory("unknown", (1, 0))

    def test_lying_multipath_never_relays_heard(self):
        node = lying_multipath_node((1, 0), tolerance=2)
        assert node.config.relay_heard is False


class TestPlacementHelpers:
    def test_fraction_to_count(self):
        assert fraction_to_count(600, 0.05) == 30
        with pytest.raises(ValueError):
            fraction_to_count(100, 1.5)

    def test_random_selection_excludes(self):
        picked = random_fault_selection(100, 10, exclude=[0, 1, 2], rng=0)
        assert len(picked) == 10
        assert not set(picked) & {0, 1, 2}

    def test_random_selection_reproducible(self):
        assert random_fault_selection(100, 10, rng=5) == random_fault_selection(100, 10, rng=5)

    def test_random_selection_too_many(self):
        with pytest.raises(ValueError):
            random_fault_selection(5, 10)

    def test_faults_in_neighborhood(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [10.0, 0.0]])
        picked = faults_in_neighborhood(pos, center=(0, 0), radius=2.5, count=10)
        assert picked == [0, 1, 2]

    def test_max_faults_per_neighborhood(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [10.0, 0.0]])
        assert max_faults_per_neighborhood(pos, [1, 2], radius=2.5) == 2
        assert max_faults_per_neighborhood(pos, [3], radius=2.5) == 1
        assert max_faults_per_neighborhood(pos, [], radius=2.5) == 0


class TestCrashHelpers:
    def test_survivor_count(self, grid_dep):
        crashed = crashes_for_survivor_count(grid_dep, 50, rng=0)
        assert len(crashed) == grid_dep.num_nodes - 50
        assert grid_dep.source_index not in crashed

    def test_target_density(self, grid_dep):
        crashed = crashes_for_target_density(grid_dep, target_density=0.5, rng=0)
        active = grid_dep.num_nodes - len(crashed)
        assert active == pytest.approx(0.5 * grid_dep.area, abs=1)

    def test_survivors(self):
        assert survivors(5, [1, 3]) == [0, 2, 4]

    def test_invalid_args(self, grid_dep):
        with pytest.raises(ValueError):
            crashes_for_survivor_count(grid_dep, 0)
        with pytest.raises(ValueError):
            crashes_for_target_density(grid_dep, 0)
