"""Unit tests for scenario configuration and the simulation builder."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.core.neighborwatch import NeighborWatchNode
from repro.core.multipath import MultiPathNode
from repro.core.epidemic import EpidemicNode
from repro.core.schedule import NodeSchedule, SquareSchedule
from repro.sim import builder
from repro.sim.builder import build_schedule, build_simulation, run_scenario
from repro.registry import RegistryError
from repro.sim.config import (
    FaultPlan,
    ScenarioConfig,
    canonical_channel,
    canonical_protocol,
    default_message,
)
from repro.sim.radio import FriisChannel, UnitDiskChannel
from repro.topology.deployment import uniform_deployment


class TestCanonicalProtocol:
    @pytest.mark.parametrize(
        "alias,expected",
        [
            ("neighborwatch", "neighborwatch"),
            ("NeighborWatchRB", "neighborwatch"),
            ("nw", "neighborwatch"),
            ("nw2", "neighborwatch2"),
            ("2-vote", "neighborwatch2"),
            ("MultiPathRB", "multipath"),
            ("mp", "multipath"),
            ("flooding", "epidemic"),
        ],
    )
    def test_aliases(self, alias, expected):
        assert canonical_protocol(alias) == expected

    def test_unknown_is_value_and_key_error_listing_candidates(self):
        with pytest.raises(ValueError, match="neighborwatch"):
            canonical_protocol("quantum")
        with pytest.raises(KeyError):
            canonical_protocol("quantum")
        with pytest.raises(RegistryError, match="available"):
            canonical_protocol("quantum")

    def test_canonical_passthrough(self):
        assert canonical_protocol("epidemic") == "epidemic"
        assert canonical_channel("friis") == "friis"


class TestDefaultMessage:
    def test_pattern(self):
        assert default_message(5) == (1, 0, 1, 0, 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            default_message(0)


class TestScenarioConfig:
    def test_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.protocol == "neighborwatch"
        assert cfg.message_bits == (1, 0, 1, 0)
        assert cfg.separation == pytest.approx(12.0)
        assert cfg.epidemic_slot_separation == pytest.approx(12.0)

    def test_explicit_message_must_match_length(self):
        with pytest.raises(ValueError):
            ScenarioConfig(message_length=3, message=(1, 0))

    def test_square_side_default_l2(self):
        cfg = ScenarioConfig(radius=3.0)
        assert cfg.effective_square_side() == pytest.approx(1.0)

    def test_square_side_default_linf(self):
        cfg = ScenarioConfig(radius=4.0, norm="linf")
        assert cfg.effective_square_side() == pytest.approx(2.0)

    def test_square_side_override(self):
        cfg = ScenarioConfig(radius=4.0, square_side=1.5)
        assert cfg.effective_square_side() == 1.5

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            ScenarioConfig(radius=0)
        with pytest.raises(ValueError):
            ScenarioConfig(message_length=0)
        with pytest.raises(ValueError):
            ScenarioConfig(norm="l1")
        with pytest.raises(ValueError):
            ScenarioConfig(multipath_tolerance=-1)

    @pytest.mark.parametrize("field", ["schedule_separation", "epidemic_separation"])
    @pytest.mark.parametrize("value", [-1.0, 0.0, float("nan"), float("inf"), 0, "3"])
    def test_separation_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("capture_probability", 1.5),
            ("capture_probability", -0.1),
            ("capture_probability", float("nan")),
            ("capture_probability", "0.3"),
            ("capture_probability", True),
            ("loss_probability", "abc"),
            ("loss_probability", 1.01),
            ("loss_probability", False),
            ("square_side", 0),
            ("square_side", -1.0),
            ("square_side", float("inf")),
            ("square_side", "2"),
            ("square_side", True),
            ("max_rounds", "10"),
            ("max_rounds", 0),
            ("max_rounds", 12.0),
            ("max_rounds", True),
            ("seed", 1.5),
            ("seed", "3"),
            ("seed", None),
            ("seed", False),
            ("schedule_separation", True),
        ],
    )
    def test_invalid_field_values_are_rejected(self, field, value):
        # Checked at construction, before any build or run reads them.
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(**{field: value})

    def test_valid_field_values_are_kept_unconverted(self):
        cfg = ScenarioConfig(
            capture_probability=1, loss_probability=0, square_side=2,
            max_rounds=np.int64(10), seed=np.int64(7),
        )
        assert type(cfg.capture_probability) is int and type(cfg.square_side) is int
        assert type(cfg.max_rounds) is np.int64 and type(cfg.seed) is np.int64

    @pytest.mark.parametrize("field", ["schedule_separation", "epidemic_separation"])
    @pytest.mark.parametrize("value", [1.5, 6.5, 8.5, 12])
    def test_separation_accepts_positive_numbers(self, field, value):
        cfg = ScenarioConfig(**{field: value})
        assert getattr(cfg, field) == value

    def test_with_protocol_copy(self):
        cfg = ScenarioConfig(radius=3.0, seed=9)
        other = cfg.with_protocol("epidemic")
        assert other.protocol == "epidemic"
        assert other.radius == 3.0 and other.seed == 9
        assert cfg.protocol == "neighborwatch"

    def test_derive_max_rounds_respects_override(self):
        cfg = ScenarioConfig(max_rounds=123)
        assert cfg.derive_max_rounds(20.0, 600) == 123

    def test_derive_max_rounds_grows_with_budget(self):
        cfg = ScenarioConfig()
        base = cfg.derive_max_rounds(20.0, 600, adversary_budget=0)
        jammed = cfg.derive_max_rounds(20.0, 600, adversary_budget=100)
        assert jammed > base

    def test_derive_max_rounds_bits_per_hop(self):
        cfg = ScenarioConfig(protocol="multipath")
        base = cfg.derive_max_rounds(20.0, 600, bits_per_hop=1)
        scaled = cfg.derive_max_rounds(20.0, 600, bits_per_hop=10)
        assert scaled > base


class TestFaultPlan:
    def test_normalisation(self):
        plan = FaultPlan(crashed=(3, 1, 1), jammers=(5,), liars=(7,))
        assert plan.crashed == (1, 3)
        assert plan.faulty == (1, 3, 5, 7)
        assert plan.byzantine == (5, 7)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(crashed=(1,), jammers=(1,))

    def test_budget_total(self):
        assert FaultPlan(jammers=(1, 2), jammer_budget=10).total_jam_budget() == 20
        assert FaultPlan(jammers=(1, 2)).total_jam_budget() == 0

    def test_validate_for_source(self):
        plan = FaultPlan(liars=(0,))
        with pytest.raises(ValueError):
            plan.validate_for(10, source_index=0)

    def test_validate_for_range(self):
        plan = FaultPlan(crashed=(99,))
        with pytest.raises(ValueError):
            plan.validate_for(10, source_index=0)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            FaultPlan(jam_probability=2.0)


class TestBuilder:
    @pytest.fixture
    def deployment(self):
        return uniform_deployment(60, 8, 8, rng=4)

    def test_build_schedule_kinds(self, deployment):
        assert isinstance(
            build_schedule(deployment, ScenarioConfig(protocol="neighborwatch", radius=3)),
            SquareSchedule,
        )
        assert isinstance(
            build_schedule(deployment, ScenarioConfig(protocol="multipath", radius=3)),
            NodeSchedule,
        )
        epidemic_sched = build_schedule(deployment, ScenarioConfig(protocol="epidemic", radius=3))
        assert isinstance(epidemic_sched, NodeSchedule)
        assert epidemic_sched.phases_per_slot == 1

    def test_build_simulation_protocol_types(self, deployment):
        cfg = ScenarioConfig(protocol="neighborwatch", radius=3, message_length=2)
        sim = build_simulation(deployment, cfg)
        honest_protos = [n.protocol for n in sim.nodes if n.protocol is not None]
        assert all(isinstance(p, NeighborWatchNode) for p in honest_protos)

        cfg = ScenarioConfig(protocol="multipath", radius=3, message_length=2)
        sim = build_simulation(deployment, cfg)
        assert all(isinstance(n.protocol, MultiPathNode) for n in sim.nodes)

        cfg = ScenarioConfig(protocol="epidemic", radius=3, message_length=2)
        sim = build_simulation(deployment, cfg)
        assert all(isinstance(n.protocol, EpidemicNode) for n in sim.nodes)

    def test_build_simulation_channels(self, deployment):
        cfg = ScenarioConfig(radius=3, channel="friis")
        sim = build_simulation(deployment, cfg)
        assert isinstance(sim.channel, FriisChannel)
        cfg = ScenarioConfig(radius=3, channel="unit-disk")
        sim = build_simulation(deployment, cfg)
        assert isinstance(sim.channel, UnitDiskChannel)

    def test_faults_applied(self, deployment):
        src = deployment.source_index
        ids = [i for i in range(deployment.num_nodes) if i != src]
        plan = FaultPlan(crashed=(ids[0],), jammers=(ids[1],), liars=(ids[2],), jammer_budget=5)
        cfg = ScenarioConfig(protocol="neighborwatch", radius=3, message_length=2)
        sim = build_simulation(deployment, cfg, plan)
        assert sim.nodes[ids[0]].protocol is None
        assert not sim.nodes[ids[1]].honest
        assert not sim.nodes[ids[2]].honest
        assert isinstance(sim.nodes[ids[2]].protocol, NeighborWatchNode)

    def test_faulty_source_rejected(self, deployment):
        plan = FaultPlan(liars=(deployment.source_index,))
        with pytest.raises(ValueError):
            build_simulation(deployment, ScenarioConfig(radius=3), plan)

    def test_run_scenario_metadata(self, deployment):
        cfg = ScenarioConfig(protocol="epidemic", radius=3, message_length=2, seed=5)
        result = run_scenario(deployment, cfg)
        assert result.metadata["protocol"] == "epidemic"
        assert result.metadata["num_nodes"] == deployment.num_nodes
        assert result.metadata["seed"] == 5
        assert result.terminated

    def test_run_scenario_reproducible(self, deployment):
        cfg = ScenarioConfig(protocol="neighborwatch", radius=3, message_length=2, seed=5)
        a = run_scenario(deployment, cfg)
        b = run_scenario(deployment, cfg)
        assert a.summary() == b.summary()


class TestCollectorPause:
    """build_simulation pauses the cyclic collector and restores the caller's setting."""

    @pytest.fixture
    def deployment(self):
        return uniform_deployment(60, 8, 8, rng=4)

    @pytest.fixture
    def observed(self, monkeypatch):
        """Collector state seen inside the build, and gc.collect generations."""
        seen = {"during": [], "collects": []}
        schedule = builder.build_schedule
        collect = gc.collect

        def watched_schedule(*args, **kwargs):
            seen["during"].append(gc.isenabled())
            return schedule(*args, **kwargs)

        def watched_collect(*args):
            seen["collects"].append(args)
            return collect(*args)

        monkeypatch.setattr(builder, "build_schedule", watched_schedule)
        monkeypatch.setattr(gc, "collect", watched_collect)
        return seen

    @pytest.fixture
    def collector(self):
        """Yield a setter for the collector; restore the test process's setting after."""
        enabled = gc.isenabled()

        def set_to(on: bool) -> None:
            if on:
                gc.enable()
            else:
                gc.disable()

        yield set_to
        set_to(enabled)

    @pytest.mark.parametrize("on", [True, False], ids=["collector-on", "collector-off"])
    def test_restores_the_callers_setting(self, deployment, observed, collector, on):
        collector(on)
        sim = build_simulation(deployment, ScenarioConfig(protocol="epidemic", radius=3))
        assert gc.isenabled() is on
        assert observed["during"] == [False]
        # A collector that was on moves the build out of the young
        # generations at once; one that was off is left alone.
        assert observed["collects"] == ([(1,)] if on else [])
        assert sim.run(2000).terminated

    @pytest.mark.parametrize("on", [True, False], ids=["collector-on", "collector-off"])
    def test_restores_the_setting_when_the_build_raises(self, deployment, observed, collector, on):
        collector(on)

        def failing_channel(config):
            raise RuntimeError("channel build failed")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(builder, "build_channel", failing_channel)
            with pytest.raises(RuntimeError, match="channel build failed"):
                build_simulation(deployment, ScenarioConfig(protocol="epidemic", radius=3))
        assert gc.isenabled() is on
        assert observed["during"] == [False]
        with pytest.raises(ValueError):
            build_simulation(
                deployment, ScenarioConfig(radius=3), FaultPlan(liars=(deployment.source_index,))
            )
        assert gc.isenabled() is on
