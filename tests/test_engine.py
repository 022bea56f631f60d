"""Unit tests for the simulation engine, using small stub protocols."""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np
import pytest

from repro.core.messages import Frame, FrameKind
from repro.core.protocol import Observation, Protocol
from repro.core.schedule import NodeSchedule
from repro.sim.engine import Simulation, clear_link_cache, link_cache_info
from repro.sim.events import EventKind, EventLog
from repro.sim.node import SimNode
from repro.sim.radio import UnitDiskChannel


class Beacon(Protocol):
    """Broadcasts its payload once in its own slot; delivered immediately."""

    def __init__(self, slot: int, payload=(1,)):
        self._slot = slot
        self._payload = tuple(payload)
        self._sent = False

    def interests(self) -> Iterable[int]:
        return (self._slot,)

    def act(self, slot_cycle, slot, phase) -> Optional[Frame]:
        if slot == self._slot and phase == 0 and not self._sent:
            self._sent = True
            return Frame(FrameKind.PAYLOAD, self.context.node_id, self._payload)
        return None

    def observe(self, slot_cycle, slot, phase, observation: Observation) -> None:
        pass

    @property
    def delivered(self) -> bool:
        return True

    @property
    def delivered_message(self):
        return self._payload


class Listener(Protocol):
    """Listens to one slot and delivers the first payload it decodes."""

    def __init__(self, slot: int, expected_len: int = 1):
        self._slot = slot
        self._message = None
        self._observations = []
        self._expected_len = expected_len

    def interests(self) -> Iterable[int]:
        return (self._slot,)

    def act(self, slot_cycle, slot, phase) -> Optional[Frame]:
        return None

    def observe(self, slot_cycle, slot, phase, observation: Observation) -> None:
        self._observations.append(observation)
        frame = observation.decoded
        if frame is not None and frame.kind is FrameKind.PAYLOAD and self._message is None:
            self._message = tuple(frame.payload)

    @property
    def observations(self):
        return self._observations

    @property
    def delivered(self) -> bool:
        return self._message is not None

    @property
    def delivered_message(self):
        return self._message


def make_sim(positions, protocols, message=(1,), honest=None, radius=2.0, phases=1):
    positions = np.asarray(positions, dtype=float)
    schedule = NodeSchedule(positions, radius=radius, source_index=0, phases_per_slot=phases,
                            separation=2 * radius)
    channel = UnitDiskChannel(radius)
    nodes = []
    for i, proto in enumerate(protocols):
        if proto is not None:
            from repro.core.protocol import NodeContext

            proto.setup(
                NodeContext(
                    node_id=i,
                    position=(float(positions[i, 0]), float(positions[i, 1])),
                    radius=radius,
                    schedule=schedule,
                    message_length=len(message),
                    is_source=(i == 0),
                    source_message=tuple(message) if i == 0 else None,
                )
            )
        nodes.append(
            SimNode(
                node_id=i,
                position=(float(positions[i, 0]), float(positions[i, 1])),
                protocol=proto,
                honest=(honest[i] if honest else True),
            )
        )
    return Simulation(nodes, schedule, channel, message), schedule


class TestEngineBasics:
    def test_beacon_reaches_listener(self):
        positions = [(0, 0), (1, 0)]
        # Node 0 broadcasts in its slot; node 1 listens to that slot.
        schedule_probe = NodeSchedule(np.asarray(positions, float), 2.0, 0, phases_per_slot=1)
        slot0 = schedule_probe.slot_of_node(0)
        sim, _ = make_sim(positions, [Beacon(slot0, (1, 0)), Listener(slot0, 2)], message=(1, 0))
        result = sim.run(max_rounds=20)
        assert result.terminated
        assert result.outcomes[1].delivered
        assert result.outcomes[1].correct

    def test_out_of_range_listener_gets_nothing(self):
        positions = [(0, 0), (10, 0)]
        sim, sched = make_sim(positions, [Beacon(0), Listener(0)])
        result = sim.run(max_rounds=20)
        assert not result.outcomes[1].delivered
        assert not result.terminated

    def test_listener_records_silence_for_empty_slots(self):
        positions = [(0, 0), (1, 0)]
        listener = Listener(0)
        sim, _ = make_sim(positions, [None, listener])
        sim.run_slots(3)
        assert len(listener.observations) >= 1
        assert all(not o.busy for o in listener.observations)

    def test_broadcast_counted(self):
        positions = [(0, 0), (1, 0)]
        sim, _ = make_sim(positions, [Beacon(0), Listener(0)])
        sim.run(max_rounds=20)
        assert sim.nodes[0].broadcasts == 1

    def test_crashed_node_inactive_in_results(self):
        positions = [(0, 0), (1, 0)]
        sim, _ = make_sim(positions, [Beacon(0), None])
        result = sim.run(max_rounds=10)
        assert not result.outcomes[1].active
        assert result.outcomes[1].delivered is False

    def test_trace_records_broadcasts_and_deliveries(self):
        positions = [(0, 0), (1, 0)]
        trace = EventLog()
        positions_arr = np.asarray(positions, float)
        schedule = NodeSchedule(positions_arr, 2.0, 0, phases_per_slot=1, separation=4.0)
        channel = UnitDiskChannel(2.0)
        protos = [Beacon(0), Listener(0)]
        from repro.core.protocol import NodeContext

        for i, proto in enumerate(protos):
            proto.setup(
                NodeContext(
                    node_id=i,
                    position=tuple(positions[i]),
                    radius=2.0,
                    schedule=schedule,
                    message_length=1,
                    is_source=(i == 0),
                    source_message=(1,) if i == 0 else None,
                )
            )
        nodes = [SimNode(i, tuple(map(float, positions[i])), protos[i]) for i in range(2)]
        sim = Simulation(nodes, schedule, channel, (1,), trace=trace)
        sim.run(max_rounds=20)
        assert len(trace.filter(kind=EventKind.BROADCAST)) == 1
        assert len(trace.deliveries()) >= 1

    def test_node_id_mismatch_rejected(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0]])
        schedule = NodeSchedule(positions, 2.0, 0, phases_per_slot=1)
        nodes = [SimNode(1, (0.0, 0.0), None), SimNode(0, (1.0, 0.0), None)]
        with pytest.raises(ValueError):
            Simulation(nodes, schedule, UnitDiskChannel(2.0), (1,))

    def test_interest_out_of_range_rejected(self):
        positions = [(0, 0), (1, 0)]
        with pytest.raises(ValueError):
            make_sim(positions, [Beacon(999), Listener(0)])

    def test_max_rounds_validation(self):
        positions = [(0, 0), (1, 0)]
        sim, _ = make_sim(positions, [Beacon(0), Listener(0)])
        with pytest.raises(ValueError):
            sim.run(max_rounds=0)

    def test_run_stops_early_when_all_delivered(self):
        positions = [(0, 0), (1, 0)]
        sim, sched = make_sim(positions, [Beacon(0), Listener(0)])
        result = sim.run(max_rounds=100_000)
        assert result.terminated
        assert result.total_rounds < 100_000

    def test_already_delivered_terminates_immediately(self):
        positions = [(0, 0)]
        sim, _ = make_sim(positions, [Beacon(0)])
        result = sim.run(max_rounds=50)
        assert result.terminated
        assert result.total_rounds == 0


class DoubleInterest(Protocol):
    """Declares the same slot twice and counts how often the engine calls it."""

    def __init__(self, slot: int):
        self._slot = slot
        self.act_calls = 0
        self.observe_calls = 0
        self.end_slot_calls = 0

    def interests(self) -> Iterable[int]:
        return (self._slot, self._slot)

    def act(self, slot_cycle, slot, phase) -> Optional[Frame]:
        self.act_calls += 1
        return None

    def observe(self, slot_cycle, slot, phase, observation: Observation) -> None:
        self.observe_calls += 1

    def end_slot(self, slot_cycle, slot) -> None:
        self.end_slot_calls += 1

    @property
    def delivered(self) -> bool:
        return True

    @property
    def delivered_message(self):
        return (1,)


class TestDeliveryRoundAccuracy:
    """Regression tests: deliveries are stamped at the exact slot, not at the
    next periodic check (which used to quantize delivery_round up to a full
    schedule cycle and inflate latency metrics)."""

    def test_delivery_round_is_exact_not_quantized(self):
        positions = [(0, 0), (1, 0)]
        schedule_probe = NodeSchedule(np.asarray(positions, float), 2.0, 0, phases_per_slot=1,
                                      separation=4.0)
        slot0 = schedule_probe.slot_of_node(0)
        sim, sched = make_sim(positions, [Beacon(slot0, (1, 0)), Listener(slot0, 2)], message=(1, 0))
        result = sim.run(max_rounds=10 * sched.rounds_per_cycle, check_interval_slots=sched.num_slots)
        # The listener decodes during slot0, so its delivery is complete at
        # the end of that slot — not at the end of the first schedule cycle.
        exact = (slot0 + 1) * sched.phases_per_slot
        assert exact < sched.rounds_per_cycle  # the quantized value would differ
        assert result.outcomes[1].delivery_round == exact

    def test_predelivered_node_stamped_at_round_zero(self):
        positions = [(0, 0), (1, 0)]
        sim, _ = make_sim(positions, [Beacon(0), Listener(0)])
        result = sim.run(max_rounds=20)
        # The beacon reports delivered from the start, so it is stamped before
        # the first slot runs.
        assert result.outcomes[0].delivery_round == 0

    def test_check_interval_does_not_change_delivery_round(self):
        positions = [(0, 0), (1, 0)]
        schedule_probe = NodeSchedule(np.asarray(positions, float), 2.0, 0, phases_per_slot=1,
                                      separation=4.0)
        slot0 = schedule_probe.slot_of_node(0)
        stamped = []
        for interval in (1, 3, None):
            sim, sched = make_sim(positions, [Beacon(slot0, (1, 0)), Listener(slot0, 2)], message=(1, 0))
            result = sim.run(max_rounds=10 * sched.rounds_per_cycle, check_interval_slots=interval)
            stamped.append(result.outcomes[1].delivery_round)
        assert stamped[0] == stamped[1] == stamped[2]

    def test_check_interval_zero_rejected(self):
        positions = [(0, 0), (1, 0)]
        sim, _ = make_sim(positions, [Beacon(0), Listener(0)])
        with pytest.raises(ValueError):
            sim.run(max_rounds=20, check_interval_slots=0)

    def test_check_interval_negative_rejected(self):
        positions = [(0, 0), (1, 0)]
        sim, _ = make_sim(positions, [Beacon(0), Listener(0)])
        with pytest.raises(ValueError):
            sim.run(max_rounds=20, check_interval_slots=-3)


class TestInterestDeduplication:
    def test_duplicate_interest_acts_once_per_phase(self):
        positions = [(0, 0), (1, 0)]
        proto = DoubleInterest(0)
        sim, sched = make_sim(positions, [None, proto])
        sim.run_slots(sched.num_slots)  # one full cycle
        assert proto.act_calls == sched.phases_per_slot
        assert proto.observe_calls == sched.phases_per_slot
        assert proto.end_slot_calls == 1

    def test_duplicate_interest_single_broadcast(self):
        positions = [(0, 0), (1, 0)]

        class ChattyDoubleBeacon(Beacon):
            """Transmits in every phase of its slot; duplicate interests."""

            def interests(self):
                return (self._slot, self._slot)

            def act(self, slot_cycle, slot, phase):
                if slot == self._slot:
                    return Frame(FrameKind.PAYLOAD, self.context.node_id, self._payload)
                return None

        beacon = ChattyDoubleBeacon(0, (1,))
        listener = Listener(0)
        sim, sched = make_sim(positions, [beacon, listener])
        sim.run_slots(1)
        # Before deduplication the node appeared twice in the participant
        # list and its frame was put on the air twice per phase.
        assert sim.nodes[0].broadcasts == sched.phases_per_slot


class TestFlexTransmitters:
    def test_adversary_outside_interests_can_jam(self):
        from repro.adversary.jammer import ContinuousJammer

        positions = [(0, 0), (1, 0), (0.5, 0.5)]
        schedule_probe = NodeSchedule(np.asarray(positions, float), 2.0, 0, phases_per_slot=1,
                                      separation=4.0)
        slot0 = schedule_probe.slot_of_node(0)
        beacon, listener, jammer = Beacon(slot0), Listener(slot0), ContinuousJammer(budget=100)
        sim, _ = make_sim(positions, [beacon, listener, jammer], honest=[True, True, False])
        result = sim.run(max_rounds=10)
        # The jammer collides with the beacon's single broadcast: no delivery.
        assert not result.outcomes[1].delivered
        assert result.outcomes[2].broadcasts > 0
        assert result.adversary_broadcasts > 0


class TestLinkCacheIntrospection:
    """The module-level link-state cache is observable and resettable, so
    cached-channel tests cannot contaminate each other (the autouse
    ``_isolated_link_cache`` fixture clears it before every test)."""

    def test_starts_empty_thanks_to_isolation_fixture(self):
        info = link_cache_info()
        assert info["entries"] == 0
        assert info["hits"] == 0 and info["misses"] == 0
        assert info["max_entries"] >= 1

    def test_counts_misses_then_hits_for_same_deployment(self):
        positions = [(0, 0), (1, 0), (2, 0)]
        make_sim(positions, [Beacon(0), Listener(0), Listener(0)])
        after_first = link_cache_info()
        assert after_first["entries"] == 1
        assert after_first["misses"] == 1 and after_first["hits"] == 0
        # Same channel parameters + same positions: served from the cache.
        make_sim(positions, [Beacon(0), Listener(0), Listener(0)])
        after_second = link_cache_info()
        assert after_second["entries"] == 1
        assert after_second["misses"] == 1 and after_second["hits"] == 1

    def test_distinct_positions_get_distinct_entries(self):
        make_sim([(0, 0), (1, 0)], [Beacon(0), Listener(0)])
        make_sim([(0, 0), (1.5, 0)], [Beacon(0), Listener(0)])
        info = link_cache_info()
        assert info["entries"] == 2
        assert info["misses"] == 2

    def test_clear_resets_entries_and_counters(self):
        make_sim([(0, 0), (1, 0)], [Beacon(0), Listener(0)])
        make_sim([(0, 0), (1, 0)], [Beacon(0), Listener(0)])
        assert link_cache_info()["hits"] == 1
        clear_link_cache()
        info = link_cache_info()
        assert info == {**info, "entries": 0, "hits": 0, "misses": 0}
        # The next identical construction is a miss again: a recompute, not
        # a stale read.
        make_sim([(0, 0), (1, 0)], [Beacon(0), Listener(0)])
        assert link_cache_info()["misses"] == 1

    def test_bounded_by_max_entries(self):
        for k in range(link_cache_info()["max_entries"] + 3):
            make_sim([(0, 0), (1 + 0.01 * k, 0)], [Beacon(0), Listener(0)])
        info = link_cache_info()
        assert info["entries"] <= info["max_entries"]


class FlexBeacon(Beacon):
    """A beacon that may also transmit outside its declared interests."""

    may_transmit_anywhere = True

    def __init__(self, slot: int, payload=(1,)):
        super().__init__(slot, payload)
        self.wants_slot_queries = []

    def wants_slot(self, slot_cycle, slot) -> bool:
        self.wants_slot_queries.append((slot_cycle, slot))
        return False


class TestSlotPlan:
    """The compiled slot-plan layer: records, flex candidates and caches."""

    def test_slot_records_cover_interest_map(self):
        positions = [(0, 0), (1, 0), (2, 0)]
        sim, _ = make_sim(positions, [Beacon(0), Listener(0), Listener(0)])
        plan = sim.plan
        assert set(plan.slot_records) == set(plan.interest_map)
        for slot, ids in plan.interest_map.items():
            assert tuple(rec[0] for rec in plan.slot_records[slot]) == ids

    def test_participant_arrays_frozen(self):
        positions = [(0, 0), (1, 0)]
        sim, _ = make_sim(positions, [Beacon(0), Listener(0)])
        for array in sim.plan.participant_arrays.values():
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 99

    def test_flex_candidates_exclude_interest_set_members(self):
        positions = [(0, 0), (1, 0), (0.5, 0.5)]
        flex = FlexBeacon(0)
        sim, sched = make_sim(positions, [Beacon(0), Listener(0), flex])
        # The flex node declared interest in slot 0, so it is not a candidate
        # there — but it is everywhere else.
        assert 0 not in sim.plan.flex_candidates or all(
            rec[0] != 2 for _, rec in sim.plan.flex_candidates[0]
        )
        for slot in range(1, sched.num_slots):
            assert any(rec[0] == 2 for _, rec in sim.plan.flex_candidates.get(slot, ()))

    def test_wants_slot_not_queried_for_interested_slots(self):
        positions = [(0, 0), (1, 0), (0.5, 0.5)]
        flex = FlexBeacon(0)
        sim, sched = make_sim(positions, [Beacon(0), Listener(0), flex])
        sim.run_slots(sched.num_slots)  # one full cycle
        queried_slots = {slot for _, slot in flex.wants_slot_queries}
        assert 0 not in queried_slots
        assert queried_slots == set(range(1, sched.num_slots))

    def test_submatrix_cache_hits_for_stochastic_channel(self):
        positions = np.asarray([(0.0, 0.0), (1.0, 0.0)])
        schedule = NodeSchedule(positions, radius=2.0, source_index=0, phases_per_slot=1,
                                separation=4.0)

        class ChattyBeacon(Beacon):
            def act(self, slot_cycle, slot, phase):
                if slot == self._slot:
                    return Frame(FrameKind.PAYLOAD, self.context.node_id, self._payload)
                return None

        protos = [ChattyBeacon(0), Listener(0)]
        from repro.core.protocol import NodeContext

        for i, proto in enumerate(protos):
            proto.setup(NodeContext(node_id=i, position=(float(positions[i][0]), float(positions[i][1])),
                                    radius=2.0, schedule=schedule, message_length=1,
                                    is_source=(i == 0), source_message=(1,) if i == 0 else None))
        nodes = [SimNode(i, (float(positions[i][0]), float(positions[i][1])), protos[i])
                 for i in range(2)]
        channel = UnitDiskChannel(2.0, loss_probability=0.5)
        sim = Simulation(nodes, schedule, channel, (1,))
        sim.run_slots(4 * schedule.num_slots)
        info = sim.plan_cache_info()
        # The block cache never interacts with the RNG, so lossy rounds use it.
        assert info["submatrix"]["hits"] >= 1

    def test_submatrix_cache_is_bounded(self):
        from repro.sim.plan import SlotPlan

        positions = [(0, 0), (1, 0)]
        sim, _ = make_sim(positions, [Beacon(0), Listener(0)])
        plan = SlotPlan(sim.nodes, sim.schedule, submatrix_max_entries=2)
        state = np.ones((2, 2), dtype=bool)
        for k in range(5):
            plan.submatrix((k,), state, [0], [1])
        info = plan.cache_info()
        assert info["submatrix"]["entries"] <= 2
        assert info["submatrix"]["misses"] == 5

    def test_transmissions_interned_across_slots(self):
        positions = [(0, 0), (1, 0)]

        class ChattyBeacon(Beacon):
            def act(self, slot_cycle, slot, phase):
                if slot == self._slot:
                    return Frame(FrameKind.PAYLOAD, self.context.node_id, self._payload)
                return None

        sim, sched = make_sim(positions, [ChattyBeacon(0), Listener(0)])
        sim.run_slots(6 * sched.num_slots)
        assert sim.plan_cache_info()["transmissions_interned"] == 1
