"""SlotPlan's per-slot grouping against the per-node loop it replaced.

`SlotPlan` groups the participant records per slot with one sort over every
declared interest.  The loop below is the construction it replaced, kept as
the reference: one record per device with a protocol, each interest
range-checked in declaration order, duplicates dropped, records appended to
their slot's list in node order, and slot keys in order of first appearance.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.node import SimNode
from repro.sim.plan import REC_ID, SlotPlan


def reference_plan(nodes, num_slots):
    """``(slot_records, flex_transmitters, node_records, wants_slot_by_id)`` per node."""
    record_lists: dict[int, list] = {}
    node_records = {}
    wants_slot_by_id = {}
    flex = []
    for node in nodes:
        proto = node.protocol
        if proto is None:
            continue
        record = (
            node.node_id,
            node,
            proto.act,
            proto.observe,
            proto.end_slot,
            node.honest,
            node.position,
        )
        node_records[node.node_id] = record
        declared = set()
        for slot in proto.interests():
            if not (0 <= slot < num_slots):
                raise ValueError(
                    f"node {node.node_id} declared interest in slot {slot}, "
                    f"but the schedule only has {num_slots} slots"
                )
            slot = int(slot)
            if slot in declared:
                continue
            declared.add(slot)
            record_lists.setdefault(slot, []).append(record)
        if getattr(proto, "may_transmit_anywhere", False):
            flex.append(node.node_id)
            wants_slot_by_id[node.node_id] = proto.wants_slot
    slot_records = {slot: tuple(records) for slot, records in record_lists.items()}
    return slot_records, tuple(flex), node_records, wants_slot_by_id


class Declares:
    """A protocol stub that declares a fixed interest sequence.

    ``interests()`` hands the sequence back as a list, a tuple, a NumPy array
    or a fresh generator.  The stub has no ``wants_slot``: the plan binds it
    only for flex transmitters.
    """

    may_transmit_anywhere = False

    def __init__(self, interests, form: str = "list") -> None:
        self._interests = list(interests)
        self._form = form

    def interests(self):
        if self._form == "tuple":
            return tuple(self._interests)
        if self._form == "array":
            return np.array(self._interests, dtype=np.int64)
        if self._form == "generator":
            return (slot for slot in self._interests)
        return list(self._interests)

    def act(self, slot_cycle, slot, phase):
        return None

    def observe(self, slot_cycle, slot, phase, observation):
        return None

    def end_slot(self, slot_cycle, slot):
        return None


class FlexDeclares(Declares):
    may_transmit_anywhere = True

    def wants_slot(self, slot_cycle, slot):
        return False


def make_nodes(specs):
    """SimNodes from ``(interests or None, flex[, form])``; None is a crashed device."""
    nodes = []
    for node_id, (interests, flex, *form) in enumerate(specs):
        proto = None
        if interests is not None:
            proto = (FlexDeclares if flex else Declares)(interests, *form)
        nodes.append(SimNode(node_id, (float(node_id), 0.0), proto, honest=not flex))
    return nodes


@st.composite
def deployments(draw, low=0, high_margin=0):
    """``(num_slots, specs)``: unsorted interests with duplicates and NumPy ints."""
    num_slots = draw(st.integers(1, 12))
    slot = st.builds(
        lambda kind, value: kind(value),
        st.sampled_from([int, np.int64, np.int32, np.intp]),
        st.integers(low, num_slots - 1 + high_margin),
    )
    spec = st.tuples(
        st.none() | st.lists(slot, max_size=8),
        st.booleans(),
        st.sampled_from(["list", "tuple", "array", "generator"]),
    )
    return num_slots, draw(st.lists(spec, max_size=14))


def assert_plan_matches_reference(plan, nodes, num_slots):
    slot_records, flex, node_records, wants_slot_by_id = reference_plan(nodes, num_slots)
    # Slot keys in first-appearance order, records in node order.
    assert list(plan.slot_records) == list(slot_records)
    assert plan.slot_records == slot_records
    for slot, records in plan.slot_records.items():
        for record, want in zip(records, slot_records[slot]):
            assert record[1] is want[1]
    assert list(plan.interest_map) == list(slot_records)
    for slot, records in slot_records.items():
        ids = tuple(record[REC_ID] for record in records)
        assert plan.interest_map[slot] == ids
        assert all(type(nid) is int for nid in plan.interest_map[slot])
        array = plan.participant_arrays[slot]
        assert array.dtype == np.intp
        assert array.tolist() == list(ids)
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 99
    assert list(plan.participant_arrays) == list(slot_records)
    assert plan.flex_transmitters == flex
    assert plan._node_records == node_records
    flex_candidates = {}
    for slot in range(num_slots):
        members = {record[REC_ID] for record in slot_records.get(slot, ())}
        candidates = tuple(
            (wants_slot_by_id[nid], node_records[nid]) for nid in flex if nid not in members
        )
        if candidates:
            flex_candidates[slot] = candidates
    assert plan.flex_candidates == flex_candidates


class TestSlotPlanMatchesPerNodeLoop:
    @settings(max_examples=150, deadline=None)
    @given(deployments())
    def test_records_and_arrays(self, drawn):
        num_slots, specs = drawn
        nodes = make_nodes(specs)
        plan = SlotPlan(nodes, SimpleNamespace(num_slots=num_slots))
        assert_plan_matches_reference(plan, nodes, num_slots)

    @settings(max_examples=150, deadline=None)
    @given(deployments(low=-3, high_margin=3))
    def test_out_of_range_error_matches(self, drawn):
        num_slots, specs = drawn
        nodes = make_nodes(specs)
        schedule = SimpleNamespace(num_slots=num_slots)
        try:
            reference_plan(nodes, num_slots)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                SlotPlan(nodes, schedule)
            assert str(raised.value) == str(exc)
        else:
            assert_plan_matches_reference(SlotPlan(nodes, schedule), nodes, num_slots)

    def test_first_offender_in_node_order(self):
        nodes = make_nodes(
            [
                ([2, 1], False),
                (None, False),
                ([0, np.int64(9), -1], True),
                ([-5], False),
            ]
        )
        with pytest.raises(ValueError) as raised:
            SlotPlan(nodes, SimpleNamespace(num_slots=4))
        assert str(raised.value) == (
            "node 2 declared interest in slot 9, but the schedule only has 4 slots"
        )

    def test_unsorted_duplicate_interests(self):
        nodes = make_nodes(
            [
                ([3, np.int64(1), 3, 1], False),
                ([2, 1, 2], True),
                (None, False),
                ((np.int32(0), 3), False),
                ([], True),
            ]
        )
        plan = SlotPlan(nodes, SimpleNamespace(num_slots=5))
        assert list(plan.slot_records) == [3, 1, 2, 0]
        assert plan.interest_map == {3: (0, 3), 1: (0, 1), 2: (1,), 0: (3,)}
        assert plan.flex_transmitters == (1, 4)
        assert [rec[REC_ID] for _, rec in plan.flex_candidates[1]] == [4]
        assert [rec[REC_ID] for _, rec in plan.flex_candidates[4]] == [1, 4]

    def test_interest_map_shares_the_record_ids(self):
        # Ids above 256 are not interned, so only the records' own int
        # objects pass the identity check (no int is allocated per entry).
        nodes = [
            SimNode(1000 + i, (float(i), 0.0), Declares([i % 3, 3])) for i in range(12)
        ]
        plan = SlotPlan(nodes, SimpleNamespace(num_slots=4))
        for slot, ids in plan.interest_map.items():
            records = plan.slot_records[slot]
            assert len(ids) == len(records)
            assert all(nid is record[REC_ID] for nid, record in zip(ids, records))

    def test_no_protocols(self):
        plan = SlotPlan(make_nodes([(None, False)] * 3), SimpleNamespace(num_slots=3))
        assert plan.slot_records == plan.interest_map == plan.participant_arrays == {}
        assert plan.flex_candidates == {}
