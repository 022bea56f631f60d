"""Unit tests for the TDMA schedules (repro.core.schedule)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.regions import SquareGrid
from repro.core.schedule import (
    PHASES_PER_SLOT,
    SOURCE_SLOT,
    NodeSchedule,
    SquareSchedule,
)
from repro.topology.deployment import grid_jittered_deployment, uniform_deployment
from repro.topology.geometry import pairwise_distances


@pytest.fixture
def grid_deployment():
    return grid_jittered_deployment(10, 10, spacing=1.0)


@pytest.fixture
def square_schedule(grid_deployment):
    grid = SquareGrid(10, 10, side=1.0)
    return SquareSchedule(grid, radius=3.0, positions=grid_deployment.positions,
                          source_index=grid_deployment.source_index)


class TestRoundArithmetic:
    def test_locate_round_roundtrip(self, square_schedule):
        sched = square_schedule
        for round_index in (0, 5, 6, 127, sched.rounds_per_cycle, sched.rounds_per_cycle * 3 + 17):
            cycle, slot, phase = sched.locate_round(round_index)
            assert sched.round_index(cycle, slot, phase) == round_index

    def test_rounds_per_cycle(self, square_schedule):
        assert square_schedule.rounds_per_cycle == square_schedule.num_slots * PHASES_PER_SLOT

    def test_locate_negative_round(self, square_schedule):
        with pytest.raises(ValueError):
            square_schedule.locate_round(-1)

    def test_round_index_validates(self, square_schedule):
        with pytest.raises(ValueError):
            square_schedule.round_index(0, square_schedule.num_slots, 0)
        with pytest.raises(ValueError):
            square_schedule.round_index(0, 0, PHASES_PER_SLOT)
        with pytest.raises(ValueError):
            square_schedule.round_index(-1, 0, 0)

    def test_slots_elapsed(self, square_schedule):
        assert square_schedule.slots_elapsed(0) == 0
        assert square_schedule.slots_elapsed(6) == 1
        assert square_schedule.slots_elapsed(13) == 2


class TestSquareSchedule:
    def test_source_owns_slot_zero(self, square_schedule, grid_deployment):
        assert square_schedule.slot_of_node(grid_deployment.source_index) == SOURCE_SLOT
        assert square_schedule.owners_of_slot(SOURCE_SLOT) == (grid_deployment.source_index,)

    def test_source_excluded_from_square_slot_owners(self, square_schedule, grid_deployment):
        src = grid_deployment.source_index
        for slot in range(1, square_schedule.num_slots):
            assert src not in square_schedule.owners_of_slot(slot)

    def test_same_square_same_slot(self, square_schedule, grid_deployment):
        src = grid_deployment.source_index
        for node in range(grid_deployment.num_nodes):
            if node == src:
                continue
            sq = square_schedule.square_of_node(node)
            assert square_schedule.slot_of_node(node) == square_schedule.slot_of_square(sq)

    def test_adjacent_squares_have_distinct_slots(self, square_schedule):
        grid = square_schedule.grid
        for square in grid.iter_squares():
            slot = square_schedule.slot_of_square(square)
            for neighbor in grid.neighbors(square):
                assert square_schedule.slot_of_square(neighbor) != slot

    def test_slot_reuse_respects_separation(self, square_schedule):
        """The paper's rule: devices of *different* squares sharing a slot are
        at least 3R apart (devices of the same square are deliberate co-senders)."""
        positions = square_schedule.positions
        for slot in range(1, square_schedule.num_slots):
            owners = square_schedule.owners_of_slot(slot)
            if len(owners) < 2:
                continue
            squares = [square_schedule.square_of_node(o) for o in owners]
            dist = pairwise_distances(positions[list(owners)], norm="l2")
            for i in range(len(owners)):
                for j in range(i + 1, len(owners)):
                    if squares[i] != squares[j]:
                        assert dist[i, j] >= square_schedule.separation - 1e-9

    def test_members_of_square_consistent(self, square_schedule, grid_deployment):
        for node in range(grid_deployment.num_nodes):
            sq = square_schedule.square_of_node(node)
            assert node in square_schedule.members_of_square(sq)

    def test_listening_slots_include_own_and_source(self, square_schedule, grid_deployment):
        node = 0 if grid_deployment.source_index != 0 else 1
        slots = square_schedule.listening_slots_of_node(node)
        assert SOURCE_SLOT in slots
        assert square_schedule.slot_of_node(node) in slots
        # at most: source + own + 8 neighbors
        assert len(slots) <= 10

    def test_num_slots_is_order_r_squared(self):
        """The schedule size does not grow with the map, only with R / side."""
        small = grid_jittered_deployment(8, 8, spacing=1.0)
        large = grid_jittered_deployment(20, 20, spacing=1.0)
        sched_small = SquareSchedule(SquareGrid(8, 8, 1.0), 3.0, small.positions, small.source_index)
        sched_large = SquareSchedule(SquareGrid(20, 20, 1.0), 3.0, large.positions, large.source_index)
        assert sched_small.num_slots == sched_large.num_slots

    def test_squares_of_slot_inverse(self, square_schedule):
        for slot in range(1, square_schedule.num_slots):
            for square in square_schedule.squares_of_slot(slot):
                assert square_schedule.slot_of_square(square) == slot

    def test_invalid_source_index(self, grid_deployment):
        grid = SquareGrid(10, 10, side=1.0)
        with pytest.raises(ValueError):
            SquareSchedule(grid, 3.0, grid_deployment.positions, source_index=10_000)

    def test_invalid_radius(self, grid_deployment):
        grid = SquareGrid(10, 10, side=1.0)
        with pytest.raises(ValueError):
            SquareSchedule(grid, 0.0, grid_deployment.positions, grid_deployment.source_index)


class TestNodeSchedule:
    @pytest.fixture
    def node_schedule(self):
        dep = uniform_deployment(80, 10, 10, rng=3)
        return dep, NodeSchedule(dep.positions, radius=3.0, source_index=dep.source_index)

    def test_source_owns_slot_zero(self, node_schedule):
        dep, sched = node_schedule
        assert sched.slot_of_node(dep.source_index) == SOURCE_SLOT
        assert sched.owners_of_slot(SOURCE_SLOT) == (dep.source_index,)

    def test_every_node_has_a_slot(self, node_schedule):
        dep, sched = node_schedule
        for node in range(dep.num_nodes):
            slot = sched.slot_of_node(node)
            assert 0 <= slot < sched.num_slots
            assert node in sched.owners_of_slot(slot)

    def test_conflict_freedom(self, node_schedule):
        """No two devices within the separation distance share a slot."""
        dep, sched = node_schedule
        dist = pairwise_distances(dep.positions, norm="l2")
        n = dep.num_nodes
        for a in range(n):
            for b in range(a + 1, n):
                if dist[a, b] <= sched.separation:
                    assert sched.slot_of_node(a) != sched.slot_of_node(b)

    def test_neighbor_slots_cover_neighbors(self, node_schedule):
        dep, sched = node_schedule
        dist = pairwise_distances(dep.positions, norm="l2")
        for node in range(0, dep.num_nodes, 7):
            slots = set(sched.neighbor_slots_of_node(node))
            for other in range(dep.num_nodes):
                if other != node and dist[node, other] <= 3.0:
                    assert sched.slot_of_node(other) in slots

    def test_owner_in_neighborhood_unique(self, node_schedule):
        dep, sched = node_schedule
        dist = pairwise_distances(dep.positions, norm="l2")
        for node in range(0, dep.num_nodes, 5):
            for other in range(dep.num_nodes):
                if other != node and dist[node, other] <= 3.0:
                    slot = sched.slot_of_node(other)
                    assert sched.owner_in_neighborhood(slot, node) == other

    def test_owner_in_neighborhood_none_when_out_of_range(self, node_schedule):
        dep, sched = node_schedule
        dist = pairwise_distances(dep.positions, norm="l2")
        # find a slot whose owners are all far from node 0
        for slot in range(sched.num_slots):
            owners = sched.owners_of_slot(slot)
            if owners and all(dist[0, o] > 3.0 for o in owners):
                assert sched.owner_in_neighborhood(slot, 0) is None
                break

    @pytest.mark.parametrize("norm", ["l2", "linf"])
    def test_within_is_the_symmetric_distance_predicate(self, norm):
        dep = uniform_deployment(40, 10, 10, rng=3)
        sched = NodeSchedule(dep.positions, radius=3.0, source_index=dep.source_index, norm=norm)
        pos = sched.positions
        reach = 3.0 + 1e-9
        for a in range(dep.num_nodes):
            for b in range(dep.num_nodes):
                diff = pos[a] - pos[b]
                d = float(np.max(np.abs(diff))) if norm == "linf" else float(np.sqrt(np.sum(diff**2)))
                assert sched.within(a, b, reach) == (d <= reach)
                assert sched.within(b, a, reach) == sched.within(a, b, reach)
        assert not sched.within(0, 1, -1.0)

    def test_deterministic(self):
        dep = uniform_deployment(60, 10, 10, rng=5)
        s1 = NodeSchedule(dep.positions, 3.0, dep.source_index)
        s2 = NodeSchedule(dep.positions, 3.0, dep.source_index)
        assert [s1.slot_of_node(i) for i in range(60)] == [s2.slot_of_node(i) for i in range(60)]

    def test_phases_per_slot_configurable(self):
        dep = uniform_deployment(30, 8, 8, rng=2)
        sched = NodeSchedule(dep.positions, 3.0, dep.source_index, phases_per_slot=1)
        assert sched.phases_per_slot == 1
        assert sched.rounds_per_cycle == sched.num_slots

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=1000))
    def test_conflict_freedom_property(self, n, seed):
        dep = uniform_deployment(n, 8, 8, rng=seed)
        sched = NodeSchedule(dep.positions, radius=2.0, source_index=dep.source_index, separation=4.0)
        dist = pairwise_distances(dep.positions, norm="l2")
        for a in range(n):
            for b in range(a + 1, n):
                if dist[a, b] <= 4.0:
                    assert sched.slot_of_node(a) != sched.slot_of_node(b)


class TestIterSlotStarts:
    """The engine's cycle iterator must agree with locate_round slot by slot."""

    def test_matches_locate_round(self, square_schedule):
        sched = square_schedule
        phases = sched.phases_per_slot
        it = sched.iter_slot_starts(0)
        for k in range(3 * sched.num_slots + 5):
            round_index = k * phases
            assert next(it) == sched.locate_round(round_index)[:2]

    def test_starts_mid_schedule(self, square_schedule):
        sched = square_schedule
        start = 2 * sched.phases_per_slot
        it = sched.iter_slot_starts(start)
        assert next(it) == sched.locate_round(start)[:2]

    def test_unaligned_start_rejected(self, square_schedule):
        if square_schedule.phases_per_slot < 2:
            pytest.skip("needs multi-phase slots")
        with pytest.raises(ValueError):
            next(square_schedule.iter_slot_starts(1))


class TestNeighborSlotTable:
    """neighbor_slots_of_node answers from a cached all-nodes table; the
    answers must equal the direct per-node computation."""

    def test_table_matches_direct_computation(self):
        dep = uniform_deployment(50, 8, 8, rng=9)
        sched = NodeSchedule(dep.positions, 3.0, dep.source_index)
        pos = sched.positions
        for node in range(50):
            d = np.sqrt(np.sum((pos - pos[node][None, :]) ** 2, axis=1))
            nearby = np.nonzero(d <= sched.radius)[0]
            expected = sorted({0} | {int(sched.slot_of_node(int(nb))) for nb in nearby})
            assert sched.neighbor_slots_of_node(node) == expected

    def test_custom_radius_gets_its_own_table(self):
        dep = uniform_deployment(30, 8, 8, rng=4)
        sched = NodeSchedule(dep.positions, 2.0, dep.source_index)
        wide = sched.neighbor_slots_of_node(0, listen_radius=6.0)
        narrow = sched.neighbor_slots_of_node(0, listen_radius=2.0)
        assert set(narrow) <= set(wide)

    def test_returned_lists_are_copies(self):
        dep = uniform_deployment(20, 8, 8, rng=3)
        sched = NodeSchedule(dep.positions, 3.0, dep.source_index)
        first = sched.neighbor_slots_of_node(1)
        first.append(999)
        assert 999 not in sched.neighbor_slots_of_node(1)


class TestGreedyColouringReference:
    """The vectorised colouring loop must assign exactly the slots the
    original per-neighbor Python loop did."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=2, max_value=50), st.integers(min_value=0, max_value=500))
    def test_matches_reference_implementation(self, n, seed):
        dep = uniform_deployment(n, 8, 8, rng=seed)
        sched = NodeSchedule(dep.positions, 2.0, dep.source_index, separation=4.0)
        dist = pairwise_distances(sched.positions, norm="l2")
        conflict = dist <= sched.separation
        np.fill_diagonal(conflict, False)
        reference = np.zeros(n, dtype=int)
        for node in range(n):
            if node == sched.source_index:
                reference[node] = 0
                continue
            used = {0}
            for nb in np.nonzero(conflict[node])[0]:
                if nb < node or nb == sched.source_index:
                    used.add(int(reference[nb]))
            slot = 1
            while slot in used:
                slot += 1
            reference[node] = slot
        assert [sched.slot_of_node(i) for i in range(n)] == reference.tolist()


def dense_row(positions: np.ndarray, node: int, norm: str) -> np.ndarray:
    """Distances from ``node`` to every device: the dense expression, one row."""
    diff = positions - positions[node]
    if norm == "linf":
        return np.max(np.abs(diff), axis=-1)
    return np.sqrt(np.sum(diff**2, axis=-1))


def colouring_loop(schedule: NodeSchedule) -> list[int]:
    """The per-device colouring loop NodeSchedule ran before its waves.

    Kept as the reference the wave colouring must reproduce: devices in id
    order, each taking the lowest slot above SOURCE_SLOT that no
    already-coloured conflict neighbour (ids below it, plus the source)
    holds.  Each conflict row is measured by brute force.
    """
    n = schedule.positions.shape[0]
    slots = np.zeros(n, dtype=int)
    source = schedule.source_index
    for node in range(n):
        if node == source:
            slots[node] = SOURCE_SLOT
            continue
        near = dense_row(schedule.positions, node, schedule.norm) <= schedule.separation
        neighbors = np.flatnonzero(near)
        decided = neighbors[(neighbors < node) | (neighbors == source)]
        used = set(slots[decided].tolist())
        used.add(SOURCE_SLOT)
        slot = 1
        while slot in used:
            slot += 1
        slots[node] = slot
    return slots.tolist()


def owners_loop(slots: list[int]) -> dict[int, tuple[int, ...]]:
    """The per-device owner grouping that went with the loop."""
    grouped: dict[int, list[int]] = {}
    for node, slot in enumerate(slots):
        grouped.setdefault(slot, []).append(node)
    return {slot: tuple(ids) for slot, ids in grouped.items()}


def _assert_matches_the_loop(schedule: NodeSchedule) -> None:
    n = schedule.positions.shape[0]
    want = colouring_loop(schedule)
    assert [schedule.slot_of_node(i) for i in range(n)] == want
    assert schedule.num_slots == max(want) + 1
    owners = owners_loop(want)
    for slot in range(schedule.num_slots + 1):
        assert schedule.owners_of_slot(slot) == owners.get(slot, ())


@st.composite
def deployments(draw, max_nodes: int = 90):
    """Positions of one of three kinds, with duplicates, and a source anywhere.

    Uniform floats; integer-grid points, where many pairs sit exactly at a
    separation under either norm; half-grid points (multiples of 0.5).  The
    grid kinds draw from few points, so devices share positions and the
    conflict graph holds cliques.
    """
    n = draw(st.integers(2, max_nodes))
    kind = draw(st.sampled_from(["uniform", "integer", "half"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    side = draw(st.integers(1, 14))
    if kind == "uniform":
        positions = rng.uniform(0.0, side, size=(n, 2))
    elif kind == "integer":
        positions = rng.integers(0, side + 1, size=(n, 2)).astype(float)
    else:
        positions = rng.integers(0, 2 * side + 1, size=(n, 2)) * 0.5
    source = draw(st.integers(0, n - 1))
    return positions, source


class TestWaveColouring:
    """NodeSchedule colours in waves; its slots must be the loop's exactly."""

    @settings(max_examples=120, deadline=None)
    @given(
        deployment=deployments(),
        radius=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
        separation=st.sampled_from([None, 1.0, 2.0, 4.5]),
        norm=st.sampled_from(["l2", "linf"]),
    )
    def test_slots_match_the_loop(self, deployment, radius, separation, norm):
        positions, source = deployment
        schedule = NodeSchedule(positions, radius, source, separation=separation, norm=norm)
        _assert_matches_the_loop(schedule)

    @pytest.mark.parametrize("source", [0, 1])
    @pytest.mark.parametrize("norm", ["l2", "linf"])
    def test_two_devices(self, source, norm):
        for gap in (0.0, 1.0, 50.0):
            positions = np.array([[0.0, 0.0], [gap, 0.0]])
            schedule = NodeSchedule(positions, 1.0, source, norm=norm)
            _assert_matches_the_loop(schedule)
            assert schedule.num_slots == 2

    def test_no_conflict_pairs(self):
        # Every device out of everyone's reach: all share slot 1.
        positions = np.column_stack([np.arange(30) * 10.0, np.zeros(30)])
        schedule = NodeSchedule(positions, 1.0, 17)
        _assert_matches_the_loop(schedule)
        assert schedule.owners_of_slot(1) == tuple(i for i in range(30) if i != 17)

    @pytest.mark.parametrize("source", [0, 5, 11])
    def test_clique_takes_every_slot(self, source):
        # Twelve devices at one point: each device's lower neighbours hold
        # exactly the slots 1..d below the one it takes.
        schedule = NodeSchedule(np.zeros((12, 2)), 1.0, source)
        _assert_matches_the_loop(schedule)
        assert schedule.num_slots == 12

    @pytest.mark.parametrize("norm", ["l2", "linf"])
    def test_bucketed_deployment(self, norm):
        # 2,500 devices on integer positions with duplicates: many pairs sit
        # exactly at 3R, and the grid-bucketed rows cover many cells.
        rng = np.random.default_rng(23)
        positions = rng.integers(0, 60, size=(2500, 2)).astype(float)
        schedule = NodeSchedule(positions, 1.0, 1234, norm=norm)
        _assert_matches_the_loop(schedule)


def scan_owner(schedule: NodeSchedule, dist: np.ndarray, slot: int, node: int, reach: float):
    """The map-wide owner scan NodeSchedule ran before it read bucketed rows."""
    owners = [owner for owner in schedule.owners_of_slot(slot) if dist[owner, node] <= reach]
    return owners[0] if len(owners) == 1 else None


class TestNeighbourhoodAnswers:
    """NodeSchedule's distance answers against the dense matrix and the scan.

    The reference is ``pairwise_distances`` plus the map-wide scan over a
    slot's owners.  Integer and half-grid positions put pairs exactly at R,
    2R and 3R and give devices duplicate positions; separations below R
    and below 2R make owners ambiguous (several holders in range, so no
    owner), in both norms.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        deployment=deployments(max_nodes=50),
        radius=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
        separation=st.sampled_from([None, 0.5, 1.5, 2.0, 4.0]),
        norm=st.sampled_from(["l2", "linf"]),
    )
    def test_matches_the_dense_scan(self, deployment, radius, separation, norm):
        positions, source = deployment
        if separation is not None:
            separation *= radius
        schedule = NodeSchedule(positions, radius, source, separation=separation, norm=norm)
        dist = pairwise_distances(positions, norm=norm)
        n = positions.shape[0]
        slot_of = [schedule.slot_of_node(i) for i in range(n)]
        cause_reach = 2.0 * radius + 1e-9
        reach = radius + 1e-9
        for node in range(n):
            near = np.flatnonzero(dist[node] <= radius).tolist()
            want_slots = sorted({SOURCE_SLOT, *(slot_of[j] for j in near)})
            assert schedule.neighbor_slots_of_node(node) == want_slots
            for slot in range(schedule.num_slots + 1):
                want = scan_owner(schedule, dist, slot, node, radius)
                assert schedule.owner_in_neighborhood(slot, node) == want
                want = scan_owner(schedule, dist, slot, node, cause_reach)
                assert schedule.owner_in_neighborhood(slot, node, cause_reach) == want
            for other in range(n):
                assert schedule.within(node, other, reach) == (dist[node, other] <= reach)

    @pytest.mark.parametrize("norm", ["l2", "linf"])
    def test_listen_radius_beyond_the_separation(self, norm):
        # A listening radius past the separation: several holders of one
        # slot in range, so those slots name no device.
        dep = uniform_deployment(150, 12, 12, rng=3)
        schedule = NodeSchedule(dep.positions, 2.0, dep.source_index, norm=norm)
        dist = pairwise_distances(dep.positions, norm=norm)
        listen = schedule.separation + schedule.radius
        ambiguous = 0
        for node in range(150):
            near = np.flatnonzero(dist[node] <= listen).tolist()
            slots = sorted({SOURCE_SLOT, *(schedule.slot_of_node(j) for j in near)})
            assert schedule.neighbor_slots_of_node(node, listen) == slots
            for slot in slots:
                want = scan_owner(schedule, dist, slot, node, listen)
                assert schedule.owner_in_neighborhood(slot, node, listen) == want
                ambiguous += want is None and slot != SOURCE_SLOT
        assert ambiguous > 0


def per_device_walk(schedule: SquareSchedule, node: int) -> tuple[int, ...]:
    """The receiver-slot walk NeighborWatchRB set-up made for every device."""
    square = schedule.square_of_node(node)
    own = schedule.slot_of_square(square)
    slots: dict[int, None] = {}
    for neighbor in schedule.grid.neighbors(square):
        slot = schedule.slot_of_square(neighbor)
        if slot != own:
            slots.setdefault(slot, None)
    return tuple(slots)


class TestNeighborSquareSlots:
    """The per-square receiver-slot table against the per-device walk."""

    @pytest.fixture
    def repeating(self):
        # separation == side gives pattern_size 2, so the eight neighbours
        # of an inner square fall on three slots, each repeated.  Square
        # (4, 3) holds one device, square (1, 1) none, the rest two each.
        positions = []
        for col in range(6):
            for row in range(5):
                if (col, row) == (1, 1):
                    continue
                positions.append((col + 0.25, row + 0.3))
                if (col, row) != (4, 3):
                    positions.append((col + 0.7, row + 0.8))
        positions = np.asarray(positions)
        grid = SquareGrid(6, 5, side=1.0)
        schedule = SquareSchedule(grid, radius=3.0, positions=positions, source_index=0,
                                  separation=1.0)
        assert schedule.pattern_size == 2
        return schedule

    def test_every_square_matches_the_walk(self, repeating):
        grid = repeating.grid
        inner = 0
        for square in grid.iter_squares():
            walk = {}
            for neighbor in grid.neighbors(square):
                walk.setdefault(repeating.slot_of_square(neighbor), None)
            walk.pop(repeating.slot_of_square(square), None)
            slots = repeating.neighbor_square_slots(square)
            assert slots == tuple(walk)
            assert repeating.neighbor_square_slots(square) is slots
            if len(grid.neighbors(square)) == 8:
                inner += 1
                assert len(slots) == 3
        assert inner == 4 * 3

    def test_every_device_matches_the_walk(self, repeating):
        lone = [i for i in range(repeating.positions.shape[0])
                if repeating.members_of_square(repeating.square_of_node(i)) == [i]]
        assert [repeating.square_of_node(i) for i in lone] == [(4, 3)]
        for node in range(repeating.positions.shape[0]):
            square = repeating.square_of_node(node)
            assert repeating.neighbor_square_slots(square) == per_device_walk(repeating, node)
            old = {SOURCE_SLOT, repeating.slot_of_square(square)}
            old.update(repeating.slot_of_square(nb) for nb in repeating.grid.neighbors(square))
            assert repeating.listening_slots_of_node(node) == sorted(old)

    def test_neighborwatch_receivers_follow_the_walk(self, repeating):
        from repro.core.neighborwatch import NeighborWatchNode
        from repro.core.protocol import NodeContext

        source = repeating.positions[repeating.source_index]
        for node in range(1, repeating.positions.shape[0]):
            position = tuple(float(v) for v in repeating.positions[node])
            proto = NeighborWatchNode()
            proto.setup(NodeContext(node_id=node, position=position, radius=3.0,
                                    schedule=repeating, message_length=2))
            in_range = float(np.hypot(*(repeating.positions[node] - source))) <= 3.0
            want = list(per_device_walk(repeating, node)) + [SOURCE_SLOT] * in_range
            assert list(proto._receivers) == want
