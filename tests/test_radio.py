"""Unit tests for the channel models (repro.sim.radio)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.messages import Frame, FrameKind
from repro.core.protocol import ChannelState
from repro.sim.radio import FriisChannel, Transmission, UnitDiskChannel


def tx(sender, x, y, kind=FrameKind.DATA_BIT):
    return Transmission(sender, (float(x), float(y)), Frame(kind, sender))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestUnitDiskChannel:
    def test_silence_with_no_transmitters(self, rng):
        chan = UnitDiskChannel(2.0)
        obs = chan.observe([0, 1], np.array([[0, 0], [1, 1]], float), [], rng)
        assert [o.state for o in obs] == [ChannelState.SILENT, ChannelState.SILENT]

    def test_single_transmitter_in_range_decodes(self, rng):
        chan = UnitDiskChannel(2.0)
        obs = chan.observe([0], np.array([[0.0, 0.0]]), [tx(5, 1.0, 1.0)], rng)
        assert obs[0].state is ChannelState.MESSAGE
        assert obs[0].frame.sender == 5
        assert obs[0].busy

    def test_single_transmitter_out_of_range_is_silent(self, rng):
        chan = UnitDiskChannel(2.0)
        obs = chan.observe([0], np.array([[0.0, 0.0]]), [tx(5, 5.0, 0.0)], rng)
        assert obs[0].state is ChannelState.SILENT
        assert not obs[0].busy

    def test_two_transmitters_collide(self, rng):
        chan = UnitDiskChannel(2.0)
        obs = chan.observe([0], np.array([[0.0, 0.0]]), [tx(1, 1.0, 0.0), tx(2, 0.0, 1.0)], rng)
        assert obs[0].state is ChannelState.COLLISION
        assert obs[0].busy
        assert obs[0].decoded is None

    def test_collision_only_affects_listeners_hearing_both(self, rng):
        chan = UnitDiskChannel(2.0)
        listeners = np.array([[0.0, 0.0], [10.0, 0.0]])
        obs = chan.observe([0, 1], listeners, [tx(1, 1.0, 0.0), tx(2, 9.0, 0.0)], rng)
        assert obs[0].state is ChannelState.MESSAGE
        assert obs[0].frame.sender == 1
        assert obs[1].state is ChannelState.MESSAGE
        assert obs[1].frame.sender == 2

    def test_linf_norm_range(self, rng):
        chan = UnitDiskChannel(2.0, norm="linf")
        # (2, 2) is within L-inf range 2 but outside L2 range 2*sqrt(2) > 2.
        obs = chan.observe([0], np.array([[0.0, 0.0]]), [tx(1, 2.0, 2.0)], rng)
        assert obs[0].state is ChannelState.MESSAGE

    def test_capture_probability_one_always_decodes_something(self, rng):
        chan = UnitDiskChannel(2.0, capture_probability=1.0)
        obs = chan.observe([0], np.array([[0.0, 0.0]]), [tx(1, 1.0, 0.0), tx(2, 0.0, 1.0)], rng)
        assert obs[0].state is ChannelState.MESSAGE
        assert obs[0].frame.sender in (1, 2)

    def test_loss_probability_one_turns_messages_into_collisions(self, rng):
        chan = UnitDiskChannel(2.0, loss_probability=1.0)
        obs = chan.observe([0], np.array([[0.0, 0.0]]), [tx(1, 1.0, 0.0)], rng)
        # The frame is lost but the energy is still sensed: silence is never forged.
        assert obs[0].state is ChannelState.COLLISION

    def test_empty_listener_list(self, rng):
        chan = UnitDiskChannel(2.0)
        assert chan.observe([], np.empty((0, 2)), [tx(1, 0, 0)], rng) == []

    def test_range_boundary(self, rng):
        chan = UnitDiskChannel(2.0)
        at_range = chan.observe([0], np.array([[0.0, 0.0]]), [tx(1, 2.0, 0.0)], rng)
        assert at_range[0].state is ChannelState.MESSAGE
        beyond = chan.observe([0], np.array([[0.0, 0.0]]), [tx(1, 2.5, 0.0)], rng)
        assert beyond[0].state is ChannelState.SILENT

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            UnitDiskChannel(0)
        with pytest.raises(ValueError):
            UnitDiskChannel(1, capture_probability=1.5)
        with pytest.raises(ValueError):
            UnitDiskChannel(1, loss_probability=-0.1)
        with pytest.raises(ValueError):
            UnitDiskChannel(1, norm="manhattan")


class TestFriisChannel:
    def test_lone_transmission_within_range_decodes(self, rng):
        chan = FriisChannel(reception_range=4.0)
        obs = chan.observe([0], np.array([[0.0, 0.0]]), [tx(1, 3.0, 0.0)], rng)
        assert obs[0].state is ChannelState.MESSAGE

    def test_lone_transmission_beyond_sense_range_is_silent(self, rng):
        chan = FriisChannel(reception_range=4.0, sense_range_factor=1.5)
        obs = chan.observe([0], np.array([[0.0, 0.0]]), [tx(1, 10.0, 0.0)], rng)
        assert obs[0].state is ChannelState.SILENT

    def test_transmission_in_grey_zone_is_sensed_but_not_decoded(self, rng):
        chan = FriisChannel(reception_range=4.0, sense_range_factor=2.0)
        obs = chan.observe([0], np.array([[0.0, 0.0]]), [tx(1, 6.0, 0.0)], rng)
        assert obs[0].state is ChannelState.COLLISION

    def test_capture_effect_near_far(self, rng):
        """A much closer transmitter captures the channel despite interference."""
        chan = FriisChannel(reception_range=4.0, capture_threshold_db=6.0)
        obs = chan.observe(
            [0], np.array([[0.0, 0.0]]), [tx(1, 1.0, 0.0), tx(2, 4.0, 0.0)], rng
        )
        assert obs[0].state is ChannelState.MESSAGE
        assert obs[0].frame.sender == 1

    def test_comparable_powers_collide(self, rng):
        chan = FriisChannel(reception_range=4.0, capture_threshold_db=6.0)
        obs = chan.observe(
            [0], np.array([[0.0, 0.0]]), [tx(1, 2.0, 0.0), tx(2, 0.0, 2.0)], rng
        )
        assert obs[0].state is ChannelState.COLLISION

    def test_sense_range_property(self, rng):
        chan = FriisChannel(reception_range=4.0, sense_range_factor=1.5)
        assert chan.sense_range == pytest.approx(6.0)
        sensed = chan.observe([0], np.array([[0.0, 0.0]]), [tx(1, 5.9, 0.0)], rng)
        assert sensed[0].busy
        beyond = chan.observe([0], np.array([[0.0, 0.0]]), [tx(1, 6.2, 0.0)], rng)
        assert beyond[0].state is ChannelState.SILENT

    def test_loss_probability(self, rng):
        chan = FriisChannel(reception_range=4.0, loss_probability=1.0)
        obs = chan.observe([0], np.array([[0.0, 0.0]]), [tx(1, 1.0, 0.0)], rng)
        assert obs[0].state is ChannelState.COLLISION

    def test_no_transmitters(self, rng):
        chan = FriisChannel(reception_range=4.0)
        obs = chan.observe([0], np.array([[0.0, 0.0]]), [], rng)
        assert obs[0].state is ChannelState.SILENT

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FriisChannel(0)
        with pytest.raises(ValueError):
            FriisChannel(4, path_loss_exponent=0)
        with pytest.raises(ValueError):
            FriisChannel(4, sense_range_factor=0.5)
        with pytest.raises(ValueError):
            FriisChannel(4, loss_probability=2.0)

    def test_power_monotonically_decreasing(self):
        chan = FriisChannel(reception_range=4.0)
        powers = [chan._power_at(d) for d in (1.0, 2.0, 4.0, 8.0)]
        assert powers == sorted(powers, reverse=True)

    def test_reception_threshold_consistent_with_range(self):
        chan = FriisChannel(reception_range=4.0)
        assert chan._power_at(4.0) == pytest.approx(chan.reception_threshold)
        assert chan._power_at(4.5) < chan.reception_threshold


class TestLinkStateEquivalence:
    """resolve_links over a slice of the precomputed link state must reproduce
    observe() exactly — same observations, same RNG consumption — for every
    channel."""

    @staticmethod
    def _random_round(rng, num_nodes=40, num_tx=3):
        positions = rng.uniform(0, 10, size=(num_nodes, 2))
        tx_ids = list(rng.choice(num_nodes, size=num_tx, replace=False))
        listener_ids = [i for i in range(num_nodes) if i not in tx_ids]
        transmissions = [
            Transmission(int(t), (float(positions[t, 0]), float(positions[t, 1])),
                         Frame(FrameKind.DATA_BIT, int(t)))
            for t in tx_ids
        ]
        return positions, listener_ids, transmissions

    @pytest.mark.parametrize(
        "channel_factory",
        [
            lambda: UnitDiskChannel(3.0),
            lambda: UnitDiskChannel(3.0, norm="linf"),
            lambda: UnitDiskChannel(3.0, capture_probability=0.5, loss_probability=0.3),
            lambda: FriisChannel(reception_range=3.0, loss_probability=0.3),
        ],
    )
    def test_resolve_links_matches_observe(self, channel_factory):
        setup_rng = np.random.default_rng(7)
        chan = channel_factory()
        for trial in range(5):
            positions, listener_ids, transmissions = self._random_round(setup_rng)
            state = chan.link_state(positions)
            senders = [t.sender for t in transmissions]
            rng_a = np.random.default_rng(trial)
            rng_b = np.random.default_rng(trial)
            direct = chan.observe(listener_ids, positions[listener_ids], transmissions, rng_a)
            via_links = chan.resolve_links(
                state[np.ix_(listener_ids, senders)], transmissions, rng_b
            )
            assert direct == via_links
            assert rng_a.random() == rng_b.random()

    def test_link_signature_distinguishes_parameters(self):
        assert UnitDiskChannel(3.0).link_signature() != UnitDiskChannel(4.0).link_signature()
        assert UnitDiskChannel(3.0).link_signature() != UnitDiskChannel(3.0, norm="linf").link_signature()
        assert FriisChannel(3.0).link_signature() is not None

    @pytest.mark.parametrize("norm", ["l2", "linf"])
    def test_link_state_matches_distance_predicate_at_boundaries(self, norm):
        # The mask is scattered from the grid CSR, so it is checked against
        # the distance predicate observe() uses.  With R = 2, the
        # half-integer grid puts many pairs exactly at R and the 0.2 grid
        # puts l2 pairs a rounding error above it (inside the 1e-12
        # tolerance); both span negative coordinates, hold coincident
        # devices and have more than 512 nodes.
        rng = np.random.default_rng(3)
        layouts = [
            np.empty((0, 2)),
            np.array([[-1.5, 0.5]]),
            rng.integers(-24, 25, size=(700, 2)) * 0.5,
            rng.integers(-40, 41, size=(600, 2)) * 0.2,
            rng.uniform(-40, 40, size=(600, 2)),
        ]
        chan = UnitDiskChannel(2.0, norm=norm)
        for positions in layouts:
            state = chan.link_state(positions)
            expected = chan._distances(positions, positions) <= 2.0 + 1e-12
            assert state.dtype == expected.dtype and state.shape == expected.shape
            assert np.array_equal(state, expected)


class TestSparseLinkState:
    """Sparse link states must recompute exact dense blocks from positions."""

    @pytest.mark.parametrize("norm", ["l2", "linf"])
    def test_unitdisk_submatrix_bitwise_equal(self, norm):
        rng = np.random.default_rng(11)
        positions = rng.uniform(0, 15, size=(120, 2))
        chan = UnitDiskChannel(3.0, norm=norm)
        dense = chan.link_state(positions)
        sparse = chan.link_state_sparse(positions)
        listeners = list(range(0, 120, 3))
        senders = list(range(1, 120, 7))
        # Both forms are read off one CSR, so each is checked against the
        # distance predicate observe() uses rather than against the other.
        predicate = chan._distances(positions, positions) <= 3.0 + 1e-12
        want = predicate[np.ix_(listeners, senders)]
        assert np.array_equal(sparse.submatrix(listeners, senders), want)
        assert np.array_equal(dense[np.ix_(listeners, senders)], want)

    def test_friis_submatrix_bitwise_equal(self):
        rng = np.random.default_rng(12)
        positions = rng.uniform(0, 15, size=(90, 2))
        chan = FriisChannel(reception_range=3.0)
        dense = chan.link_state(positions)
        sparse = chan.link_state_sparse(positions)
        listeners = list(range(0, 90, 2))
        senders = list(range(1, 90, 5))
        assert np.array_equal(
            sparse.submatrix(listeners, senders), dense[np.ix_(listeners, senders)]
        )
