"""Radio channel models.

Two propagation models are provided, mirroring the paper's two system models:

* :class:`UnitDiskChannel` — the analytical model: a transmission is heard by
  every device within distance ``R`` (L-infinity or L2); a listener hearing
  exactly one transmission decodes it, a listener hearing several detects a
  collision (optionally, the *capture* behaviour of the analytical model lets
  it decode one of them instead), and a listener hearing none perceives
  silence.
* :class:`FriisChannel` — the simulation model: Friis free-space path loss
  with configurable exponent, a reception threshold, SINR-based capture (the
  strongest signal is decoded when it sufficiently dominates the interference,
  reproducing WSNet's capture effect), a carrier-sense threshold below the
  reception threshold, and optional independent packet loss.

Both channels operate on batches: given the listeners and the transmitters of
one round they return one observation per listener.  Each channel resolves a
round one way, a loop over the listeners that draws the RNG in listener order;
the struct-of-arrays kernels (:mod:`repro.sim.soa`) replay its float64
expressions and draw counts, so they are bit-identical to it.

Precomputed link state
----------------------
For a static deployment the pairwise quantity a channel derives from node
positions (audibility for the unit-disk model, received power for Friis) never
changes during a run.  Channels therefore expose :meth:`Channel.link_state`,
which precomputes that quantity for *all* node pairs once as a dense matrix,
:meth:`Channel.link_state_sparse`, which keeps positions (plus, for the unit
disk, a CSR audibility graph) instead, and :meth:`Channel.resolve_links`,
which resolves a round from the exact ``(listeners, senders)`` block of
either (:func:`~repro.sim.linkstate.link_block`) instead of recomputing
distances.  The node count alone picks the form
(:func:`~repro.sim.engine.default_spatial_tiling`).  This is the only way the
engine resolves a round against a link state.  The engine caches the state
per ``(channel, positions)`` pair and its slot plans cache the blocks, which
removes the per-round distance computation from the hot path.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.messages import Frame
from ..core.protocol import ChannelState, Observation, SILENCE
from ..registry import ChannelPlugin, register_channel
from .linkstate import FriisLinkState, SparseLinkState, UnitDiskLinkState, unit_disk_csr

__all__ = [
    "Transmission",
    "Channel",
    "UnitDiskChannel",
    "FriisChannel",
    "SoaRoundSupport",
    "message_observation",
]

_COLLISION = Observation(ChannelState.COLLISION)

#: Interned ``Observation(MESSAGE, frame)`` objects keyed by frame.  Protocols
#: put a small alphabet of frames on the air over and over (the same veto/ack
#: frame every cycle), so decoding allocates the same observation millions of
#: times per run without this table.  Bounded by wholesale clearing: entries
#: are pure values, so dropping them is always safe.
_MESSAGE_OBSERVATIONS: dict = {}
_MESSAGE_OBSERVATIONS_MAX = 4096


def message_observation(frame: Frame) -> Observation:
    """The interned ``Observation(MESSAGE, frame)`` for a decoded frame."""
    obs = _MESSAGE_OBSERVATIONS.get(frame)
    if obs is None:
        if len(_MESSAGE_OBSERVATIONS) >= _MESSAGE_OBSERVATIONS_MAX:
            _MESSAGE_OBSERVATIONS.clear()
        obs = Observation(ChannelState.MESSAGE, frame)
        _MESSAGE_OBSERVATIONS[frame] = obs
    return obs


@dataclass(frozen=True, slots=True)
class Transmission:
    """One frame put on the air in the current round."""

    sender: int
    position: tuple[float, float]
    frame: Frame


@dataclass(frozen=True, slots=True)
class SoaRoundSupport:
    """Per-capability verdict of :meth:`Channel.soa_round_support`.

    The struct-of-arrays tier (:mod:`repro.sim.soa`) compiles whole slots
    into mask kernels; whether that is sound is not one predicate but a
    conjunction of independent capabilities, and the *reasons* matter —
    ``experiments describe`` and the run summaries surface them so a user
    can see exactly which capability forced a slower tier.

    Attributes
    ----------
    eligible:
        Overall verdict: every capability below holds, so the SoA tier may
        compile slots for this channel configuration.
    busy:
        How the kernels must compute the per-listener busy flag:
        ``"disjunction"`` (unit disk — busy iff *some* transmission is
        individually audible) or ``"power-sum"`` (Friis — busy iff the
        summed received power clears the carrier-sense threshold).
    loss_probability:
        The per-decodable-listener loss draw probability the kernels must
        replay (``0.0`` means the configuration draws nothing).  The draws
        are listener-ordered, so one batched ``rng.random(k)`` per phase
        consumes the generator exactly like the scalar loop (the PR 3
        contract).
    verdicts:
        ``(capability, ok, reason)`` triples, one per capability —
        ``channel`` (busy model), ``loss``, ``capture`` and ``trace``.
        ``reason`` explains the verdict either way; for a failed capability
        it says *why* the configuration stays on the cohort/scalar tiers.
    """

    eligible: bool
    busy: str
    loss_probability: float
    verdicts: tuple

    def blockers(self) -> list[tuple[str, str]]:
        """The failed capabilities as ``(capability, reason)`` pairs."""
        return [(name, reason) for name, ok, reason in self.verdicts if not ok]


class Channel(abc.ABC):
    """Interface of a per-round channel model."""

    @abc.abstractmethod
    def observe(
        self,
        listener_ids: Sequence[int],
        listener_positions: np.ndarray,
        transmissions: Sequence[Transmission],
        rng: np.random.Generator,
    ) -> list[Observation]:
        """Observation perceived by every listener given this round's transmissions."""

    def link_signature(self) -> Optional[tuple]:
        """Hashable key identifying this channel's link-state semantics.

        Channels that support precomputed link state return a tuple of the
        parameters that determine :meth:`link_state` (used by the engine to
        cache states across simulations over the same deployment); channels
        without a precomputable link state return ``None``.
        """
        return None

    def link_state(self, positions: np.ndarray) -> object:
        """Precomputed pairwise link state for a static deployment.

        ``positions`` is the ``(N, 2)`` array of all node positions; the
        matrix is channel-specific (an audibility mask for
        :class:`UnitDiskChannel`, received powers for :class:`FriisChannel`)
        and opaque to the engine, which only slices blocks of it for
        :meth:`resolve_links`.  The engine calls it only when
        :meth:`link_signature` returned a key, for deployments of at most
        :data:`~repro.sim.engine.SPATIAL_TILING_AUTO_NODES` nodes.
        """
        raise NotImplementedError

    def link_state_sparse(self, positions: np.ndarray) -> SparseLinkState:
        """Sparse link state (no dense matrix) for a static deployment.

        Returns a :class:`~repro.sim.linkstate.SparseLinkState` whose
        ``submatrix`` is bit-identical to slicing :meth:`link_state` but whose
        memory is at most ``O(N * neighborhood)``.  Every channel whose
        :meth:`link_signature` returns a key implements both forms.
        """
        raise NotImplementedError

    def resolve_links(
        self,
        submatrix: np.ndarray,
        transmissions: Sequence[Transmission],
        rng: np.random.Generator,
    ) -> list[Observation]:
        """Resolve one round from an already-extracted link-state submatrix.

        ``submatrix`` is the ``(listeners, senders)`` slice of
        :meth:`link_state` for this round's listeners and transmitters, in
        their respective orders.  The engine's slot plans cache these slices
        per ``(slot, sender-set)`` so no round pays for the fancy indexing.
        Must produce exactly the same observations — and consume the RNG in
        exactly the same order — as :meth:`observe` on the same round.
        """
        raise NotImplementedError

    def consumes_rng(self) -> bool:
        """Whether resolving a round may draw from the generator.

        ``False`` means a round's observations are a pure function of the
        listeners, the link state and the transmissions — which is what lets
        the engine jump over repeated quiet cycles without perturbing the RNG
        stream of stochastic configurations.
        """
        return True

    def soa_round_support(self) -> SoaRoundSupport:
        """Per-capability verdict on the struct-of-arrays slot kernels.

        The SoA tier (:mod:`repro.sim.soa`) compiles whole slots into mask
        kernels that bypass per-round resolution.  This method decomposes
        eligibility into independent capabilities — the busy model
        (disjunction vs power sum), loss draws, capture draws and tracing —
        each with a human-readable reason, so the eligibility surfaces
        (``experiments describe``, run summaries) can say *which* predicate
        failed rather than just "ineligible".
        Channels without an SoA round model return the ineligible default.
        """
        return SoaRoundSupport(
            eligible=False,
            busy="none",
            loss_probability=0.0,
            verdicts=(
                (
                    "channel",
                    False,
                    f"{type(self).__name__} defines no SoA busy model → cohort/scalar",
                ),
            ),
        )

    def supports_soa_rounds(self) -> bool:
        """Aggregate verdict of :meth:`soa_round_support` (the engine's gate)."""
        return self.soa_round_support().eligible


class UnitDiskChannel(Channel):
    """Idealised range-based channel used for the analytical model.

    Parameters
    ----------
    radius:
        Communication (and interference) radius.
    norm:
        ``"linf"`` for the analytical grid model, ``"l2"`` for geometric
        deployments.
    capture_probability:
        When two or more transmissions reach a listener, probability that the
        listener nevertheless receives one of them (chosen uniformly at
        random), reproducing the model sentence "v may receive either of the
        two messages, or no message at all".  The default of ``0`` makes
        collisions deterministic, which is what the correctness proofs assume
        (they only rely on *activity* being detected).
    loss_probability:
        Independent probability that an otherwise decodable frame is lost; the
        energy is still sensed, so the listener perceives a collision rather
        than silence (losses cannot forge silence).
    """

    def __init__(
        self,
        radius: float,
        norm: str = "l2",
        *,
        capture_probability: float = 0.0,
        loss_probability: float = 0.0,
    ) -> None:
        if radius <= 0:
            raise ValueError("radius must be positive")
        if not (0.0 <= capture_probability <= 1.0):
            raise ValueError("capture_probability must be in [0, 1]")
        if not (0.0 <= loss_probability <= 1.0):
            raise ValueError("loss_probability must be in [0, 1]")
        if norm not in ("linf", "l2"):
            raise ValueError("norm must be 'linf' or 'l2'")
        self.radius = float(radius)
        self.norm = norm
        self.capture_probability = float(capture_probability)
        self.loss_probability = float(loss_probability)

    def _distances(self, listeners: np.ndarray, transmitters: np.ndarray) -> np.ndarray:
        diff = listeners[:, None, :] - transmitters[None, :, :]
        if self.norm == "linf":
            return np.max(np.abs(diff), axis=-1)
        return np.sqrt(np.sum(diff**2, axis=-1))

    def link_signature(self) -> Optional[tuple]:
        return ("unitdisk", self.radius, self.norm)

    def link_state(self, positions: np.ndarray) -> np.ndarray:
        """Boolean audibility mask between every pair of nodes.

        Scattered into a zeroed mask, one byte per pair, from the CSR
        audibility graph of :func:`~repro.sim.linkstate.unit_disk_csr`, the
        query whose result the sparse tier keeps.  The build measures only
        pairs of nearby grid cells and allocates no quadratic float
        temporary.
        """
        pos = np.asarray(positions, dtype=float)
        num_nodes = pos.shape[0]
        indptr, indices = unit_disk_csr(pos, self.radius, self.norm)
        audible = np.zeros((num_nodes, num_nodes), dtype=bool)
        audible[np.repeat(np.arange(num_nodes), np.diff(indptr)), indices] = True
        return audible

    def link_state_sparse(self, positions: np.ndarray) -> UnitDiskLinkState:
        """Positions plus the CSR audibility graph; blocks equal :meth:`link_state`'s.

        Unit-disk audibility beyond the radius is exactly ``False``, so the
        CSR stores the complete physics — no truncation is involved.
        """
        return UnitDiskLinkState(np.asarray(positions, dtype=float), self.radius, self.norm)

    def soa_round_support(self) -> SoaRoundSupport:
        """Unit-disk rounds lower to disjunction kernels; capture stays scalar.

        Audibility beyond the radius is exactly ``False`` and a listener is
        busy iff *some* transmission is within range, so busy is the
        disjunction the SoA kernels compute.  Loss compiles: a loss draw can
        only turn a decodable frame into a collision (never into silence),
        so it cannot move any busy bit, and the scalar loop draws exactly
        once per sole-audible listener in listener order — a count the
        kernels replay with one batched ``rng.random(k)`` per phase.
        Capture does *not* compile: a captured collision interleaves a
        uniform draw, an integer choice over the audible set and possibly a
        loss draw per listener, so the draw sequence depends on per-listener
        data and cannot be reproduced from packed masks.
        """
        capture_ok = self.capture_probability == 0.0
        loss = self.loss_probability
        verdicts = (
            ("channel", True, "unit-disk busy is a per-listener audibility disjunction"),
            (
                "loss",
                True,
                f"loss_probability={loss:g} → one batched listener-ordered draw per phase"
                if loss > 0.0
                else "no loss draws",
            ),
            (
                "capture",
                capture_ok,
                "no capture draws"
                if capture_ok
                else f"capture_probability={self.capture_probability:g} draws are "
                "data-dependent (uniform + integer choice per collision) → scalar",
            ),
            ("trace", True, "event stream synthesized from the packed masks"),
        )
        return SoaRoundSupport(
            eligible=all(ok for _, ok, _ in verdicts),
            busy="disjunction",
            loss_probability=loss,
            verdicts=verdicts,
        )

    def consumes_rng(self) -> bool:
        return self.capture_probability > 0.0 or self.loss_probability > 0.0

    def _resolve_audible(
        self,
        audible: np.ndarray,
        transmissions: Sequence[Transmission],
        rng: np.random.Generator,
    ) -> list[Observation]:
        """Observations from a (listener, transmission) audibility mask.

        Shared by :meth:`observe` and :meth:`resolve_links` so both consume
        the RNG identically: one loss draw per listener that hears exactly
        one transmission, and per captured collision a capture draw, an
        integer choice over the audible set and a loss draw, all in
        listener order.
        """
        num_listeners = audible.shape[0]
        counts = audible.sum(axis=1)
        observations: list[Observation] = []
        for li in range(num_listeners):
            count = int(counts[li])
            if count == 0:
                observations.append(SILENCE)
                continue
            if count == 1:
                tx_index = int(np.nonzero(audible[li])[0][0])
                if self.loss_probability > 0.0 and rng.random() < self.loss_probability:
                    observations.append(_COLLISION)
                else:
                    observations.append(message_observation(transmissions[tx_index].frame))
                continue
            # Two or more audible transmissions: collision, possibly captured.
            if self.capture_probability > 0.0 and rng.random() < self.capture_probability:
                choices = np.nonzero(audible[li])[0]
                tx_index = int(choices[rng.integers(0, len(choices))])
                if self.loss_probability > 0.0 and rng.random() < self.loss_probability:
                    observations.append(_COLLISION)
                else:
                    observations.append(message_observation(transmissions[tx_index].frame))
            else:
                observations.append(_COLLISION)
        return observations

    def observe(
        self,
        listener_ids: Sequence[int],
        listener_positions: np.ndarray,
        transmissions: Sequence[Transmission],
        rng: np.random.Generator,
    ) -> list[Observation]:
        num_listeners = len(listener_ids)
        if num_listeners == 0:
            return []
        if not transmissions:
            return [SILENCE] * num_listeners

        tx_pos = np.asarray([t.position for t in transmissions], dtype=float)
        listeners = np.asarray(listener_positions, dtype=float).reshape(num_listeners, 2)
        dist = self._distances(listeners, tx_pos)
        audible = dist <= self.radius + 1e-12
        return self._resolve_audible(audible, transmissions, rng)

    def resolve_links(
        self,
        submatrix: np.ndarray,
        transmissions: Sequence[Transmission],
        rng: np.random.Generator,
    ) -> list[Observation]:
        return self._resolve_audible(submatrix, transmissions, rng)


class FriisChannel(Channel):
    """Friis free-space propagation with SINR capture and carrier sensing.

    The received power of a transmission over distance ``d`` is
    ``P_rx = P_tx * (reference_distance / max(d, reference_distance)) ** path_loss_exponent``.
    A listener decodes the strongest audible frame when (a) its power exceeds
    ``reception_threshold`` and (b) its SINR — power divided by the sum of all
    other received powers plus the noise floor — exceeds ``capture_threshold``.
    Whenever the *total* received power exceeds ``sense_threshold`` the channel
    is perceived as busy, which is how the carrier-sensing MAC of the paper
    reports jamming and collisions.

    The defaults are normalised so that ``reception_range`` (the distance at
    which a lone transmission is decodable) plays the role of the paper's
    broadcast range ``R``, and the carrier-sense range is ``sense_range_factor``
    times larger, as is typical of real radios.
    """

    def __init__(
        self,
        reception_range: float,
        *,
        path_loss_exponent: float = 2.0,
        sense_range_factor: float = 1.5,
        capture_threshold_db: float = 6.0,
        noise_floor: float = 1e-9,
        loss_probability: float = 0.0,
        tx_power: float = 1.0,
        reference_distance: float = 1.0,
    ) -> None:
        if reception_range <= 0:
            raise ValueError("reception_range must be positive")
        if path_loss_exponent <= 0:
            raise ValueError("path_loss_exponent must be positive")
        if sense_range_factor < 1.0:
            raise ValueError("sense_range_factor must be >= 1")
        if not (0.0 <= loss_probability <= 1.0):
            raise ValueError("loss_probability must be in [0, 1]")
        self.reception_range = float(reception_range)
        self.path_loss_exponent = float(path_loss_exponent)
        self.sense_range_factor = float(sense_range_factor)
        self.capture_threshold = 10.0 ** (capture_threshold_db / 10.0)
        self.noise_floor = float(noise_floor)
        self.loss_probability = float(loss_probability)
        self.tx_power = float(tx_power)
        self.reference_distance = float(reference_distance)
        # Reception threshold: power received from exactly reception_range away.
        self.reception_threshold = self._power_at(self.reception_range)
        self.sense_threshold = self._power_at(self.reception_range * self.sense_range_factor)

    def _power_at(self, distance: float) -> float:
        d = max(float(distance), self.reference_distance)
        return self.tx_power * (self.reference_distance / d) ** self.path_loss_exponent

    @property
    def sense_range(self) -> float:
        """Distance out to which a lone transmission is sensed (but maybe not decoded)."""
        return self.reception_range * self.sense_range_factor

    def link_signature(self) -> Optional[tuple]:
        return (
            "friis",
            self.path_loss_exponent,
            self.tx_power,
            self.reference_distance,
        )

    def link_state(self, positions: np.ndarray) -> np.ndarray:
        """Received power between every pair of nodes (row: listener, column: sender)."""
        pos = np.asarray(positions, dtype=float)
        num_nodes = pos.shape[0]
        powers = np.empty((num_nodes, num_nodes), dtype=float)
        block = 512
        for start in range(0, num_nodes, block):
            diff = pos[start : start + block, None, :] - pos[None, :, :]
            dist = np.sqrt(np.sum(diff**2, axis=-1))
            dist = np.maximum(dist, self.reference_distance)
            powers[start : start + block] = (
                self.tx_power * (self.reference_distance / dist) ** self.path_loss_exponent
            )
        return powers

    def link_state_sparse(self, positions: np.ndarray) -> FriisLinkState:
        """Sparse Friis state: positions only, no power matrix.

        Rounds resolve through exact on-demand power blocks (every sender's
        power still reaches every listener's interference sum), so the sparse
        tier changes memory, never physics — see
        :class:`~repro.sim.linkstate.FriisLinkState`.
        """
        return FriisLinkState(
            np.asarray(positions, dtype=float),
            tx_power=self.tx_power,
            reference_distance=self.reference_distance,
            path_loss_exponent=self.path_loss_exponent,
        )

    def observe(
        self,
        listener_ids: Sequence[int],
        listener_positions: np.ndarray,
        transmissions: Sequence[Transmission],
        rng: np.random.Generator,
    ) -> list[Observation]:
        num_listeners = len(listener_ids)
        if num_listeners == 0:
            return []
        if not transmissions:
            return [SILENCE] * num_listeners

        tx_pos = np.asarray([t.position for t in transmissions], dtype=float)
        listeners = np.asarray(listener_positions, dtype=float).reshape(num_listeners, 2)
        diff = listeners[:, None, :] - tx_pos[None, :, :]
        dist = np.sqrt(np.sum(diff**2, axis=-1))
        dist = np.maximum(dist, self.reference_distance)
        powers = self.tx_power * (self.reference_distance / dist) ** self.path_loss_exponent
        return self._resolve_powers(powers, transmissions, rng)

    def resolve_links(
        self,
        submatrix: np.ndarray,
        transmissions: Sequence[Transmission],
        rng: np.random.Generator,
    ) -> list[Observation]:
        return self._resolve_powers(submatrix, transmissions, rng)

    def consumes_rng(self) -> bool:
        return self.loss_probability > 0.0

    def soa_round_support(self) -> SoaRoundSupport:
        """Friis rounds lower to power-sum kernels; every capability compiles.

        Busy is the carrier-sense test ``sum(received powers) >=
        sense_threshold`` — not a disjunction, so the SoA tier precomputes
        each compiled group's exact pairwise power block and resolves each
        distinct transmitter mask as cached vector algebra (one column-sum
        with the same float order as :meth:`_resolve_powers`, hence
        bit-identical thresholds).  SINR capture is deterministic (an argmax
        and two comparisons — no draws), and the loss draw is one per
        decodable listener in listener order, so both compile; the kernels
        replay the draw count with one batched ``rng.random(k)`` per phase.
        """
        loss = self.loss_probability
        verdicts = (
            (
                "channel",
                True,
                "friis busy is a power sum → per-group power blocks precompiled",
            ),
            (
                "loss",
                True,
                f"loss_probability={loss:g} → one batched listener-ordered draw per phase"
                if loss > 0.0
                else "no loss draws",
            ),
            ("capture", True, "SINR capture is deterministic (argmax, no draws)"),
            ("trace", True, "event stream synthesized from the packed masks"),
        )
        return SoaRoundSupport(
            eligible=all(ok for _, ok, _ in verdicts),
            busy="power-sum",
            loss_probability=loss,
            verdicts=verdicts,
        )

    def _resolve_powers(
        self,
        powers: np.ndarray,
        transmissions: Sequence[Transmission],
        rng: np.random.Generator,
    ) -> list[Observation]:
        """Observations from a (listener, transmission) received-power matrix.

        A listener is busy when its row sum reaches the sense threshold, and
        decodes its strongest transmission when that passes the reception
        threshold and the SINR test; with loss configured, each decodable
        listener draws once, in listener order.
        """
        num_listeners = powers.shape[0]
        total = powers.sum(axis=1)

        observations: list[Observation] = []
        for li in range(num_listeners):
            row = powers[li]
            total_power = float(total[li])
            if total_power < self.sense_threshold:
                observations.append(SILENCE)
                continue
            strongest = int(np.argmax(row))
            signal = float(row[strongest])
            interference = total_power - signal + self.noise_floor
            decodable = signal >= self.reception_threshold and signal >= self.capture_threshold * interference
            if decodable and (self.loss_probability == 0.0 or rng.random() >= self.loss_probability):
                observations.append(message_observation(transmissions[strongest].frame))
            else:
                observations.append(_COLLISION)
        return observations


# -- registry plugins ---------------------------------------------------------------------
@register_channel("unitdisk")
class UnitDiskChannelPlugin(ChannelPlugin):
    """Builds the deterministic/capture/loss unit-disk channel from a scenario."""

    def build(self, config) -> UnitDiskChannel:
        return UnitDiskChannel(
            config.radius,
            norm=config.norm,
            capture_probability=config.capture_probability,
            loss_probability=config.loss_probability,
        )


@register_channel("friis")
class FriisChannelPlugin(ChannelPlugin):
    """Builds the Friis/SINR channel from a scenario."""

    def build(self, config) -> FriisChannel:
        return FriisChannel(config.radius, loss_probability=config.loss_probability)
