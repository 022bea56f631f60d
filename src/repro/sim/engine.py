"""Synchronous slotted simulation engine.

The engine reproduces the execution model of the paper: time is divided into
rounds, rounds are grouped into six-round broadcast intervals (slots), and the
globally known TDMA schedule determines which device — or which
NeighborWatchRB square — owns each slot.  In every round each device either
broadcasts a frame or listens; the channel model then determines, per
listener, whether it perceives silence, a decoded message or a collision.

Sparse slot processing
----------------------
Simulating every device in every round would make large experiments (hundreds
of devices over hundreds of thousands of rounds) prohibitively slow in Python.
The engine therefore only processes, per slot, the devices that *declared an
interest* in the slot (the slot owner plus every device that listens to it)
together with any adversary that decided to transmit during the slot.  This is
sound because a device that neither transmits nor interprets a slot cannot
have its protocol state affected by it, and it follows the guide-recommended
pattern of spending Python time only where the algorithm needs it.

Compiled slot plans
-------------------
Everything static about a run is compiled once at construction into a
:class:`~repro.sim.plan.SlotPlan`: per-slot participant records with bound
protocol methods, frozen participant id arrays, flex-candidate lists for
opportunistic transmitters, interned transmissions, an LRU of link-state
submatrices keyed by ``(slot occurrence, sender set)``, and — for channels
whose resolution consumes no RNG — a memo of whole resolved rounds keyed by
``(slot occurrence, senders, frames)``.  Together with the channel's pairwise
link state (cached per ``(channel, positions)`` pair in a small module-level
LRU so repeated simulations over the same deployment reuse it), the steady
state of a run resolves each round with a handful of dict lookups instead of
distance computations and per-listener Python loops.  ``Schedule.iter_slot_starts``
replaces the per-slot divmod arithmetic of ``locate_round``.

Cohort protocol runtime
-----------------------
On top of the compiled plan, the engine can execute the *protocol* layer in
shared cohorts (:mod:`repro.sim.batch`): honest devices whose state machines
are provably interchangeable — the paper's "meta-node" squares — are driven
by one phase-machine evaluation per cohort per round, splitting
copy-on-divergence the moment two members observe different (projected)
things and re-merging when their states reconverge.  The per-device loop in
:meth:`Simulation._run_slot_scalar` remains the tested oracle behind
``use_cohort_runtime=False`` (or ``REPRO_COHORT_RUNTIME=0``).

Struct-of-arrays slot kernels
-----------------------------
Above both sits the struct-of-arrays tier (:mod:`repro.sim.soa`): slots whose
participants all run one of the simple soa-compilable phase machines
(epidemic flooding, NeighborWatchRB, MultiPathRB) over a unit-disk channel
(capture-free; loss compiles) or a Friis/SINR channel are compiled into
packed-bitmask kernels that execute the whole six-round broadcast interval
as a handful of integer operations, touching per-device Python only where
state commits — batching loss draws in listener order and synthesizing the
event stream on traced runs.  The knob is
``use_soa_kernels`` (env ``REPRO_SOA_KERNELS``, default on); slot
occurrences joined by an opportunistic adversary transmitter, and every
non-compilable configuration, fall back to the cohort/scalar tiers, which
remain the tested oracles.

Spatially-tiled link state
--------------------------
Below the plan, the *channel* layer can run on the sparse spatially-tiled
tier (:mod:`repro.sim.linkstate`): instead of the dense ``N x N`` audibility
or power matrix, the engine keeps node positions plus a CSR neighborhood
built per region tile, and unit-disk rounds resolve through per-sender CSR
rows with only boundary-crossing transmissions exchanged between tiles.  The
knob is ``use_spatial_tiling`` (env ``REPRO_SPATIAL_TILING``, auto-on above
:data:`SPATIAL_TILING_AUTO_NODES` nodes); dense kernels remain the oracle.

The RNG contract is strict: stochastic channel configurations bypass the
round memo entirely and consume the generator exactly as the scalar reference
kernels would, and the cohort runtime and tiled round kernels preserve
listener order per round, so every result — including the content-addressed
store fingerprints of :mod:`repro.store` — is bit-identical to the pre-plan
engine.

Deliveries are stamped with the exact round at the end of the slot in which
they happened (not at the next periodic check), so ``delivery_round`` and the
latency metrics derived from it are accurate to one slot.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Optional, Sequence

import numpy as np

from ..core.protocol import Observation, SILENCE
from ..core.schedule import Schedule
from .batch import CohortRuntime
from .events import EventKind, EventLog
from .linkstate import SparseLinkState
from .node import SimNode
from .plan import REC_ID, REC_NODE, REC_ACT, REC_OBSERVE, REC_END_SLOT, REC_HONEST, REC_POSITION, SlotPlan
from .radio import Channel, Transmission
from .results import NodeOutcome, RunResult
from .soa import SoaRuntime

__all__ = [
    "Simulation",
    "link_cache_info",
    "clear_link_cache",
    "default_cohort_runtime",
    "default_soa_kernels",
    "default_spatial_tiling",
    "SPATIAL_TILING_AUTO_NODES",
]

#: Node count above which spatial tiling turns on automatically (the dense
#: link state is still comfortable below it; above it the N^2 matrices start
#: to dominate memory).  Override per process with
#: ``REPRO_SPATIAL_TILING_AUTO_NODES``.
SPATIAL_TILING_AUTO_NODES = 4096


def default_spatial_tiling(num_nodes: int) -> bool:
    """Process-wide default for :class:`Simulation`'s ``use_spatial_tiling``.

    Controlled by ``REPRO_SPATIAL_TILING``: ``1``/``true`` forces the sparse
    spatially-tiled link-state tier on at every size, ``0``/``false`` forces
    the dense tier, and the default (``auto``) enables tiling above
    :data:`SPATIAL_TILING_AUTO_NODES` nodes.  Like the cohort runtime knob,
    this is a pure memory/throughput setting: tiled and untiled runs are
    bit-identical (store fingerprints, exported rows and RNG stream positions
    included), so it lives outside :class:`~repro.sim.config.ScenarioConfig`
    and never enters fingerprints.
    """
    value = os.environ.get("REPRO_SPATIAL_TILING", "auto").strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    threshold_raw = os.environ.get("REPRO_SPATIAL_TILING_AUTO_NODES", "").strip()
    try:
        threshold = int(threshold_raw) if threshold_raw else SPATIAL_TILING_AUTO_NODES
    except ValueError:
        threshold = SPATIAL_TILING_AUTO_NODES
    return num_nodes > threshold


def default_cohort_runtime() -> bool:
    """Process-wide default for :class:`Simulation`'s ``use_cohort_runtime``.

    Controlled by the ``REPRO_COHORT_RUNTIME`` environment variable (default
    on; ``0``/``false``/``no``/``off`` disable it).  The benchmark harness
    uses the knob to capture cohort-off baselines without threading a
    parameter through every experiment — and because cohort execution is
    bit-identical to the scalar oracle, the setting can never change a result,
    only the wall clock.
    """
    value = os.environ.get("REPRO_COHORT_RUNTIME", "1").strip().lower()
    return value not in ("0", "false", "no", "off")


def default_soa_kernels() -> bool:
    """Process-wide default for :class:`Simulation`'s ``use_soa_kernels``.

    Controlled by the ``REPRO_SOA_KERNELS`` environment variable (default
    on; ``0``/``false``/``no``/``off`` disable it).  Like the cohort and
    tiling knobs this is a pure throughput setting: the struct-of-arrays
    slot kernels (:mod:`repro.sim.soa`) are bit-identical to the per-device
    oracle — exported rows, store fingerprints, ``delivery_round`` stamps,
    broadcast counts and RNG stream positions included — so it lives outside
    :class:`~repro.sim.config.ScenarioConfig` and never enters fingerprints.
    """
    value = os.environ.get("REPRO_SOA_KERNELS", "1").strip().lower()
    return value not in ("0", "false", "no", "off")

#: Bounded cache of channel link states (audibility sets / power matrices),
#: keyed by the channel's link signature and the (immutable) bytes of the
#: position array.  A handful of entries is enough: within one process the
#: same deployment is typically re-simulated back-to-back (protocol
#: comparisons, repeated seeds).  Introspect with :func:`link_cache_info`,
#: reset with :func:`clear_link_cache` — tests that assert on cache behaviour
#: must clear it first or they observe each other's entries.
_LINK_CACHE: "OrderedDict[tuple, object]" = OrderedDict()
_LINK_CACHE_MAX_ENTRIES = 8
_LINK_CACHE_HITS = 0
_LINK_CACHE_MISSES = 0


def link_cache_info() -> dict:
    """A snapshot of the module-level link-state cache.

    Returns ``{"entries", "max_entries", "hits", "misses"}``; the counters
    are cumulative since the last :func:`clear_link_cache`.
    """
    return {
        "entries": len(_LINK_CACHE),
        "max_entries": _LINK_CACHE_MAX_ENTRIES,
        "hits": _LINK_CACHE_HITS,
        "misses": _LINK_CACHE_MISSES,
    }


def clear_link_cache() -> None:
    """Drop every cached link state and zero the hit/miss counters.

    Cached entries are keyed by channel parameters and positions, so stale
    entries are never *wrong* — but tests that measure caching (and
    long-lived processes that sweep many deployments) want a known-empty
    starting state.
    """
    global _LINK_CACHE_HITS, _LINK_CACHE_MISSES
    _LINK_CACHE.clear()
    _LINK_CACHE_HITS = 0
    _LINK_CACHE_MISSES = 0


def _cached_link_state(
    channel: Channel, positions: np.ndarray, *, sparse: bool = False
) -> Optional[object]:
    """The channel's link state for ``positions``, via the module-level cache.

    ``sparse`` selects the spatially-tiled CSR tier
    (:meth:`~repro.sim.radio.Channel.link_state_sparse`); dense and sparse
    entries are cached under distinct keys because they are different objects
    over the same deployment.  A channel without a sparse implementation
    falls back to its dense state (still subject to the byte budget guard).
    """
    global _LINK_CACHE_HITS, _LINK_CACHE_MISSES
    signature = channel.link_signature()
    if signature is None:
        return None
    key = (signature, sparse, positions.shape, positions.tobytes())
    cached = _LINK_CACHE.get(key)
    if cached is None:
        _LINK_CACHE_MISSES += 1
        if sparse:
            try:
                cached = channel.link_state_sparse(positions)
            except NotImplementedError:
                cached = channel.link_state(positions)
        else:
            cached = channel.link_state(positions)
        _LINK_CACHE[key] = cached
        while len(_LINK_CACHE) > _LINK_CACHE_MAX_ENTRIES:
            _LINK_CACHE.popitem(last=False)
    else:
        _LINK_CACHE_HITS += 1
        _LINK_CACHE.move_to_end(key)
    return cached


class Simulation:
    """Drive a set of devices through a slotted broadcast execution.

    Parameters
    ----------
    nodes:
        All devices (honest, Byzantine and crashed).  Node ids must equal the
        index of the device in this sequence.
    schedule:
        The TDMA schedule shared by every device.
    channel:
        Channel model used to resolve per-round observations.
    message:
        The bits the (honest) source is broadcasting; used to judge
        correctness of deliveries.
    rng:
        Generator used by stochastic channel models.
    trace:
        Optional :class:`~repro.sim.events.EventLog` receiving broadcast and
        delivery events.
    use_cohort_runtime:
        Whether to execute shareable, observation-identical devices as shared
        cohorts (:class:`~repro.sim.batch.CohortRuntime`).  ``None`` (default)
        reads the process default (:func:`default_cohort_runtime`);
        ``False`` forces the per-device scalar path, which is the tested
        oracle the cohort runtime is pinned against.  Results are bit-identical
        either way.
    use_spatial_tiling:
        Whether to keep the channel link state in the sparse spatially-tiled
        tier (CSR per-tile structures + region tiling) instead of the dense
        ``N x N`` matrix.  ``None`` (default) reads the process default
        (:func:`default_spatial_tiling` — auto-on above
        :data:`SPATIAL_TILING_AUTO_NODES` nodes).  Results are bit-identical
        either way; only memory and the round-resolution kernels change.
    use_soa_kernels:
        Whether to compile eligible slots into struct-of-arrays bitmask
        kernels (:mod:`repro.sim.soa`) — the fastest execution tier,
        available when every participant of a slot runs one of the simple
        soa-compilable phase machines and the channel satisfies
        :meth:`~repro.sim.radio.Channel.supports_soa_rounds`.  ``None``
        (default) reads the process default (:func:`default_soa_kernels` —
        on unless ``REPRO_SOA_KERNELS=0``).  When any slot compiles, the
        cohort runtime is not constructed (the tiers cannot share protocol
        instances) and uncompiled slots run on the scalar oracle loop.
        Results are bit-identical on every tier.
    """

    def __init__(
        self,
        nodes: Sequence[SimNode],
        schedule: Schedule,
        channel: Channel,
        message: Sequence[int],
        *,
        rng: Optional[np.random.Generator] = None,
        trace: Optional[EventLog] = None,
        use_cohort_runtime: Optional[bool] = None,
        use_spatial_tiling: Optional[bool] = None,
        use_soa_kernels: Optional[bool] = None,
    ) -> None:
        self.nodes = list(nodes)
        for idx, node in enumerate(self.nodes):
            if node.node_id != idx:
                raise ValueError("node ids must match their index in the node list")
        self.schedule = schedule
        self.channel = channel
        self.message = tuple(int(b) for b in message)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.trace = trace
        self.round_index = 0

        self._positions = np.asarray([n.position for n in self.nodes], dtype=float)
        self.plan = SlotPlan(self.nodes, schedule)
        if use_spatial_tiling is None:
            use_spatial_tiling = default_spatial_tiling(len(self.nodes))
        self.use_spatial_tiling = bool(use_spatial_tiling)
        self._link_state = _cached_link_state(
            channel, self._positions, sparse=self.use_spatial_tiling
        )
        # Per-round CSR aggregation is used only when the sparse state covers
        # the channel's full physics (unit-disk) *and* the channel's vectorized
        # kernels are on; otherwise sparse states answer through exact
        # on-demand submatrices, which resolve on the unchanged dense kernels.
        self._sparse_rounds = (
            isinstance(self._link_state, SparseLinkState)
            and self._link_state.supports_round_views
            and channel.supports_sparse_rounds()
        )
        self.tiling = (
            self._link_state.tiling
            if isinstance(self._link_state, SparseLinkState)
            else None
        )
        # Whole-round memoization is only sound when resolving a round cannot
        # consume RNG (otherwise replaying a cached round would desynchronise
        # the generator relative to the scalar reference execution).
        self._memo_rounds = self._link_state is not None and not channel.consumes_rng()
        # The SoA tier compiles whole slots into bitmask kernels.  It needs
        # a link state to read channel structure from and a channel whose
        # per-capability verdict (soa_round_support) is fully eligible:
        # disjunction or power-sum busy, with loss draws batchable in
        # listener order (unit-disk capture draws are data-dependent and
        # stay scalar).  Traced runs compile too — the kernels synthesize
        # the event stream from the packed masks.
        if use_soa_kernels is None:
            use_soa_kernels = default_soa_kernels()
        self.use_soa_kernels = bool(use_soa_kernels)
        self.soa_runtime: Optional[SoaRuntime] = None
        if (
            self.use_soa_kernels
            and self._link_state is not None
            and channel.supports_soa_rounds()
        ):
            runtime = SoaRuntime(
                self.nodes,
                self.plan,
                self._link_state,
                schedule.phases_per_slot,
                channel=channel,
                rng=self.rng,
            )
            if runtime.groups:
                self.soa_runtime = runtime
        self._soa_groups = self.soa_runtime.groups if self.soa_runtime is not None else {}
        if use_cohort_runtime is None:
            use_cohort_runtime = default_cohort_runtime()
        # Compiled SoA slots never reach the cohort runtime, and the two
        # tiers cannot coexist (cohorts rebind node protocols to shared
        # machines, which would invalidate the compiled per-device specs) —
        # with any SoA group present, uncompiled slots and fallback
        # occurrences execute on the scalar oracle loop instead.
        self.cohort_runtime: Optional[CohortRuntime] = (
            CohortRuntime(self.nodes, self.plan, tiling=self.tiling)
            if use_cohort_runtime and self.soa_runtime is None
            else None
        )
        # Hot-path dispatch: when construction compiled no multi-member cohort
        # (every device a singleton — adversaries, RNG consumers, MultiPathRB,
        # sparse deployments) the scalar loop does the identical calls with
        # less indirection, so the runtime is kept for introspection only.
        self._slot_runtime: Optional[CohortRuntime] = (
            self.cohort_runtime if self.cohort_runtime is not None and self.cohort_runtime.cohorts else None
        )

    def plan_cache_info(self) -> dict:
        """Snapshot of the plan's and runtime tiers' per-simulation caches.

        Returns a dict with these keys:

        * ``"submatrix"`` — the link-state submatrix LRU:
          ``{"entries", "max_entries", "hits", "misses"}``;
        * ``"round_memo"`` — the whole-round observation memo (RNG-free
          channel configurations only), same counter shape;
        * ``"transmissions_interned"`` — size of the transmission intern
          table;
        * ``"cohort_runtime"`` — ``{"enabled": False}`` when the per-device
          oracle path was requested, otherwise ``{"enabled": True, "active",
          "initial_cohorts", "cohorts", "shared_members", "singletons",
          "share_hits", "divergence_splits", "cohort_merges"}``: whether any
          multi-member cohort exists (an all-singleton run executes on the
          scalar loop), the number of cohorts compiled at construction, the
          current (post-split/merge) cohort count, how many devices execute
          shared vs per-device, the number of per-device evaluations avoided
          by sharing, the number of copy-on-divergence splits performed, and
          the number of reconverged sibling cohorts re-merged (plus
          ``"cross_region_cohorts"`` when spatial tiling is on);
        * ``"soa_kernels"`` — ``{"enabled": False}`` when the
          struct-of-arrays tier is off or no slot compiled, otherwise
          ``{"enabled": True, "slots_compiled", "member_slots", "slots_run",
          "scalar_fallbacks", "busy_cache_hits", "busy_cache_misses",
          "busy_cache_entries", "busy_cache_evictions"}``: how many slots
          (and slot-memberships) compiled into bitmask kernels, how many
          slot occurrences executed on the tier vs. fell back to the oracle
          loop because an opportunistic transmitter joined, and the
          busy-pattern memo counters (evictions count entries dropped by
          wholesale overflow clears of a group's memo);
        * ``"spatial_tiling"`` — ``{"enabled": False}`` on the dense path,
          otherwise ``{"enabled": True, "tiles", "occupied_tiles",
          "tile_side", "grid_cols", "grid_rows", "sparse_nnz",
          "interior_links", "boundary_links", "dense_bytes_avoided",
          "rounds_resolved", "round_interior_hits", "round_boundary_hits",
          "sparse_round_kernel"}``: the static tiling shape, the CSR size and
          its static interior/boundary link split, the dense bytes the sparse
          tier avoided materializing, and the live per-round tile-exchange
          counters (how many audible listener/sender pairs stayed inside a
          tile vs crossed a boundary across all resolved rounds).
        """
        info = self.plan.cache_info()
        runtime = self.cohort_runtime
        info["cohort_runtime"] = runtime.info() if runtime is not None else {"enabled": False}
        soa = self.soa_runtime
        info["soa_kernels"] = soa.info() if soa is not None else {"enabled": False}
        state = self._link_state
        if isinstance(state, SparseLinkState):
            info["spatial_tiling"] = {
                "enabled": True,
                "sparse_round_kernel": self._sparse_rounds,
                **state.info(),
            }
        else:
            info["spatial_tiling"] = {"enabled": False}
        return info

    # -- execution ------------------------------------------------------------------------
    def run(
        self,
        max_rounds: int,
        *,
        stop_when_delivered: bool = True,
        check_interval_slots: Optional[int] = None,
    ) -> RunResult:
        """Run the simulation for at most ``max_rounds`` rounds.

        The run stops early once every active honest device has delivered the
        message (checked every ``check_interval_slots`` slots; by default once
        per schedule cycle).  Deliveries themselves are stamped with the exact
        round at which they happened regardless of the check interval, so the
        interval only affects how promptly the run *stops*, never the recorded
        ``delivery_round`` of any device.
        """
        if max_rounds <= 0:
            raise ValueError("max_rounds must be positive")
        if check_interval_slots is not None and check_interval_slots <= 0:
            raise ValueError("check_interval_slots must be positive")
        phases = self.schedule.phases_per_slot
        check_every = check_interval_slots if check_interval_slots is not None else self.schedule.num_slots
        slots_since_check = 0
        # Stamp devices that delivered before the run started (e.g. the source).
        self._record_deliveries()
        terminated = self._all_honest_delivered()

        slot_starts = self.schedule.iter_slot_starts(self.round_index)
        while not terminated and self.round_index + phases <= max_rounds:
            cycle, slot = next(slot_starts)
            self._run_slot(cycle, slot)
            self.round_index += phases
            slots_since_check += 1
            if slots_since_check >= check_every:
                slots_since_check = 0
                if stop_when_delivered and self._all_honest_delivered():
                    terminated = True
        if self.soa_runtime is not None:
            self.soa_runtime.flush_broadcasts()
        self._record_deliveries()
        terminated = self._all_honest_delivered()
        return self._build_result(terminated)

    def run_slots(self, num_slots: int) -> None:
        """Advance the simulation by exactly ``num_slots`` slots (testing helper)."""
        phases = self.schedule.phases_per_slot
        slot_starts = self.schedule.iter_slot_starts(self.round_index)
        for _ in range(num_slots):
            cycle, slot = next(slot_starts)
            self._run_slot(cycle, slot)
            self.round_index += phases
        if self.soa_runtime is not None:
            self.soa_runtime.flush_broadcasts()
        self._record_deliveries()

    # -- internals -------------------------------------------------------------------------
    def _run_slot(self, cycle: int, slot: int) -> None:
        plan = self.plan
        records: tuple = plan.slot_records.get(slot, ())
        occurrence_key: object = slot
        extras: Optional[list] = None
        flex = plan.flex_candidates.get(slot)
        if flex is not None:
            # wants_slot may consume the adversary's private RNG, so the query
            # order (declaration order, skipping interest-set members — they
            # are never in the candidate list) must match the historical scan.
            extras = [record for wants_slot, record in flex if wants_slot(cycle, slot)]
            if extras:
                records = records + tuple(extras)
                occurrence_key = (slot, tuple(r[REC_ID] for r in extras))
        if not records:
            return
        soa_groups = self._soa_groups
        if soa_groups:
            group = soa_groups.get(slot)
            if group is not None:
                if extras:
                    # Opportunistic joiners put unmodeled frames on the air;
                    # this occurrence runs on the oracle loop (against the
                    # same protocol objects — the next occurrence resumes on
                    # the SoA tier by re-reading their state).
                    self.soa_runtime.scalar_fallbacks += 1
                    self._run_slot_scalar(cycle, slot, records, occurrence_key)
                else:
                    self.soa_runtime.run_slot(self, group)
                return
        runtime = self._slot_runtime
        if runtime is not None:
            runtime.run_slot(self, cycle, slot, extras, occurrence_key)
            return
        self._run_slot_scalar(cycle, slot, records, occurrence_key)

    def _run_slot_scalar(self, cycle: int, slot: int, records: tuple, occurrence_key: object) -> None:
        """The per-device oracle loop (cohort runtime disabled)."""
        plan = self.plan
        phases = self.schedule.phases_per_slot
        trace = self.trace
        for phase in range(phases):
            transmissions: list[Transmission] = []
            listeners: list[int] = []
            observers: list = []
            for record in records:
                frame = record[REC_ACT](cycle, slot, phase)
                if frame is None:
                    listeners.append(record[REC_ID])
                    observers.append(record[REC_OBSERVE])
                else:
                    transmissions.append(
                        plan.transmission(record[REC_ID], record[REC_POSITION], frame)
                    )
                    record[REC_NODE].broadcasts += 1
                    if trace is not None:
                        trace.record(
                            EventKind.BROADCAST,
                            self.round_index + phase,
                            record[REC_ID],
                            slot,
                            phase,
                            frame.kind.name,
                        )
            if not observers:
                continue
            if not transmissions:
                for observe in observers:
                    observe(cycle, slot, phase, SILENCE)
                continue
            observations = self._resolve_round(occurrence_key, listeners, transmissions)
            for observe, obs in zip(observers, observations):
                observe(cycle, slot, phase, obs)

        end_round = self.round_index + phases
        for record in records:
            record[REC_END_SLOT](cycle, slot)
            # Stamp deliveries with the exact round at which they happened
            # (a device's state only changes in slots it participates in).
            node = record[REC_NODE]
            if record[REC_HONEST] and node.delivery_round is None and node.delivered:
                node.mark_delivered(end_round)
                if trace is not None:
                    trace.record(EventKind.DELIVERY, end_round, record[REC_ID])

    def _resolve_round(
        self,
        occurrence_key: object,
        listeners: list[int],
        transmissions: list[Transmission],
    ) -> list[Observation]:
        """Observations for one round, through the plan's caches.

        The round memo is consulted only for RNG-free channel configurations;
        its key pins everything observations depend on — the slot occurrence
        (which fixes the listener list), the sender set and the frames on the
        air.  Stochastic configurations always resolve, consuming the RNG in
        exactly the scalar reference order.
        """
        link_state = self._link_state
        if link_state is None:
            listener_positions = self._positions[listeners]
            return self.channel.observe(listeners, listener_positions, transmissions, self.rng)
        plan = self.plan
        senders = tuple(t.sender for t in transmissions)
        if self._memo_rounds:
            memo_key = (occurrence_key, senders, tuple(t.frame for t in transmissions))
            memo = plan.round_memo
            observations = memo.get(memo_key)
            if observations is not None:
                plan.round_memo_hits += 1
                memo.move_to_end(memo_key)
                return observations
            plan.round_memo_misses += 1
            observations = self._resolve_links(occurrence_key, link_state, listeners, senders, transmissions)
            memo[memo_key] = observations
            while len(memo) > plan.round_memo_max_entries:
                memo.popitem(last=False)
            return observations
        return self._resolve_links(occurrence_key, link_state, listeners, senders, transmissions)

    def _resolve_links(
        self,
        occurrence_key: object,
        link_state,
        listeners: list[int],
        senders: tuple,
        transmissions: list[Transmission],
    ) -> list[Observation]:
        """One round through either the CSR round-view kernel or a submatrix.

        Both paths scatter per-listener results in *listener order* and draw
        any loss RNG in that same order, so the choice is invisible to the
        protocols and to the RNG stream.
        """
        plan = self.plan
        if self._sparse_rounds:
            view = plan.round_view((occurrence_key, senders), link_state, listeners, senders)
            return self.channel.resolve_links_sparse(view, transmissions, self.rng)
        submatrix = plan.submatrix((occurrence_key, senders), link_state, listeners, senders)
        return self.channel.resolve_links(submatrix, transmissions, self.rng)

    def _all_honest_delivered(self) -> bool:
        for node in self.nodes:
            if node.honest and node.active and not node.delivered:
                return False
        return True

    def _record_deliveries(self) -> None:
        for node in self.nodes:
            if node.honest and node.active and node.delivery_round is None and node.delivered:
                node.mark_delivered(self.round_index)
                if self.trace is not None:
                    self.trace.record(EventKind.DELIVERY, self.round_index, node.node_id)

    def _build_result(self, terminated: bool) -> RunResult:
        outcomes: dict[int, NodeOutcome] = {}
        for node in self.nodes:
            delivered = node.delivered if node.active else False
            correct: Optional[bool] = None
            if delivered:
                msg = node.delivered_message
                correct = (tuple(msg) == self.message) if msg is not None else None
            outcomes[node.node_id] = NodeOutcome(
                node_id=node.node_id,
                honest=node.honest,
                active=node.active,
                delivered=delivered,
                correct=correct,
                delivery_round=node.delivery_round,
                broadcasts=node.broadcasts,
            )
        return RunResult(
            message=self.message,
            total_rounds=self.round_index,
            terminated=terminated,
            outcomes=outcomes,
        )
