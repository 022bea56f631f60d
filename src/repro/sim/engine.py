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
opportunistic transmitters, interned transmissions and an LRU of link-state
blocks keyed by ``(slot occurrence, sender set)``.  Together with the
channel's pairwise link state (cached per ``(channel, positions)`` pair in a
small module-level LRU so repeated simulations over the same deployment reuse
it), the steady state of a run resolves each round from a cached block
instead of distance computations and per-listener Python loops.  Every round
that the scalar loop or the cohort runtime puts on the air resolves one way:
the plan's block of the link state goes to
:meth:`~repro.sim.radio.Channel.resolve_links`.
``Schedule.iter_slot_starts`` replaces the per-slot divmod arithmetic of
``locate_round``.

Cohort protocol runtime
-----------------------
On top of the compiled plan, the engine can execute NeighborWatchRB in
shared cohorts (:mod:`repro.sim.batch`): honest devices whose state machines
are provably interchangeable — the paper's "meta-node" squares — run
NeighborWatchRB's own ``decide``/``observe``/``end_slot`` once per cohort
per round, splitting copy-on-divergence the moment two members sense
different channel activity and re-merging when their states reconverge.
MultiPathRB and the epidemic flood never form a cohort; on this tier they
run on the scalar loop.  The per-device loop in
:meth:`Simulation._run_slot_scalar` remains the tested oracle behind
``use_cohort_runtime=False`` (or ``REPRO_COHORT_RUNTIME=0``).

Struct-of-arrays slot kernels
-----------------------------
Above both sits the struct-of-arrays tier (:mod:`repro.sim.soa`): slots whose
participants all run one of the protocol classes it has kernels for
(epidemic flooding, NeighborWatchRB, MultiPathRB) over a unit-disk channel
(capture-free; loss compiles) or a Friis/SINR channel are compiled into
packed-bitmask kernels that execute the whole six-round broadcast interval
as a handful of integer operations, touching per-device Python only where
state commits — batching loss draws in listener order and synthesizing the
event stream on traced runs.  The knob is
``use_soa_kernels`` (env ``REPRO_SOA_KERNELS``, default on); slot
occurrences joined by an opportunistic adversary transmitter, and every
non-compilable configuration, fall back to the cohort/scalar tiers, which
remain the tested oracles.  On this tier a run that never terminates jumps
over its idle tail once a whole schedule cycle moves no state (see
:meth:`Simulation.run`).

Sparse link state
-----------------
Below the plan, the *channel* layer keeps its link state in one of two forms
(:mod:`repro.sim.linkstate`), and the node count alone picks it
(:func:`default_spatial_tiling`).  Up to :data:`SPATIAL_TILING_AUTO_NODES`
nodes it is the dense ``N x N`` audibility or power matrix; above, the engine
keeps node positions, plus a CSR audibility graph for the unit disk.
Unit-disk rounds read their exact block off the CSR, Friis rounds recompute
their power block from positions, and both resolve on the channel's one
listener loop.  Both unit-disk forms are read off one CSR
(:func:`~repro.sim.linkstate.unit_disk_csr`; the dense mask is scattered from
it), so runs on the two forms compare the two block readers, while
audibility itself is pinned against the distance predicate of ``observe`` by
the link-state and grid-bucket tests.

The RNG contract is strict: stochastic channel configurations consume the
generator exactly as the channels' listener loops do, and the cohort
runtime and the sparse blocks preserve listener order per round, so every
result — including the content-addressed store fingerprints of
:mod:`repro.store` — is bit-identical to the pre-plan engine.

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

#: Node count above which the link state is kept sparse: up to it, the dense
#: matrix is at most 16.8 MB for the unit disk and 134 MB for Friis.
SPATIAL_TILING_AUTO_NODES = 4096


def default_spatial_tiling(num_nodes: int) -> bool:
    """Whether a simulation over ``num_nodes`` nodes keeps its link state sparse.

    True above :data:`SPATIAL_TILING_AUTO_NODES` nodes.  The two forms are
    bit-identical (store fingerprints, exported rows and RNG stream
    positions included), so the node count is the only input.
    """
    return num_nodes > SPATIAL_TILING_AUTO_NODES


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
    on; ``0``/``false``/``no``/``off`` disable it).  Like the cohort knob
    this is a pure throughput setting: the struct-of-arrays slot kernels
    (:mod:`repro.sim.soa`) are bit-identical to the per-device oracle —
    exported rows, store fingerprints, ``delivery_round`` stamps,
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


def _cached_link_state(channel: Channel, positions: np.ndarray) -> Optional[object]:
    """The channel's link state for ``positions``, via the module-level cache.

    The form follows :func:`default_spatial_tiling`: the sparse state
    (:meth:`~repro.sim.radio.Channel.link_state_sparse`) above the node
    threshold, the dense matrix up to it.  The form is part of the key, so a
    threshold changed at run time never returns the other form.
    """
    global _LINK_CACHE_HITS, _LINK_CACHE_MISSES
    signature = channel.link_signature()
    if signature is None:
        return None
    sparse = default_spatial_tiling(positions.shape[0])
    key = (signature, sparse, positions.shape, positions.tobytes())
    cached = _LINK_CACHE.get(key)
    if cached is None:
        _LINK_CACHE_MISSES += 1
        if sparse:
            cached = channel.link_state_sparse(positions)
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
        Whether to execute honest, observation-identical NeighborWatchRB
        devices as shared cohorts (:class:`~repro.sim.batch.CohortRuntime`).  ``None`` (default)
        reads the process default (:func:`default_cohort_runtime`);
        ``False`` forces the per-device scalar path, which is the tested
        oracle the cohort runtime is pinned against.  Results are bit-identical
        either way.
    use_soa_kernels:
        Whether to compile eligible slots into struct-of-arrays bitmask
        kernels (:mod:`repro.sim.soa`) — the fastest execution tier,
        available when every participant of a slot runs one of the protocol
        classes the kernels lower and the channel satisfies
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
        self._link_state = _cached_link_state(channel, self._positions)
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
        if use_cohort_runtime is None:
            use_cohort_runtime = default_cohort_runtime()
        # Compiled SoA slots never reach the cohort runtime, and the two
        # tiers cannot coexist (cohorts rebind node protocols to shared
        # machines, which would invalidate the compiled per-device specs) —
        # with any SoA group present, uncompiled slots and fallback
        # occurrences execute on the scalar oracle loop instead.
        self.cohort_runtime: Optional[CohortRuntime] = (
            CohortRuntime(self.nodes, self.plan)
            if use_cohort_runtime and self.soa_runtime is None
            else None
        )
        # Hot-path dispatch: when construction compiled no multi-member cohort
        # (every device a singleton — adversaries, MultiPathRB, the epidemic
        # flood, sparse deployments) the scalar loop does the identical calls
        # with less indirection, so the runtime is kept for introspection only.
        self._slot_runtime: Optional[CohortRuntime] = (
            self.cohort_runtime if self.cohort_runtime is not None and self.cohort_runtime.cohorts else None
        )

    def plan_cache_info(self) -> dict:
        """Snapshot of the plan's and runtime tiers' per-simulation caches.

        Returns a dict with these keys:

        * ``"submatrix"`` — the link-state block LRU:
          ``{"entries", "max_entries", "hits", "misses"}``;
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
          the number of reconverged sibling cohorts re-merged;
        * ``"soa_kernels"`` — ``{"enabled": False}`` when the
          struct-of-arrays tier is off or no slot compiled, otherwise
          ``{"enabled": True, "slots_compiled", "member_slots", "slots_run",
          "scalar_fallbacks", "cycles_fast_forwarded", "occurrence_hits",
          "occurrence_misses", "occurrence_evictions", "busy_cache_hits",
          "busy_cache_misses", "busy_cache_entries",
          "busy_cache_evictions"}``: how many slots (and slot-memberships)
          compiled into bitmask kernels, how many slot occurrences executed
          on the tier vs. fell back to the oracle loop because an
          opportunistic transmitter joined, how many whole quiet schedule
          cycles :meth:`run` jumped over instead of executing, and the
          counters of the two memos (evictions count entries dropped by
          wholesale overflow clears of a group's memo).  Only stream groups
          (NeighborWatchRB, MultiPathRB) keep them; epidemic groups resolve
          every occurrence afresh and never touch these counters.  A stream
          occurrence is one lookup in its group's occurrence memo, keyed by
          the owners' bits and the listening receivers; only a miss
          resolves its six phases through the per-transmitter-mask busy
          memo, so the ``busy_cache_*`` counters count the lookups of
          occurrence misses only.  ``slots_run`` and the memo counters
          count executed occurrences only;
        * ``"spatial_tiling"`` — ``{"enabled": False}`` on the dense path,
          otherwise ``{"enabled": True, "dense_bytes_avoided"}``, the bytes
          the dense matrix would need beyond what the sparse state keeps;
          a unit-disk state also reports ``"sparse_nnz"`` (CSR entries,
          self-links included) and ``"index_dtype"`` (of the CSR arrays).
        """
        info = self.plan.cache_info()
        runtime = self.cohort_runtime
        info["cohort_runtime"] = runtime.info() if runtime is not None else {"enabled": False}
        soa = self.soa_runtime
        info["soa_kernels"] = soa.info() if soa is not None else {"enabled": False}
        state = self._link_state
        if isinstance(state, SparseLinkState):
            info["spatial_tiling"] = {"enabled": True, **state.info()}
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

        Runs that never terminate skip their idle tail.  A whole schedule
        cycle in which no device's state moved — no SoA kernel advanced a
        sender, accepted a bit or popped a flood payload, and no slot ran on
        the scalar loop — is a fixed point: every kernel input (owner
        streams, receiver masks, memoized busy masks) is unchanged, so each
        later cycle repeats it exactly.  When the channel draws no RNG, the
        run is untraced and the plan has no opportunistic (flex)
        transmitters, the second such cycle in a row jumps over every
        remaining whole cycle up to ``max_rounds`` at once, crediting each
        skipped cycle the quiet cycle's broadcasts; the final partial cycle
        runs slot by slot.  It never jumps over a termination check that
        would stop the run.  Records, delivery stamps, broadcast counts and
        RNG positions are those of stepping every slot.
        """
        if max_rounds <= 0:
            raise ValueError("max_rounds must be positive")
        if check_interval_slots is not None and check_interval_slots <= 0:
            raise ValueError("check_interval_slots must be positive")
        phases = self.schedule.phases_per_slot
        num_slots = self.schedule.num_slots
        check_every = check_interval_slots if check_interval_slots is not None else num_slots
        slots_since_check = 0
        # Stamp devices that delivered before the run started (e.g. the source).
        self._record_deliveries()
        terminated = self._all_honest_delivered()

        soa = self.soa_runtime
        fast_forward = (
            soa is not None
            and self.trace is None
            and not self.channel.consumes_rng()
            and not self.plan.flex_candidates
        )
        last_slot = num_slots - 1
        quiet = False  # the last whole cycle moved no state
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
            if fast_forward and slot == last_slot:
                if soa.moved:
                    soa.moved = quiet = False
                elif not quiet:
                    # Fold everything tallied so far into the nodes: the
                    # next quiet cycle refills the tallies with exactly one
                    # cycle's broadcasts.
                    soa.flush_broadcasts()
                    quiet = True
                else:
                    # The last boundary examined: a jump leaves less than a
                    # cycle, and a refusal stands for the rest of the run
                    # (less than a cycle is left, or the next termination
                    # check stops it).  Every termination check a jump
                    # passes over fails as this one does: delivery state no
                    # longer moves.
                    fast_forward = False
                    cycle_rounds = self.schedule.rounds_per_cycle
                    skip = (max_rounds - self.round_index) // cycle_rounds
                    if skip and not (stop_when_delivered and self._all_honest_delivered()):
                        soa.repeat_tallies(skip)
                        self.round_index += skip * cycle_rounds
                        slot_starts = self.schedule.iter_slot_starts(self.round_index)
        if soa is not None:
            soa.flush_broadcasts()
            soa.flush_frames()
        self._record_deliveries()
        terminated = self._all_honest_delivered()
        return self._build_result(terminated)

    def run_slots(self, num_slots: int) -> None:
        """Advance the simulation by exactly ``num_slots`` slots (testing helper).

        Like :meth:`run`, it first stamps devices that delivered before its
        first slot (the source at set-up), so the stamps do not depend on
        which tier runs the slots.
        """
        self._record_deliveries()
        phases = self.schedule.phases_per_slot
        slot_starts = self.schedule.iter_slot_starts(self.round_index)
        for _ in range(num_slots):
            cycle, slot = next(slot_starts)
            self._run_slot(cycle, slot)
            self.round_index += phases
        if self.soa_runtime is not None:
            self.soa_runtime.flush_broadcasts()
            self.soa_runtime.flush_frames()
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
        soa = self.soa_runtime
        if soa is not None:
            group = soa.groups.get(slot)
            if group is not None and not extras:
                soa.run_slot(self, group)
                return
            # The scalar loop may move any participant's state, so the
            # quiet-cycle test of run() counts every such slot as a change.
            soa.moved = True
            if group is not None:
                # Opportunistic joiners put unmodeled frames on the air;
                # this occurrence runs on the oracle loop (against the
                # same protocol objects, their streams first brought level
                # with the group's frame planes), then the group re-reads
                # the receiver streams the loop moved so the next
                # occurrence resumes on the SoA tier.
                soa.scalar_fallbacks += 1
                group.flush_frames()
                self._run_slot_scalar(cycle, slot, records, occurrence_key)
                group.resync()
                soa.note_commits(records)
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
        """Observations for one round, from the link-state block it needs.

        The plan caches the ``(listeners, senders)`` block per ``(slot
        occurrence, senders)``: the occurrence fixes the listener list.  The
        channel draws any RNG in listener order, as its scalar loop does.
        """
        link_state = self._link_state
        if link_state is None:
            listener_positions = self._positions[listeners]
            return self.channel.observe(listeners, listener_positions, transmissions, self.rng)
        senders = tuple(t.sender for t in transmissions)
        block = self.plan.submatrix((occurrence_key, senders), link_state, listeners, senders)
        return self.channel.resolve_links(block, transmissions, self.rng)

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
