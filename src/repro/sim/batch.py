"""Shared-state batched execution of observation-identical devices.

The paper's central structural observation — "all honest devices in a square
behave identically; they form a single *meta-node*" — is also a runtime
optimization: as long as a group of devices started in identical protocol
state and has observed identical channel activity, their per-round transitions
are one computation, not one per device.  :class:`CohortRuntime` exploits
exactly that for NeighborWatchRB, the protocol whose squares are meta-nodes:

* at construction, honest :class:`~repro.core.neighborwatch.NeighborWatchNode`
  devices are grouped into **cohorts** by their
  :meth:`~repro.core.neighborwatch.NeighborWatchNode.cohort_key` and interest
  set, one cohort per group of state-identical square members; adversaries,
  dishonest devices, the other protocols and one-member groups stay on the
  scalar per-device path as **singletons**;
* each cohort runs NeighborWatchRB's own state machine once per round:
  :meth:`~repro.core.neighborwatch.NeighborWatchNode.decide` returns a frame
  kind, which is fanned out into per-member frames (every member still
  produces *its own* transmission, with its own sender id, in its historical
  record position), and ``observe``/``end_slot`` are the per-device methods
  called on the shared machine;
* observations are delivered once per cohort while every member perceives the
  same channel activity (``Observation.busy``, all the machine reads; rounds
  it declares :data:`~repro.core.neighborwatch.OPAQUE_LISTEN` are skipped
  entirely), and the moment two members' ``busy`` differ the cohort
  **splits** (copy-on-divergence): the shared machine is cloned per
  observation class (``clone_for_split``) and execution continues on the
  finer partition;
* at slot boundaries, sibling cohorts whose ``state_signature`` reconverged
  are **re-merged** (a receiver that missed a bit and caught up on the
  retransmission rejoins its square's meta-node), with dirty-flag gating and
  per-family exponential backoff against split/merge oscillation.

Bit-identity is a hard contract (see ROADMAP).  The runtime preserves it by
construction: transmissions, listeners, trace events and channel-RNG
consumption all happen in the exact per-record order of the scalar engine
loop; each round resolves through the scalar loop's own path
(``Simulation._resolve_round``: the plan's link-state block handed to
:meth:`~repro.sim.radio.Channel.resolve_links`); NeighborWatchRB's
transitions consume no RNG and never consult the device identity after
set-up; and the fan-out frames are value-equal to the frames the members
would have built themselves.  ``tests/test_kernel_equivalence.py`` and
``tests/test_cohort_runtime.py`` pin cohort-vs-scalar equivalence
observation-for-observation and record-for-record.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from ..core.messages import Frame
from ..core.neighborwatch import OPAQUE_LISTEN, NeighborWatchNode
from ..core.protocol import SILENCE
from .events import EventKind
from .node import SimNode
from .radio import Transmission
from .plan import (
    REC_ACT,
    REC_END_SLOT,
    REC_HONEST,
    REC_ID,
    REC_NODE,
    REC_OBSERVE,
    REC_POSITION,
    SlotPlan,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Simulation

__all__ = ["Cohort", "CohortRuntime"]

_KIND_TX_CACHE_MAX = 8192


class Cohort:
    """One group of devices sharing a single NeighborWatchRB state machine.

    ``members`` are the devices currently driven by ``machine`` (ascending
    node id; the first member is the *leader* whose :class:`NodeContext` the
    machine is bound to).  ``slots`` is the common interest set — cohort
    members participate in exactly the same slots, which is what lets one
    ``decide`` evaluation stand in for all of them.
    """

    __slots__ = (
        "machine", "members", "slots", "family",
        "_tag", "_obs_tag", "_kind", "_buf", "_buf_obs",
    )

    def __init__(self, machine, members: tuple, slots: tuple, family: int) -> None:
        self.machine = machine
        self.members = members
        self.slots = slots
        self.family = family  # index of the construction-time ancestor cohort
        self._tag = -1       # phase stamp of the last computed decision
        self._obs_tag = -1   # phase stamp of the last delivered silence
        self._kind = None    # the decision computed under _tag
        self._buf: list = []      # entries of the current phase's listeners
        self._buf_obs: list = []  # their observations, parallel to _buf

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ids = [node.node_id for node in self.members]
        return f"Cohort({type(self.machine).__name__}, members={ids})"


class CohortRuntime:
    """Cohort-grouped slot execution for one :class:`~repro.sim.engine.Simulation`.

    Construction compiles cohort membership into the per-slot entry lists of
    the :class:`~repro.sim.plan.SlotPlan` (``[record, cohort, kind, tx]``
    entries in historical participant order — see
    :meth:`~repro.sim.plan.SlotPlan.compile_cohort_entries`); splits and
    re-merges rewrite the affected entries in place, so membership is tracked
    incrementally and the hot loop never re-derives it.
    """

    def __init__(self, nodes: Sequence[SimNode], plan: SlotPlan) -> None:
        groups: dict = {}
        active = 0
        for node in nodes:
            proto = node.protocol
            if proto is None:
                continue
            active += 1
            if not node.honest or not isinstance(proto, NeighborWatchNode):
                continue
            # The interest tuple is part of the grouping key as defence in
            # depth: cohort_key() is documented to determine it, but a
            # subclass that breaks that rule must degrade to finer cohorts,
            # never to members executing slots they did not declare.
            full_key = (type(proto), proto.cohort_key(), tuple(proto.interests()))
            groups.setdefault(full_key, []).append(node)

        #: Saved per-member contexts: clones are rebound to the context of
        #: their new group leader when a cohort splits.
        self.contexts: dict[int, object] = {}
        self.cohort_of: dict[int, Cohort] = {}
        self.cohorts: list[Cohort] = []
        for full_key, members in groups.items():
            if len(members) < 2:
                # One-member groups keep their compiled scalar fast path —
                # sharing would only add indirection.
                continue
            machine = members[0].protocol
            cohort = Cohort(machine, tuple(members), full_key[2], family=len(self.cohorts))
            for node in members:
                self.contexts[node.node_id] = node.protocol.context
                node.protocol = machine
                self.cohort_of[node.node_id] = cohort
            self.cohorts.append(cohort)

        self.initial_cohorts = len(self.cohorts)
        self.live_cohorts = len(self.cohorts)
        self.shared_members = len(self.cohort_of)
        self.singletons = active - self.shared_members
        self.share_hits = 0
        self.divergence_splits = 0
        self.cohort_merges = 0
        #: Per-family live cohort counts and the set of families currently
        #: split into more than one cohort (the only ones the slot-boundary
        #: re-merge pass ever inspects).
        self.family_counts: dict[int, int] = {c.family: 1 for c in self.cohorts}
        self._fragmented: set[int] = set()
        #: Churn damping: a family that re-splits shortly after a merge is in
        #: a split/merge oscillation (e.g. a member on a reception boundary
        #: diverging every schedule cycle); its merge attempts are delayed
        #: with exponential backoff so the runtime stops paying clone +
        #: signature costs for sharing that immediately evaporates.
        self._slot_counter = 0
        self._family_next_merge: dict[int, int] = {}
        self._family_backoff: dict[int, int] = {}
        self._family_last_merge: dict[int, int] = {}

        # With no multi-member cohort, the engine keeps the scalar loop and
        # never calls run_slot — skip compiling entries for every slot.
        self.slot_entries = plan.compile_cohort_entries(self.cohort_of) if self.cohorts else {}
        self._phase_tag = 0
        #: Interned fan-out transmissions keyed ``(node_id, kind)``: a frame
        #: kind hashes as an int, while going through ``plan.transmission``
        #: would re-hash the Frame dataclass per round.
        self._kind_transmissions: dict = {}

    # -- introspection ---------------------------------------------------------------
    def info(self) -> dict:
        """Counters for :meth:`Simulation.plan_cache_info` (see its docstring)."""
        return {
            "enabled": True,
            "active": bool(self.cohorts),
            "initial_cohorts": self.initial_cohorts,
            "cohorts": self.live_cohorts,
            "shared_members": self.shared_members,
            "singletons": self.singletons,
            "share_hits": self.share_hits,
            "divergence_splits": self.divergence_splits,
            "cohort_merges": self.cohort_merges,
        }

    # -- hot path --------------------------------------------------------------------
    def run_slot(
        self,
        sim: "Simulation",
        cycle: int,
        slot: int,
        extras: Optional[list],
        occurrence_key: object,
    ) -> None:
        """Execute one slot occurrence (same observable behaviour as the scalar loop)."""
        self._slot_counter += 1
        entries = self.slot_entries.get(slot)
        if extras:
            extra_entries = [[record, None, None, None] for record in extras]
            entries = extra_entries if entries is None else entries + extra_entries
        plan = sim.plan
        trace = sim.trace
        round_index = sim.round_index
        phases = sim.schedule.phases_per_slot
        transmission = plan.transmission
        kind_transmissions = self._kind_transmissions
        share_hits = 0
        for phase in range(phases):
            self._phase_tag = tag = self._phase_tag + 1
            transmissions: list = []
            listener_entries: list = []
            append_listener = listener_entries.append
            append_transmission = transmissions.append
            for entry in entries:
                record = entry[0]
                cohort = entry[1]
                if cohort is None:
                    frame = record[REC_ACT](cycle, slot, phase)
                    if frame is None:
                        append_listener(entry)
                        continue
                    tx = transmission(record[REC_ID], record[REC_POSITION], frame)
                else:
                    if cohort._tag != tag:
                        cohort._tag = tag
                        cohort._kind = cohort.machine.decide(slot, phase)
                    else:
                        share_hits += 1
                    # OPAQUE_LISTEN members still enter the listener lists
                    # (the channel RNG stream is per-listener, so the engine
                    # must resolve the round for them exactly as the scalar
                    # path would) but their observation is neither delivered
                    # nor allowed to split the cohort.
                    kind = cohort._kind
                    if kind is None or kind is OPAQUE_LISTEN:
                        append_listener(entry)
                        continue
                    if entry[2] is kind:
                        tx = entry[3]
                    else:
                        # The member's own transmission of the shared
                        # decision, value-equal to what its ``act`` builds.
                        node_id = record[REC_ID]
                        tx = kind_transmissions.get((node_id, kind))
                        if tx is None:
                            if len(kind_transmissions) >= _KIND_TX_CACHE_MAX:
                                kind_transmissions.clear()
                            tx = Transmission(node_id, record[REC_POSITION], Frame(kind, node_id))
                            kind_transmissions[(node_id, kind)] = tx
                        entry[2] = kind
                        entry[3] = tx
                append_transmission(tx)
                record[REC_NODE].broadcasts += 1
                if trace is not None:
                    trace.record(
                        EventKind.BROADCAST,
                        round_index + phase,
                        record[REC_ID],
                        slot,
                        phase,
                        tx.frame.kind.name,
                    )
            if not listener_entries:
                continue
            if not transmissions:
                # A silent round is the same observation for everyone; it can
                # never split a cohort.
                for entry in listener_entries:
                    cohort = entry[1]
                    if cohort is None:
                        entry[0][REC_OBSERVE](cycle, slot, phase, SILENCE)
                    elif cohort._kind is OPAQUE_LISTEN:
                        share_hits += 1
                    elif cohort._obs_tag != tag:
                        cohort._obs_tag = tag
                        cohort.machine.observe(cycle, slot, phase, SILENCE)
                    else:
                        share_hits += 1
                continue
            listeners = [entry[0][REC_ID] for entry in listener_entries]
            observations = sim._resolve_round(occurrence_key, listeners, transmissions)
            pending: Optional[list[Cohort]] = None
            for entry, obs in zip(listener_entries, observations):
                cohort = entry[1]
                if cohort is None:
                    entry[0][REC_OBSERVE](cycle, slot, phase, obs)
                elif cohort._kind is OPAQUE_LISTEN:
                    share_hits += 1
                else:
                    buf = cohort._buf
                    if not buf:
                        if pending is None:
                            pending = []
                        pending.append(cohort)
                    buf.append(entry)
                    cohort._buf_obs.append(obs)
            if pending is not None:
                for cohort in pending:
                    buf_obs = cohort._buf_obs
                    first = buf_obs[0]
                    # Uniformity is judged on channel activity alone:
                    # NeighborWatchRB machines read only ``busy``, so
                    # decode-vs-collision differences between members do
                    # not split the cohort.
                    uniform = True
                    first_busy = first.busy
                    for obs in buf_obs:
                        if obs is not first and obs.busy != first_busy:
                            uniform = False
                            break
                    if uniform:
                        if len(buf_obs) != len(cohort.members):
                            raise RuntimeError(
                                f"cohort contract violation: {cohort!r} has "
                                f"{len(cohort.members)} members but {len(buf_obs)} "
                                f"listened in slot {slot} — cohort_key() must "
                                "determine the interest set"
                            )
                        cohort.machine.observe(cycle, slot, phase, first)
                        share_hits += len(buf_obs) - 1
                    else:
                        share_hits += self._split(cycle, slot, phase, cohort, cohort._buf, buf_obs)
                    cohort._buf.clear()
                    buf_obs.clear()
        self.share_hits += share_hits

        end_round = round_index + phases
        self._phase_tag = end_tag = self._phase_tag + 1
        fragmented = self._fragmented
        merge_candidates: Optional[dict] = None
        for entry in entries:
            record = entry[0]
            cohort = entry[1]
            if cohort is None:
                record[REC_END_SLOT](cycle, slot)
            elif cohort._tag != end_tag:
                cohort._tag = end_tag
                cohort.machine.end_slot(cycle, slot)
                if fragmented and cohort.family in fragmented:
                    if merge_candidates is None:
                        merge_candidates = {}
                    merge_candidates.setdefault(cohort.family, []).append(cohort)
            node = record[REC_NODE]
            if record[REC_HONEST] and node.delivery_round is None and node.delivered:
                node.mark_delivered(end_round)
                if trace is not None:
                    trace.record(EventKind.DELIVERY, end_round, record[REC_ID])
        if merge_candidates is not None:
            self._try_merges(merge_candidates)

    # -- divergence ------------------------------------------------------------------
    def _split(
        self, cycle: int, slot: int, phase: int, cohort: Cohort, buf_entries: list, buf_obs: list
    ) -> int:
        """Copy-on-divergence: partition ``cohort`` by this phase's observation.

        Groups are formed over the observations' ``busy`` flags in
        first-appearance (= ascending member id) order; the first group keeps
        the original machine, every further group gets a ``clone_for_split``
        copy taken *before* any observation is applied, and each group's
        machine is rebound to its new leader's context (with its frame
        intern reset: cached frames carry the donor's node id).  The
        compiled per-slot entries are rewritten in place for every slot of
        the cohort's interest set, so the next phase already executes on the
        finer partition.  Returns the number of per-device evaluations still
        saved in this phase (members beyond each group's first).
        """
        if len(buf_entries) != len(cohort.members):
            raise RuntimeError(
                f"cohort contract violation: {cohort!r} has {len(cohort.members)} "
                f"members but {len(buf_entries)} listened in slot {slot} — "
                "cohort_key() must determine the interest set"
            )
        groups: list[tuple] = []
        index: dict = {}
        for entry, obs in zip(buf_entries, buf_obs):
            busy = obs.busy
            i = index.get(busy)
            if i is None:
                index[busy] = len(groups)
                groups.append((obs, [entry]))
            else:
                groups[i][1].append(entry)

        # Clone before the first group's observation mutates the shared state.
        machines = [cohort.machine]
        for _ in range(len(groups) - 1):
            machines.append(cohort.machine.clone_for_split())
        self.divergence_splits += len(groups) - 1
        self.live_cohorts += len(groups) - 1

        family = cohort.family
        self.family_counts[family] = self.family_counts.get(family, 1) + len(groups) - 1
        self._fragmented.add(family)
        # Split soon after a merge → oscillation; back the family's merge
        # attempts off exponentially.  A split long after the last merge is a
        # fresh divergence and resets the backoff.
        counter = self._slot_counter
        if counter - self._family_last_merge.get(family, -(1 << 30)) <= 8:
            backoff = min(64, self._family_backoff.get(family, 1) * 2)
        else:
            backoff = 1
        self._family_backoff[family] = backoff
        self._family_next_merge[family] = counter + backoff
        saved = 0
        new_cohort_of: dict[int, Cohort] = {}
        for position, ((obs, group_entries), machine) in enumerate(zip(groups, machines)):
            members = tuple(entry[0][REC_NODE] for entry in group_entries)
            if position == 0:
                target = cohort
                target.members = members
            else:
                target = Cohort(machine, members, cohort.slots, family=family)
                self.cohorts.append(target)
            machine.context = self.contexts[members[0].node_id]
            machine._frame_cache = None
            for node in members:
                node.protocol = machine
                self.cohort_of[node.node_id] = target
                new_cohort_of[node.node_id] = target
            machine.observe(cycle, slot, phase, obs)
            saved += len(members) - 1

        for other_slot in cohort.slots:
            for entry in self.slot_entries.get(other_slot, ()):
                target = new_cohort_of.get(entry[0][REC_ID])
                if target is not None:
                    entry[1] = target
        return saved

    # -- re-convergence ---------------------------------------------------------------
    def _try_merges(self, candidates: dict) -> None:
        """Re-merge sibling cohorts whose states reconverged.

        Called at the end of a slot for every *fragmented* family that
        participated (siblings share their interest set, so all of a family's
        cohorts end the same slots).  Cohorts with equal
        :meth:`~repro.core.neighborwatch.NeighborWatchNode.state_signature`
        are provably interchangeable from here on — a receiver that missed a
        bit and caught up on the retransmission rejoins its square's
        meta-node instead of being simulated separately forever.
        """
        counter = self._slot_counter
        for family, cohorts in candidates.items():
            if len(cohorts) < 2:
                continue
            if counter < self._family_next_merge.get(family, 0):
                continue
            # Unchanged signatures cannot have become equal since the last
            # attempt — only evaluate them when some sibling changed state.
            if not any(cohort.machine._cohort_state_dirty for cohort in cohorts):
                continue
            by_signature: dict = {}
            for cohort in cohorts:
                machine = cohort.machine
                machine._cohort_state_dirty = False
                by_signature.setdefault(machine.state_signature(), []).append(cohort)
            merged = False
            for group in by_signature.values():
                if len(group) > 1:
                    self._merge(family, group)
                    merged = True
            if merged:
                self._family_last_merge[family] = counter
            if self.family_counts.get(family, 1) <= 1:
                self._fragmented.discard(family)

    def _merge(self, family: int, group: list) -> None:
        """Fuse state-identical sibling cohorts into the first of ``group``."""
        group.sort(key=lambda cohort: cohort.members[0].node_id)
        target = group[0]
        machine = target.machine
        members = list(target.members)
        absorbed: set[int] = set()
        dead: list[Cohort] = group[1:]
        for cohort in dead:
            for node in cohort.members:
                members.append(node)
                absorbed.add(node.node_id)
                node.protocol = machine
                self.cohort_of[node.node_id] = target
        members.sort(key=lambda node: node.node_id)
        target.members = tuple(members)
        machine.context = self.contexts[members[0].node_id]
        machine._frame_cache = None
        for other_slot in target.slots:
            for entry in self.slot_entries.get(other_slot, ()):
                if entry[0][REC_ID] in absorbed:
                    entry[1] = target
        dead_set = set(dead)
        self.cohorts = [cohort for cohort in self.cohorts if cohort not in dead_set]
        self.cohort_merges += len(dead)
        self.live_cohorts -= len(dead)
        self.family_counts[family] = self.family_counts.get(family, 1) - len(dead)
