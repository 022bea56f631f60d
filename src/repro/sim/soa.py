"""Struct-of-arrays (SoA) slot kernels — the third execution tier.

The cohort runtime (:mod:`repro.sim.batch`) removes redundant *protocol*
evaluations by sharing one state machine across observation-identical
devices, but it still walks every cohort and every singleton through the
six-phase machinery each slot.  For the simple phase machines — the
epidemic counters and the 1Hop/2Bit streams behind NeighborWatchRB and
MultiPathRB — the whole slot is a closed-form function of a few packed
bitmasks, because their transitions consume no RNG and read the channel
only through the shared ``busy`` flag.  This module compiles such slots
once (:class:`SoaRuntime`) and then executes each slot occurrence as a
handful of integer mask operations over *all* of the slot's devices at
once, fanning out to per-device Python only at the state-commit boundary
(a sender advancing its stream, a receiver accepting a bit, a device
adopting the flood payload).

The contract is bit-identity with the per-device oracle
(:meth:`repro.sim.engine.Simulation._run_slot_scalar`): identical protocol
state trajectories, identical ``delivery_round`` stamps, identical
broadcast counts, identical RNG stream positions, and — on traced runs —
an identical event stream.  Which channel configurations lower to this
tier is decided per capability by
:meth:`~repro.sim.radio.Channel.soa_round_support`:

* **busy models** — unit-disk busy is an audibility *disjunction* (resolved
  through a group-local CSR adjacency); Friis busy is a carrier-sense
  *power sum* (resolved through lazily cached member×member power columns
  whose row sums reproduce the row sums of the listener loop
  :meth:`FriisChannel._resolve_powers` float for float, so thresholds and
  the SINR argmax are bit-identical).
* **loss draws** — the scalar loop draws exactly once per
  single-transmission (unit disk) or decodable (Friis) listener, in
  listener order (the PR 3 batching contract).  That count depends only on
  the transmitter mask and the geometry — never on protocol state — so it
  is memoized alongside the busy mask.  A stream occurrence replays the
  sum over its six phases as one ``rng.random(k)``: nothing else draws
  between its phases, so this consumes the generator exactly like the
  scalar loop's per-phase draws.  The drawn *values* are never needed:
  losses convert MESSAGE into COLLISION, both of which are busy, and the
  stream machines read only ``busy`` (the epidemic kernel, which does
  decode payloads, keeps its draws and filters adopters with them).
* **capture** — Friis SINR capture is deterministic (an argmax) and
  compiles; unit-disk ``capture_probability`` draws are data-dependent
  (a uniform plus an integer choice per collision) and keep those
  configurations on the scalar/cohort tiers.
* **tracing** — BROADCAST/DELIVERY events are synthesized from the packed
  masks after each slot's mask algebra, in the exact order the scalar
  loop's record iteration emits them, so traced runs stay on this tier.

Lowering rules
--------------
:data:`_FAMILIES` binds a kernel to each protocol class it lowers
(NeighborWatchRB, MultiPathRB, the epidemic flood); the class provides
``soa_state_spec`` (the stream protocols) or ``soa_node_spec`` (the flood).
A class may be bound only while these invariants hold:

* its transitions draw **no RNG**;
* they read nothing of an observation beyond channel activity (``busy``,
  for the bit-exchange stack) or, for a payload protocol such as the
  epidemic flood, the frame decoded in an uncontended round;
* a slot's evolution is a **closed function of its group**: every device
  whose state the slot can change declares the slot in its interest set,
  so the compiler sees the full support of the transition;
* the kernels mutate the **same protocol objects** the scalar loop would,
  keeping no shadow state beyond masks recomputable from those objects.

The last rule is what lets any slot occurrence fall back to the scalar path
(opportunistic adversary transmitters joining a slot) and the next
occurrence resume on the SoA tier.  Sender roles are re-read from the live
objects at slot entry.  The receiver masks (which streams still listen,
which expect parity 1, and the frame planes below) live on the group across
occurrences and are advanced in mask algebra by the kernel itself; a
receiver stream only moves when its slot runs, so the reconciliation steps
are few.  Before the engine runs a compiled slot as a scalar fallback it
calls :meth:`_SlotGroup.flush_frames` and after it
:meth:`_SlotGroup.resync`; at the end of ``run()`` and ``run_slots()`` it
calls :meth:`SoaRuntime.flush_frames`.

The kernels raise :attr:`SoaRuntime.moved` whenever they move protocol
state (a sender advances, a receiver accepts a bit, an epidemic owner pops
a payload).  A schedule cycle that raised nothing is a fixed point whose
only output is its stream groups' broadcast tally, which is what lets
:meth:`repro.sim.engine.Simulation.run` jump over the idle tail of a run
that never terminates (:meth:`SoaRuntime.repeat_tallies`).  An epidemic
broadcast always pops a payload, so a quiet cycle holds none.

Mask conventions
----------------
Within one compiled slot group the members are indexed ``0..n-1`` in
participant (node id) order; a *mask* is a Python integer whose bit ``i``
refers to member ``i``.  The whole input of a stream occurrence is four
masks: which owners send, their parity and data bits, and which receivers
still listen.  A stream group memoizes each occurrence on that key
``(senders, b1, b2, active)`` — what the receivers heard in R1, R3 and R5,
which senders failed, the loss-draw count of all six phases and the six
transmitter masks — so a repeated key costs one dictionary hit for the six
phases.  Keys repeat where a slot idles or relays in a steady pattern:
MultiPathRB's framed streams never leave ``active``, and 97% of the
``multipath-lying`` and 85% of the ``sweep-small`` perfbench occurrences
hit.  In large NeighborWatchRB groups most keys are new, since owners move
on bit by bit and receivers leave ``active`` as their streams complete:
41%, 27% and 19% hit on the 1,200-, 20,000- and 10^5-node unit-disk
macros (about 100, 1,760 and 8,860 members per group).  A receiver that
leaves never listens again, so the kernel drops a group's memo whenever
``active`` shrinks; no later key could hit what it held.  A miss runs the
six-phase algebra, resolving each distinct transmitter mask once into a
per-mask memo ``(busy mask, loss-draw count)``.  Stream broadcasts are
tallied per occurrence, keyed by its six transmitter masks (one dictionary
bump); :meth:`SoaRuntime.flush_broadcasts` sums each distinct mask's count
and decodes it into per-node counters.  The epidemic kernel keeps none of
these: its owners flood once each, so no transmitter set repeats, and it
counts each broadcast on the sender's :class:`~repro.sim.node.SimNode` as
the scalar loop does.

A group whose receivers drain whole frames (MultiPathRB's framed streams,
which keep only their accepted count and partial frame) holds those streams
in masks: F shift-register *frame planes* (plane ``k`` holds bit ``k`` of
each member's last F accepted bits, oldest first), ``F.bit_length()``
*counter planes* (each member's partial-frame length, offset so that
reaching F carries out of the top plane) and *frame-count planes* (the
frames each member completed since the last flush, in binary).  An
occurrence appends the accepted bits of all members with 3F mask operations
for the shift and at most three per counter plane, and adds the completed
members to their frame counts.  The receivers see neither until
:meth:`_SlotGroup.flush_frames` stores each member's frame count and partial
frame, before a scalar fallback and at the end of ``run()``/``run_slots()``,
so every reader outside the kernel sees the scalar loop's streams.  The
completed members are split plane by plane into parts that share one frame
value (:func:`_frame_parts`; one mask test per plane when, as almost
always, they all heard the same frame).  A simulation's frame groups share
one memo that decodes each distinct frame value once into its gate (the
spec's ``frame_gate`` rule: the index whose commit makes the frame inert),
and each group keeps, per bit index, the mask of its members whose commit
map holds it.  A part drains only ``members & ~mask[gate]``: a frame that
decodes to nothing drains none, and a SOURCE/HEARD frame about an index a
member committed changes nothing, which under lying devices is almost every
completed frame.  So a completion that drains nobody costs no per-member
Python.  The masks are seeded from the live commit maps at compile time and
updated wherever a member commits: after a drain the kernel makes and after
a scalar fallback.
NeighborWatchRB keeps the per-bit path, but calls its commit rule only for
a bit that lands at the device's committed frontier (index
``len(committed)``): a bit at any other index leaves every vote the rule
reads unchanged, and the rule has already run on the state before it.

The six-phase stream recurrence mirrors :mod:`repro.core.twobit` exactly:
data rounds R1/R3 carry the parity and data bits, ack rounds R2/R4 echo
them, R5 carries sender vetoes (:func:`~repro.core.twobit.soa_veto_mask`)
plus blocker activity, R6 relays the veto.  Per-slot statistics kept by
the per-device helpers (attempt/failure tallies) are *not* maintained —
they are excluded from ``state_signature`` precisely because they never
influence behaviour.
"""

from __future__ import annotations

import warnings
from functools import partial
from typing import Optional, Sequence

import numpy as np

from ..core.epidemic import EpidemicNode
from ..core.multipath import MultiPathNode
from ..core.neighborwatch import NeighborWatchNode
from ..core.twobit import NUM_PHASES, soa_veto_mask
from .events import EventKind
from .linkstate import UnitDiskLinkState, link_block
from .node import SimNode
from .plan import REC_HONEST, REC_ID, REC_NODE, SlotPlan

__all__ = ["SoaRuntime"]

#: Busy-pattern memo bound per slot group (cleared wholesale on overflow;
#: steady-state slots cycle through a handful of transmitter masks).
_BUSY_CACHE_MAX = 4096

#: Occurrence memo bound per stream group, cleared the same way (a group of
#: the perfbench workloads sees at most 13 distinct occurrence inputs; a
#: NeighborWatchRB group also drops its memo whenever a receiver leaves).
_OCCURRENCE_CACHE_MAX = 4096

#: Frame kind broadcast in each stream phase, for trace synthesis.  Senders
#: carry DATA_BIT in R1/R3, receivers echo ACK in R2/R4, and every R5/R6
#: transmission — sender veto, receiver relay, or blocker jam — is a VETO
#: frame (``TwoBitBlocker.act`` and the sender/receiver machines agree).
_STREAM_PHASE_KINDS = ("DATA_BIT", "ACK", "DATA_BIT", "ACK", "VETO", "VETO")


def _pack_mask(flags: np.ndarray) -> int:
    """Boolean member array -> packed little-endian mask (bit i == flags[i])."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _mask_indices(mask: int, n: int) -> np.ndarray:
    """Packed mask -> ascending array of the set member indices below ``n``."""
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.nonzero(np.unpackbits(raw, count=n, bitorder="little"))[0]


def _unpack_planes(planes: list, n: int) -> np.ndarray:
    """Bit planes -> ``(len(planes), n)`` 0/1 matrix (row k is plane k's member bits)."""
    nbytes = (n + 7) // 8
    raw = b"".join(plane.to_bytes(nbytes, "little") for plane in planes)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(planes), nbytes)
    return np.unpackbits(rows, axis=1, count=n, bitorder="little")


def _column_values(bits: np.ndarray) -> np.ndarray:
    """Each column of a 0/1 matrix read as an integer, row 0 most significant.

    Exact up to 63 rows; a control frame or a counter is far shorter.
    """
    weights = np.left_shift(1, np.arange(bits.shape[0] - 1, -1, -1, dtype=np.int64))
    return weights @ bits


class _PowerColumns:
    """Lazily materialized member×member power block of a power-sum group.

    Eagerly slicing every group's full n×n block at compile time is
    quadratic in group size across the whole plan — and on the sparse tier
    each block is *recomputed* from positions, which made the
    epidemic-friis-1200 macro spend seconds compiling blocks for a
    sub-second run.  The kernels only ever read transmitter *columns*, and
    steady-state slots cycle through a handful of transmitter sets, so
    columns are fetched on first use (batched per miss) and cached per
    member.  Column ``j`` equals column ``j`` of the eager block float for
    float, and :meth:`gather` lays the requested columns out ``(n, k)`` in
    request order exactly like ``block[:, idx]`` — same values in the same
    reduction order, hence bit-identical row sums.
    """

    __slots__ = ("member_ids", "link_state", "cols")

    def __init__(self, member_ids: np.ndarray, link_state) -> None:
        self.member_ids = member_ids
        self.link_state = link_state
        self.cols: dict[int, np.ndarray] = {}

    def gather(self, idx) -> np.ndarray:
        """``(n, k)`` power block of the given transmitter columns."""
        cols = self.cols
        missing = [int(j) for j in idx if int(j) not in cols]
        if missing:
            # The exact block the scalar loop's plan.submatrix would hand
            # _resolve_powers: same values, hence the same column sums.
            block = link_block(
                self.link_state,
                self.member_ids,
                self.member_ids[np.asarray(missing, dtype=np.intp)],
            )
            for pos, j in enumerate(missing):
                cols[j] = np.ascontiguousarray(block[:, pos])
        n = self.member_ids.size
        out = np.empty((n, len(idx)), dtype=np.float64)
        for pos, j in enumerate(idx):
            out[:, pos] = cols[int(j)]
        return out


class _SlotGroup:
    """Compiled state of one slot: members, channel structure, role bindings.

    A stream group's ``owners`` are ``(bit, sender)`` pairs, and
    ``owner_mask``/``veto_mask`` mark every owner and those whose spec sets
    ``idle_veto``.  ``occurrences`` memoizes whole occurrences (see
    :meth:`resolve_occurrence`) in front of ``busy_cache``, the per-mask
    memo its misses consult, and ``tally`` counts occurrences per six-mask
    broadcast tuple.  Both memos hold ints only.

    A group holds no reference to its :class:`SoaRuntime`: the runtime hands
    itself to the kernel it runs (``run(sim, runtime, group)``), so a
    finished simulation has no reference cycle through its groups and is
    freed by reference counting as soon as its caller drops it, not at
    whichever full collection comes next.
    """

    __slots__ = (
        "slot",
        "run",
        "n",
        "records",
        "member_ids",
        "indptr",
        "indices",
        "power",
        "busy_cache",
        "occurrences",
        "tally",
        "cache_hits",
        "cache_misses",
        "occurrence_hits",
        "occurrence_misses",
        "owners",
        "owner_mask",
        "veto_mask",
        "receiver_at",
        "active",
        "parity1",
        "planes",
        "counters",
        "idle_counters",
        "frames",
        "frame_rule",
        "decoded_frames",
        "committed_masks",
    )

    def resync(self) -> None:
        """Rebuild the receiver masks from the live :class:`OneHopReceiver` objects.

        ``active`` holds the streams still listening (a bounded stream leaves
        once complete) and ``parity1`` those whose next bit carries parity 1;
        a frame-draining group also rebuilds its frame planes from each
        framed stream's partial frame and restarts its frame counts at zero
        (the streams hold every frame count flushed into them).  The stream
        kernel advances all of these itself, so this full scan runs only at
        compile time and after the engine ran this slot as a scalar fallback
        — the one other path that moves these receivers.
        """
        active = parity1 = 0
        for i, entry in enumerate(self.receiver_at):
            if entry is None or entry[0].complete:
                continue
            bit = 1 << i
            active |= bit
            if entry[0].expected_parity:
                parity1 |= bit
        self.active = active
        self.parity1 = parity1
        if self.planes is None:
            return
        frame_bits = len(self.planes)
        widths = range(len(self.counters))
        base = (1 << len(widths)) - frame_bits
        everyone = (1 << self.n) - 1
        self.idle_counters = [everyone if base >> j & 1 else 0 for j in widths]
        planes = [0] * frame_bits
        counters = list(self.idle_counters)
        for i, entry in enumerate(self.receiver_at):
            if entry is None:
                continue
            received = entry[0].peek_received()
            count = len(received)
            if not count:
                continue
            bit = 1 << i
            for k, data in enumerate(received, frame_bits - count):
                if data:
                    planes[k] |= bit
            for j in widths:
                if (base + count) >> j & 1:
                    counters[j] |= bit
                else:
                    counters[j] &= ~bit
        self.planes = planes
        self.counters = counters
        self.frames = []

    def flush_frames(self) -> None:
        """Write every member's frame count and partial frame into its receiver.

        Between flushes a framed stream's state lives in the planes only:
        the frame-count planes count the frames each member completed since
        the last flush, and the frame planes hold its partial frame.  Each
        member with either is stored (:meth:`OneHopReceiver.soa_store_frames`),
        which brings its stream level with the scalar loop's, and the frame
        counts restart at zero, so a second flush stores the same partial
        frames and no frames: flushing is idempotent.
        """
        planes = self.planes
        if planes is None or (not self.frames and self.counters == self.idle_counters):
            return
        n = self.n
        frame_bits = len(planes)
        base = (1 << len(self.counters)) - frame_bits
        counts = _column_values(_unpack_planes(self.counters[::-1], n)) - base
        frames = _column_values(_unpack_planes(self.frames[::-1], n))
        bits = _unpack_planes(planes, n)
        for i in np.flatnonzero(counts | frames).tolist():
            self.receiver_at[i][0].soa_store_frames(
                int(frames[i]), bits[frame_bits - counts[i] :, i].tolist()
            )
        self.frames = []

    def resolve_occurrence(self, runtime: SoaRuntime, key: tuple) -> tuple:
        """Miss path of the stream kernel's occurrence memo: the six-phase algebra.

        ``key`` is ``(senders, b1, b2, active)``.  Idle owners block: those
        in ``veto_mask`` always, the others only on activity they heard in
        the four data/ack rounds, so both blocker masks follow from
        ``senders``.  Each phase's transmitter mask is resolved through the
        per-mask busy memo (:meth:`_busy_of`), which only these misses
        consult.  The memoized entry is ``(heard1, heard2, heard_veto,
        failed, draws, phase_tx)``: the active receivers that heard R1, R3
        and R5 busy, the senders whose R6 was busy, the loss draws of all
        six phases and the six transmitter masks ``(b1, heard1, b2, heard2,
        tx4, tx5)``, which the broadcast tally and trace synthesis read.
        Nothing here depends on ``parity1``, so the kernel computes the
        accepted receivers from the entry on every occurrence.  The memo is
        bounded like the busy memo: overflow clears it wholesale and counts
        the dropped entries.  The kernel also drops it, uncounted, whenever
        ``active`` shrinks, since no later key can then hit an entry.
        """
        self.occurrence_misses += 1
        senders, b1, b2, active = key
        idle = self.owner_mask & ~senders
        always = idle & self.veto_mask
        cond = idle ^ always
        busy_of = self._busy_of
        busy0, draws0 = busy_of(runtime, b1)
        heard1 = busy0 & active
        busy1, draws1 = busy_of(runtime, heard1)
        busy2, draws2 = busy_of(runtime, b2)
        heard2 = busy2 & active
        busy3, draws3 = busy_of(runtime, heard2)
        # Conditional blockers arm on any activity they heard in the four
        # data/ack rounds (TwoBitBlocker listens R1-R4 and jams R5/R6).
        blockers = always | (cond & (busy0 | busy1 | busy2 | busy3))
        tx4 = soa_veto_mask(senders, b1, b2, busy1, busy3) | blockers
        busy4, draws4 = busy_of(runtime, tx4)
        heard_veto = busy4 & active
        tx5 = heard_veto | blockers
        busy5, draws5 = busy_of(runtime, tx5)
        entry = (
            heard1,
            heard2,
            heard_veto,
            busy5 & senders,
            draws0 + draws1 + draws2 + draws3 + draws4 + draws5,
            (b1, heard1, b2, heard2, tx4, tx5),
        )
        cache = self.occurrences
        if len(cache) >= _OCCURRENCE_CACHE_MAX:
            runtime.occurrence_evictions += len(cache)
            cache.clear()
        cache[key] = entry
        return entry

    def _busy_of(self, runtime: SoaRuntime, tx_mask: int) -> tuple:
        """``(busy mask, loss-draw count)`` of one phase's transmitter mask."""
        if not tx_mask:
            return (0, 0)
        entry = self.busy_cache.get(tx_mask)
        if entry is None:
            return self._resolve_mask(runtime, tx_mask)
        self.cache_hits += 1
        return entry

    def _resolve_mask(self, runtime: SoaRuntime, tx_mask: int) -> tuple:
        """Miss path of :meth:`_busy_of`: resolve + memoize one mask.

        The memo entry is ``(busy mask, draw count)``.  The draw count —
        single-audible (disjunction) or decodable (power-sum) members that
        are *not* transmitting — is cacheable because the scalar channel
        kernels draw for every such listener regardless of protocol state,
        and a phase's listeners are exactly the members outside its
        transmitter set.  Transmitter bits of the busy mask are garbage by
        the same token; no phase of the stream recurrence reads a member's
        busy bit in a phase it transmits in.

        The memo is bounded: overflow clears it wholesale, counts the
        evictions, and warns once per runtime when the lookups were mostly
        misses — a thrashing memo means this slot's transmitter masks do not
        repeat and the group is re-resolving every cycle.
        """
        self.cache_misses += 1
        n = self.n
        idx = _mask_indices(tx_mask, n)
        loss = runtime.loss
        draws = 0
        power = self.power
        if power is not None:
            # Power-sum (Friis) busy: the float64 expressions of the
            # _resolve_powers listener loop, over the compiled columns.
            cols = power.gather(idx)
            total = cols.sum(axis=1)
            busy_flags = total >= runtime.sense_threshold
            if loss > 0.0:
                strongest = cols.argmax(axis=1)
                signal = cols[np.arange(n), strongest]
                interference = total - signal + runtime.noise_floor
                decodable = (
                    busy_flags
                    & (signal >= runtime.reception_threshold)
                    & (signal >= runtime.capture_threshold * interference)
                )
                decodable[idx] = False
                draws = int(np.count_nonzero(decodable))
        else:
            indptr, indices = self.indptr, self.indices
            if loss > 0.0:
                counts = np.zeros(n, dtype=np.int64)
                for j in idx:
                    counts[indices[indptr[j] : indptr[j + 1]]] += 1
                busy_flags = counts > 0
                sole = counts == 1
                sole[idx] = False
                draws = int(np.count_nonzero(sole))
            else:
                busy_flags = np.zeros(n, dtype=bool)
                for j in idx:
                    busy_flags[indices[indptr[j] : indptr[j + 1]]] = True
        cache = self.busy_cache
        if len(cache) >= _BUSY_CACHE_MAX:
            runtime.busy_cache_evictions += len(cache)
            calls = self.cache_hits + self.cache_misses
            if not runtime.thrash_warned and self.cache_misses * 2 > calls:
                runtime.thrash_warned = True
                warnings.warn(
                    f"SoA busy cache thrashing on slot {self.slot}: "
                    f"{self.cache_misses}/{calls} lookups missed before the "
                    f"{_BUSY_CACHE_MAX}-entry memo overflowed; this slot's "
                    "transmitter masks do not repeat, so the compiled group "
                    "is re-resolving masks every cycle",
                    RuntimeWarning,
                    stacklevel=4,
                )
            cache.clear()
        entry = cache[tx_mask] = (_pack_mask(busy_flags), draws)
        return entry

    def trace_stream(self, trace, round_index: int, phase_tx: tuple) -> None:
        """Synthesize one stream slot's BROADCAST events from its tx masks.

        The scalar loop records one BROADCAST per acting record, phase by
        phase, in record (ascending member) order — exactly the order the
        unpacked mask indices walk.
        """
        member_ids = self.member_ids
        slot = self.slot
        n = self.n
        for phase, tx_mask in enumerate(phase_tx):
            if not tx_mask:
                continue
            kind = _STREAM_PHASE_KINDS[phase]
            rnd = round_index + phase
            for i in _mask_indices(tx_mask, n):
                trace.record(
                    EventKind.BROADCAST, rnd, int(member_ids[i]), slot, phase, kind
                )


def _run_stream_slot(sim, runtime: SoaRuntime, group: _SlotGroup) -> None:
    """One six-phase 1Hop/2Bit slot over all members at once.

    Sender roles are read from the live owner objects at entry, one
    ``soa_next_pair`` call per owner, and only the owners that sent are
    revisited to advance: each NeighborWatchRB device owns one slot, so a
    group of the 10^5-node unit-disk macro (101 slots) has about 990
    owners.  With the receiver masks they form the occurrence's whole
    input, ``(senders, b1, b2, active)``, and one lookup
    in the group's occurrence memo (:meth:`_SlotGroup.resolve_occurrence`
    on a miss) yields what the receivers heard, which senders failed, the
    loss draws to burn (one ``rng.random`` call) and the six transmitter
    masks to tally (one bump) and trace.  The receiver masks are the
    group's own and advance here: an accepted bit flips its receiver's
    expected parity (the 1Hop parity alternates) and a bounded stream that
    reaches its length stops listening.  Scalar fallbacks are reconciled by
    :meth:`_SlotGroup.resync`.

    What an accepted bit costs depends on the receiver's commit callback.
    NeighborWatchRB's ``update_commits`` reruns its commit rule, which votes
    on the bit at index ``len(committed)`` of each stream.  Each accepted
    member appends its bit; only a bit that lands at that index calls back
    (and can stamp a delivery).  A bit before it cannot vote, a bit past it
    changes no vote, and the rule already ran on the state before the bit.
    MultiPathRB's ``drain_slot`` acts only on a completed control frame, so
    its groups append in mask algebra (:func:`_append_frame_bits`) and only
    the members whose completed frame can move them cost Python
    (:func:`_complete_frames`).
    """
    senders = b1 = b2 = 0
    sending = []
    for owner in group.owners:
        bit, sender = owner
        pair = sender.soa_next_pair()
        if pair is not None:
            senders |= bit
            sending.append(owner)
            parity, data = pair
            if parity:
                b1 |= bit
            if data:
                b2 |= bit
    active = group.active
    key = (senders, b1, b2, active)
    entry = group.occurrences.get(key)
    if entry is None:
        entry = group.resolve_occurrence(runtime, key)
    else:
        group.occurrence_hits += 1
    heard1, heard2, heard_veto, failed, draws, phase_tx = entry
    tally = group.tally
    tally[phase_tx] = tally.get(phase_tx, 0) + 1
    if draws:
        runtime.rng_random(draws)

    trace = sim.trace
    if trace is not None:
        group.trace_stream(trace, sim.round_index, phase_tx)

    # Only the owners that sent are tested: a large group has hundreds of
    # owners, and each test is an n-bit operation.
    advanced = senders & ~failed
    if advanced:
        runtime.moved = True
        for bit, sender in sending:
            if advanced & bit:
                sender.soa_advance()

    # A receiver accepts exactly when its slot was veto-free and the parity
    # it heard matches the next expected one (XNOR against the parity mask);
    # the data bit is its R3 observation.
    accepted = active & ~heard_veto & ~(heard1 ^ group.parity1)
    if not accepted:
        return
    runtime.moved = True
    group.parity1 ^= accepted
    end_round = sim.round_index + NUM_PHASES
    if group.planes is not None:
        completed = _append_frame_bits(group, accepted, heard2)
        if completed:
            _complete_frames(runtime, group, completed, end_round, trace)
        return
    records = group.records
    receiver_at = group.receiver_at
    while accepted:
        bit = accepted & -accepted
        accepted ^= bit
        i = bit.bit_length() - 1
        receiver, update_commits, limit, committed, _seat = receiver_at[i]
        length = receiver.soa_append(1 if heard2 & bit else 0)
        if length == limit:
            group.active ^= bit
            # A complete stream never listens again, so no later key holds
            # the old ``active``: every memoized occurrence is dead.
            group.occurrences.clear()
        if length == len(committed) + 1:
            update_commits()
            _stamp_delivery(records[i], end_round, trace)


def _frame_parts(planes: list, completed: int) -> list:
    """Split the ``completed`` members by frame value: ``[(members, frame), ...]``.

    Plane ``k`` holds bit ``k`` of every member's frame, most significant
    first, so a part whose members share their first ``k`` bits splits on
    plane ``k`` into the members with bit ``k`` clear and those with it set.
    When every member holds one frame value (almost every occurrence: they
    all heard the same owner) that is one mask test per plane.  Parts come
    out in ascending frame order, each nonempty.
    """
    frame = 0
    for k, plane in enumerate(planes):
        ones = completed & plane
        if ones == completed:
            frame = frame << 1 | 1
        elif not ones:
            frame <<= 1
        else:
            break
    else:
        return [(completed, frame)]
    parts = [(completed, frame)]
    for plane in planes[k:]:
        split = []
        for members, value in parts:
            ones = members & plane
            value <<= 1
            if ones != members:
                split.append((members ^ ones, value))
            if ones:
                split.append((ones, value | 1))
        parts = split
    return parts


def _complete_frames(
    runtime: SoaRuntime, group: _SlotGroup, completed: int, end_round: int, trace
) -> None:
    """Count the frames ``completed`` holds and drain the members they can move.

    The completions go into the frame-count planes (:func:`_count_frames`),
    which reach the receivers only at the next flush.  The members are split
    by frame value (:func:`_frame_parts`), and each value's gate is looked
    up once in ``decoded_frames`` (decoded by ``frame_rule`` the first time
    any group of the simulation completes it: a message is relayed in many
    devices' slots).  A part drains ``members & ~committed_masks[gate]``: a
    frame that decodes to nothing drains none, a COMMIT frame (gate 0, an
    index nobody commits) every member, since it relays HEARD once per
    (peer, index, value), and a SOURCE or HEARD frame those that have not
    committed its index.  Drained members are walked in ascending order, as
    the scalar loop walks its records, so drains and DELIVERY events keep
    their order; a drain that commits marks the new index in every frame
    group its member listens in (:func:`_note_commits`) and stamps a
    delivery it completes.
    """
    _count_frames(group.frames, completed)
    runtime.frame_completions += completed.bit_count()
    decoded = group.decoded_frames
    masks = group.committed_masks
    parts = []
    todo = 0
    for members, frame in _frame_parts(group.planes, completed):
        gate = decoded.get(frame, -1)
        if gate == -1:
            decode, gate_of = group.frame_rule
            gate = decoded[frame] = gate_of(decode(frame))
        if gate is not None:
            members &= ~masks.get(gate, 0)
            if members:
                parts.append((members, frame))
                todo |= members
    if not todo:
        return
    runtime.frame_drains += todo.bit_count()
    records = group.records
    receiver_at = group.receiver_at
    members, frame = parts[0]
    while todo:
        bit = todo & -todo
        todo ^= bit
        if not members & bit:
            for members, frame in parts:
                if members & bit:
                    break
        i = bit.bit_length() - 1
        _receiver, drain, _limit, committed, seat = receiver_at[i]
        drain(frame)
        if len(committed) != seat[0]:
            # Delivery moves only with a commit.
            _note_commits(seat)
            _stamp_delivery(records[i], end_round, trace)


def _count_frames(frames: list, completed: int) -> None:
    """Add one to the frame count of every member in ``completed``.

    ``frames`` holds the counts in binary over the members, plane ``j``
    being bit ``j``; a ripple carry adds the mask and grows a plane when it
    carries out of the top one.
    """
    carry = completed
    for j, plane in enumerate(frames):
        frames[j] = plane ^ carry
        carry &= plane
        if not carry:
            return
    frames.append(carry)


def _note_commits(seat: list) -> None:
    """Mark a framed receiver's new commits in the index masks of its frame groups.

    ``seat`` is ``[commits marked, committed map, [(index masks, member bit),
    ...]]``, one per device, listing every frame group the device listens
    in.  Commits are never undone and the map holds them in commit order,
    so the new ones are those past the marked count.
    """
    marked, committed, places = seat
    new = list(committed)[marked:]
    for masks, bit in places:
        for index in new:
            masks[index] = masks.get(index, 0) | bit
    seat[0] = len(committed)


def _append_frame_bits(group: _SlotGroup, accepted: int, data: int) -> int:
    """Append one bit to every accepted member's partial frame, in mask algebra.

    ``planes`` is a shift register over the members: plane ``k`` holds bit
    ``k`` of each member's last ``frame_bits`` accepted bits, oldest first,
    so a member's completed frame reads MSB-first from plane 0.  The counter
    planes hold each member's partial-frame length plus ``2**C - frame_bits``
    in binary (plane ``j`` is bit ``j``), so the increment's carry out of the
    top plane is exactly the members whose frame just completed; their
    counters wrap to zero and are reset to that base.  Returns the mask of
    completed members.

    When every listening stream accepted (almost every occurrence: the 1Hop
    exchange is all-or-nothing among honest receivers) the whole register
    shifts by one plane; it also shifts the bits of members that hold no
    stream, which nothing reads.
    """
    planes = group.planes
    if accepted == group.active:
        del planes[0]
        planes.append(data)
    else:
        shifted = iter(planes)
        next(shifted)
        group.planes = [p ^ ((p ^ q) & accepted) for p, q in zip(planes, [*shifted, data])]
    counters = group.counters
    carry = accepted
    for j, count in enumerate(counters):
        counters[j] = count ^ carry
        carry &= count
        if not carry:
            return 0
    for j, idle in enumerate(group.idle_counters):
        counters[j] |= carry & idle
    return carry


def _stamp_delivery(record: tuple, end_round: int, trace) -> None:
    """Stamp a member that delivered in the commit callback just run.

    Delivery only moves inside a commit (or adoption) callback, so this is
    the one place the kernels check it.
    """
    node = record[REC_NODE]
    if record[REC_HONEST] and node.delivery_round is None and node.delivered:
        node.mark_delivered(end_round)
        if trace is not None:
            trace.record(EventKind.DELIVERY, end_round, node.node_id)


def _epidemic_decodes_disjunction(group: _SlotGroup, transmitters: list, loss: float) -> tuple:
    """Unit-disk decode geometry: members hearing exactly one transmission.

    Returns aligned ``(rows, senders)`` arrays — the decoding member
    indices ascending (the compiled CSR rows ascend), matching the scalar
    loop's listener iteration order for loss draws and DELIVERY events, and
    the member index of the sole audible transmitter each row decodes.
    Transmitters are excluded from the rows only when drawing — the scalar
    channel never resolves them (they are not listeners), and on the
    deterministic path their inclusion is a no-op because the adoption
    callback rejects already-adopted members.

    Several transmitters cost one gather over their spans of the group CSR
    (offsets by ``np.repeat``, as :meth:`UnitDiskLinkState.block_entries`
    builds them over the global one), one ``np.bincount`` for the hearing
    counts and one scatter of each entry's transmitter: a member hearing
    exactly one of them is written once, by its sole sender.
    """
    indptr, indices = group.indptr, group.indices
    if len(transmitters) == 1:
        j, _payload = transmitters[0]
        rows = indices[indptr[j] : indptr[j + 1]]
        if loss > 0.0:
            rows = rows[rows != j]
        return rows, np.full(rows.size, j, dtype=np.int64)
    tx = np.array([j for j, _payload in transmitters], dtype=np.int64)
    starts = indptr[tx]
    lengths = indptr[tx + 1] - starts
    # Entry p of the concatenated spans is CSR entry starts[t] + (p - the
    # offset of span t) for its transmitter t.
    shift = starts - (np.cumsum(lengths) - lengths)
    heard_by = indices[np.repeat(shift, lengths) + np.arange(lengths.sum())]
    counts = np.bincount(heard_by, minlength=group.n)
    if loss > 0.0:
        counts[tx] = 0
    sender_of = np.zeros(group.n, dtype=np.int64)
    sender_of[heard_by] = np.repeat(tx, lengths)
    rows = np.flatnonzero(counts == 1)
    return rows, sender_of[rows]


def _epidemic_decodes_power(group: _SlotGroup, transmitters: list, runtime: SoaRuntime) -> tuple:
    """Friis decode geometry: members whose strongest signal passes SINR.

    Same ``(rows, senders)`` shape; the expressions mirror the float64
    operations of the ``_resolve_powers`` listener loop over the compiled
    power columns, so the sense/reception/capture thresholds and the
    strongest-transmitter argmax are bit-identical to the scalar channel.
    A decoding member adopts the *strongest* transmitter's payload (capture
    effect), not a sole transmission's.
    """
    n = group.n
    tx_idx = np.asarray([j for j, _payload in transmitters], dtype=np.int64)
    cols = group.power.gather(tx_idx)
    total = cols.sum(axis=1)
    strongest = cols.argmax(axis=1)
    signal = cols[np.arange(n), strongest]
    interference = total - signal + runtime.noise_floor
    decodable = (
        (total >= runtime.sense_threshold)
        & (signal >= runtime.reception_threshold)
        & (signal >= runtime.capture_threshold * interference)
    )
    decodable[tx_idx] = False
    rows = np.nonzero(decodable)[0]
    return rows, tx_idx[strongest[rows]]


def _run_epidemic_slot(sim, runtime: SoaRuntime, group: _SlotGroup) -> None:
    """One single-phase epidemic slot: flood decisions + decode adoption.

    An owner whose ``pop()`` yields a payload broadcasts it, counted on its
    node at once as the scalar loop counts it.  A listener decodes a payload
    when exactly *one* transmission is audible to it (unit disk) or when the
    strongest received power passes the SINR test (Friis) — the same rules
    the scalar channel kernels apply — and a configured loss then drops each
    decode independently with one draw per decoding listener, in ascending
    member order.  The adoption callback revalidates payload shape and the
    member's not-yet-adopted status, so stale role assumptions are
    impossible.

    The decode geometry is resolved afresh every occurrence: each owner
    floods once, so a transmitter set never repeats and a memo of it would
    never be hit.

    The owners are a map from member index to ``(pop, node,
    pending_broadcasts)``, in ascending member order, so the transmitters
    come out in the scalar loop's order.  An owner whose pop just spent its
    last broadcast is deleted from it: it holds its message, so ``_adopt``
    does nothing more and its ``pop()`` would return ``None`` for ever, with
    no side effect.  An owner that has not adopted a message stays.
    """
    transmitters = []
    spent = []
    owners = group.owners
    for i, (pop, node, pending) in owners.items():
        payload = pop()
        if payload is not None:
            node.broadcasts += 1
            transmitters.append((i, tuple(payload)))
            if not pending():
                spent.append(i)
    if not transmitters:
        return
    for i in spent:
        del owners[i]
    runtime.moved = True
    trace = sim.trace
    round_index = sim.round_index
    member_ids = group.member_ids
    if trace is not None:
        for j, _payload in transmitters:
            trace.record(
                EventKind.BROADCAST,
                round_index,
                int(member_ids[j]),
                group.slot,
                0,
                "PAYLOAD",
            )
    if group.power is not None:
        rows, senders = _epidemic_decodes_power(group, transmitters, runtime)
    else:
        rows, senders = _epidemic_decodes_disjunction(group, transmitters, runtime.loss)
    if rows.size and runtime.loss > 0.0:
        keep = runtime.rng_random(rows.size) >= runtime.loss
        rows = rows[keep]
        senders = senders[keep]
    # Adoption is monotone, so members this runtime has already seen adopt
    # can be dropped wholesale: their callback would validate and return
    # False without any side effect.  The flags are conservative (a member
    # adopting on a scalar-fallback occurrence just keeps taking the slow
    # path), applied only *after* the loss draw so the stream position is
    # untouched.  In the flooded steady state this empties the loop.
    adopted = runtime.adopted_flags
    if rows.size:
        fresh = ~adopted[member_ids[rows]]
        rows = rows[fresh]
        senders = senders[fresh]
    payload_of = dict(transmitters)
    adopt_of = runtime.adopt_of
    records = group.records
    end_round = round_index + 1
    for i, s in zip(rows.tolist(), senders.tolist()):
        record = records[i]
        if adopt_of[record[REC_ID]](payload_of[s]):
            adopted[record[REC_ID]] = True
            _stamp_delivery(record, end_round, trace)


#: Protocol family -> (kernel, required rounds per slot).  NeighborWatchRB
#: and MultiPathRB share the stream kernel: both drive 1Hop/2Bit exchanges
#: and differ only in the post-accept callback their ``soa_state_spec``
#: binds: ``update_commits`` (the commit-pipeline rerun, for a bit at the
#: committed frontier) vs. ``drain_slot`` (the control-stream drain, handed
#: each completed frame of a framed stream that can move its device, as one
#: integer).
_FAMILIES = (
    (NeighborWatchNode, _run_stream_slot, NUM_PHASES),
    (MultiPathNode, _run_stream_slot, NUM_PHASES),
    (EpidemicNode, _run_epidemic_slot, 1),
)


def _lowerable(proto, family) -> bool:
    """Whether ``proto`` can run inside a compiled slot group of ``family``."""
    return isinstance(proto, family) and not getattr(proto, "may_transmit_anywhere", False)


class SoaRuntime:
    """Per-simulation compilation and execution of SoA slot groups.

    Construction walks the plan's slot records and compiles every slot
    whose participants all belong to one :data:`family <_FAMILIES>`
    (adversaries of a different class in the static records reject
    the slot; opportunistic joiners are handled per occurrence by the
    engine's scalar fallback).  ``groups`` maps each compiled slot to its
    :class:`_SlotGroup`; an empty map means the simulation gains nothing
    from this tier and the engine discards the runtime.

    The channel's :meth:`~repro.sim.radio.Channel.soa_round_support`
    verdict picks the busy model — ``"disjunction"`` compiles a group-local
    CSR adjacency (an epidemic group's holds its owners' columns only, see
    :meth:`_group_adjacency`), ``"power-sum"`` a lazy member×member
    power-column cache (:class:`_PowerColumns`) — and
    carries the loss probability; ``rng`` is the simulation generator the
    loss draws are burned from (required whenever loss is configured).
    """

    def __init__(
        self,
        nodes: Sequence[SimNode],
        plan: SlotPlan,
        link_state,
        phases_per_slot: int,
        *,
        channel=None,
        rng=None,
    ) -> None:
        support = channel.soa_round_support() if channel is not None else None
        self.busy_mode = support.busy if support is not None else "disjunction"
        self.loss = float(support.loss_probability) if support is not None else 0.0
        self.rng_random = rng.random if rng is not None else None
        if self.loss > 0.0 and self.rng_random is None:
            raise ValueError("loss-drawing SoA kernels need the simulation rng")
        self.sense_threshold = 0.0
        self.reception_threshold = 0.0
        self.capture_threshold = 0.0
        self.noise_floor = 0.0
        if self.busy_mode == "power-sum":
            self.sense_threshold = channel.sense_threshold
            self.reception_threshold = channel.reception_threshold
            self.capture_threshold = channel.capture_threshold
            self.noise_floor = channel.noise_floor
        self.groups: dict[int, _SlotGroup] = {}
        size = max((node.node_id for node in nodes), default=0) + 1
        #: Node-id-indexed "known to have adopted" flags for the epidemic
        #: kernel (conservative: set only by compiled adoptions).
        self.adopted_flags = np.zeros(size, dtype=bool)
        # The epidemic spec varies per slot only in ownership, and a device
        # listens in ~density-many slots, so soa_node_spec() is called and
        # validated once per device into node-id-indexed tables: a group
        # checks its members with one gather, finds its owners by comparing
        # owner slots with its own, and the kernel looks adopt_of up by node
        # id only when a member decodes.
        self._epidemic_ok = np.zeros(size, dtype=bool)
        self._owner_slot = np.full(size, -1, dtype=np.int64)
        self._pop_of: list = [None] * size
        self._pending_of: list = [None] * size
        self.adopt_of: list = [None] * size
        for node in nodes:
            proto = node.protocol
            if _lowerable(proto, EpidemicNode):
                spec = proto.soa_node_spec()
                nid = node.node_id
                self._epidemic_ok[nid] = True
                self._owner_slot[nid] = spec["owner_slot"]
                self._pop_of[nid] = spec["pop"]
                self._pending_of[nid] = spec["pending_broadcasts"]
                self.adopt_of[nid] = spec["adopt"]
        self.member_slots = 0
        self.slots_run = 0
        self.scalar_fallbacks = 0
        #: Raised whenever a member's state moves — a sender advances, a
        #: receiver accepts a bit, an epidemic owner pops a payload — and by
        #: the engine for every scalar slot; the engine clears it at each
        #: cycle boundary to recognise quiet cycles.
        self.moved = True
        self.cycles_fast_forwarded = 0
        self.busy_cache_evictions = 0
        self.occurrence_evictions = 0
        self.frame_completions = 0
        self.frame_drains = 0
        self._decoded_frames: dict = {}
        #: Node id -> seat of a framed receiver (see :func:`_note_commits`).
        self._seats: dict = {}
        self.thrash_warned = False
        for slot, records in plan.slot_records.items():
            group = self._compile_slot(
                slot,
                records,
                plan.participant_arrays[slot],
                link_state,
                phases_per_slot,
            )
            if group is not None:
                self.groups[slot] = group
                self.member_slots += group.n

    # -- compilation -----------------------------------------------------------------
    def _compile_slot(
        self,
        slot: int,
        records: tuple,
        member_ids: np.ndarray,
        link_state,
        phases_per_slot: int,
    ) -> Optional[_SlotGroup]:
        first = records[0][REC_NODE].protocol
        kernel = required_phases = None
        family = None
        for cls, run, phases in _FAMILIES:
            if isinstance(first, cls):
                family, kernel, required_phases = cls, run, phases
                break
        if family is None or phases_per_slot != required_phases:
            return None
        n = len(records)
        owners = []
        owner_mask = veto_mask = 0
        receiver_at: list = []
        frame_bits = frame_rule = columns = None
        if kernel is _run_epidemic_slot:
            if not self._epidemic_ok[member_ids].all():
                return None
            # Only owners pop, so the group CSR holds their columns only.
            columns = np.flatnonzero(self._owner_slot[member_ids] == slot)
            pop_of, pending_of = self._pop_of, self._pending_of
            owners = {
                i: (pop_of[nid], records[i][REC_NODE], pending_of[nid])
                for i, nid in zip(columns.tolist(), member_ids[columns].tolist())
            }
        else:
            # The stream protocols bind per-slot machines, so they resolve
            # one soa_state_spec per (member, slot) pair.  A receiver entry is
            # (stream, commit callback, stream bound, committed state, seat);
            # the callback is either update_commits, called for an accepted
            # bit at the committed prefix's length, or the drain_slot of a
            # framed stream, handed each completed frame whose
            # (decode_frame, frame_gate) gate is not in the committed map.
            # Then the whole group must drain such frames and keeps frame
            # planes; every member of one simulation shares the codec shape,
            # so one rule and one memo serve them.  The seat is the device's
            # place in the runtime's committed-index bookkeeping (framed
            # receivers only).
            receiver_at = [None] * n
            frame_sizes = set()
            framed = []
            for i, record in enumerate(records):
                proto = record[REC_NODE].protocol
                if not _lowerable(proto, family):
                    return None
                spec = proto.soa_state_spec(slot)
                if spec is None:
                    return None
                if spec["role"] == "owner":
                    owners.append((1 << i, spec["sender"]))
                    owner_mask |= 1 << i
                    if spec["idle_veto"]:
                        veto_mask |= 1 << i
                    continue
                receiver = spec["receiver"]
                post = spec.get("update_commits")
                if post is None:
                    if receiver.frame_bits is None:
                        return None
                    post = partial(spec["drain_slot"], slot)
                    frame_rule = (spec["decode_frame"], spec["frame_gate"])
                    framed.append(i)
                frame_sizes.add(receiver.frame_bits)
                receiver_at[i] = (
                    receiver, post, receiver.expected_length, spec.get("committed"), None
                )
            if len(frame_sizes) > 1:
                return None
            frame_bits = next(iter(frame_sizes), None)

        if n > 1 and np.any(np.diff(member_ids) <= 0):
            return None
        if self.busy_mode == "power-sum":
            power = _PowerColumns(member_ids, link_state)
            adjacency = (None, None)
        else:
            power = None
            adjacency = self._group_adjacency(member_ids, link_state, columns)

        group = _SlotGroup()
        group.slot = slot
        group.run = kernel
        group.n = n
        group.records = records
        group.member_ids = member_ids
        group.indptr, group.indices = adjacency
        group.power = power
        group.busy_cache = {}
        group.occurrences = {}
        group.tally = {}
        group.cache_hits = 0
        group.cache_misses = 0
        group.occurrence_hits = 0
        group.occurrence_misses = 0
        group.owners = owners
        group.owner_mask = owner_mask
        group.veto_mask = veto_mask
        group.receiver_at = receiver_at
        group.planes = group.counters = group.frames = None
        group.frame_rule = frame_rule
        # One simulation's codecs share their shape, so its frame groups
        # share one decode memo.
        group.decoded_frames = self._decoded_frames.setdefault(frame_bits, {})
        group.committed_masks = None
        if frame_bits is not None:
            group.planes = [0] * frame_bits
            group.counters = [0] * frame_bits.bit_length()
            # Each framed receiver's index masks start from its live commit
            # map (the source's and the liars' set-up commits).
            masks = group.committed_masks = {}
            seats = self._seats
            for i in framed:
                receiver, post, limit, committed, _seat = receiver_at[i]
                nid = records[i][REC_ID]
                seat = seats.get(nid)
                if seat is None:
                    seat = seats[nid] = [len(committed), committed, []]
                seat[2].append((masks, 1 << i))
                for index in committed:
                    masks[index] = masks.get(index, 0) | 1 << i
                receiver_at[i] = (receiver, post, limit, committed, seat)
        group.resync()
        return group

    @staticmethod
    def _group_adjacency(
        member_ids: np.ndarray, link_state, columns: Optional[np.ndarray] = None
    ):
        """Group-local hearers-of-sender CSR from the channel's link state.

        ``indices[indptr[j]:indptr[j+1]]`` lists, ascending, the local
        indices that hear local member ``j``: the true entries of column
        ``j`` of the members' audibility block.  Rows ascend so the kernels'
        decode/draw iteration matches the scalar loop's ascending listener
        order.  On the CSR tier :meth:`UnitDiskLinkState.block_entries`
        returns the entries in exactly that layout, since the member ids
        ascend.

        ``columns`` (ascending local indices) limits the CSR to those
        senders and leaves every other member's span empty.  An epidemic
        group passes its owners: only owners pop, so the kernel reads the
        CSR only at them, and the other members (about 15 per owner at
        10^4 nodes) would cost their whole neighbourhoods for nothing.  A
        stream group keeps the full adjacency, since any member echoes or
        relays.
        """
        n = member_ids.size
        senders = member_ids if columns is None else member_ids[columns]
        if isinstance(link_state, UnitDiskLinkState):
            hearers, col = link_state.block_entries(member_ids, senders)
        else:
            # Row-major nonzero over the transpose comes out sender-sorted
            # with hearers ascending within each sender — the CSR layout,
            # with no argsort/reindex pass.
            col, hearers = np.nonzero(link_block(link_state, member_ids, senders).T)
        counts = np.bincount(col, minlength=senders.size)
        if columns is not None:
            per_member = np.zeros(n, dtype=np.int64)
            per_member[columns] = counts
            counts = per_member
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, np.asarray(hearers, dtype=np.int64)

    # -- execution -------------------------------------------------------------------
    def run_slot(self, sim, group: _SlotGroup) -> None:
        """Execute one compiled slot occurrence (no opportunistic joiners)."""
        self.slots_run += 1
        group.run(sim, self, group)

    def repeat_tallies(self, cycles: int) -> None:
        """Credit ``cycles`` more repetitions of the tallied broadcasts.

        The engine calls this when it jumps over ``cycles`` whole quiet
        schedule cycles, with the tallies holding exactly one quiet cycle
        (flushed at the boundary before it); a skipped cycle would have
        broadcast exactly what that cycle did.  Only stream groups tally:
        an epidemic broadcast pops a payload, which raises :attr:`moved`,
        so a quiet cycle has no epidemic broadcast to repeat.
        """
        factor = cycles + 1
        for group in self.groups.values():
            tally = group.tally
            for phase_tx in tally:
                tally[phase_tx] *= factor
        self.cycles_fast_forwarded += cycles

    def flush_broadcasts(self) -> None:
        """Fold the stream groups' broadcast tallies into the nodes.

        A tally counts occurrences per six-mask tuple ``(b1, heard1, b2,
        heard2, tx4, tx5)``; each member of each mask broadcast once per
        such occurrence.

        Called by the engine at the end of ``run()``/``run_slots()`` — the
        only points where ``SimNode.broadcasts`` is consumed — and at a
        run's first quiet cycle boundary (see :meth:`repeat_tallies`).
        Idempotent: each flush clears the tallies, and scalar-fallback
        occurrences (like the epidemic kernel) increment the nodes
        directly, so the paths compose.  An epidemic group's tally stays
        empty.
        """
        for group in self.groups.values():
            tally = group.tally
            if not tally:
                continue
            # Tuples share masks, and a mask decodes in O(n): sum each
            # distinct mask's count first.
            counts: dict = {}
            for phase_tx, times in tally.items():
                for mask in phase_tx:
                    if mask:
                        counts[mask] = counts.get(mask, 0) + times
            n = group.n
            folded = np.zeros(n, dtype=np.int64)
            for mask, times in counts.items():
                folded[_mask_indices(mask, n)] += times
            records = group.records
            for i in np.nonzero(folded)[0]:
                records[i][REC_NODE].broadcasts += int(folded[i])
            tally.clear()

    def flush_frames(self) -> None:
        """Bring every framed receiver stream level with the scalar loop.

        Called by the engine at the end of ``run()``/``run_slots()``, so
        every reader outside the kernel sees the scalar loop's streams (see
        :meth:`_SlotGroup.flush_frames`).
        """
        for group in self.groups.values():
            group.flush_frames()

    def note_commits(self, records) -> None:
        """Mark the commits a scalar fallback made in the index masks.

        A framed receiver may commit in any slot whose frame it drains, and
        every frame group it listens in must see the commit.  Were a mask
        ever behind, it would only hand ``drain_slot`` a frame that the
        drain's own gate check drops, and that drain would mark the commit.
        """
        seats = self._seats
        if seats:
            for record in records:
                seat = seats.get(record[REC_ID])
                if seat is not None and len(seat[1]) != seat[0]:
                    _note_commits(seat)

    # -- introspection ---------------------------------------------------------------
    def info(self) -> dict:
        """Counters for :meth:`Simulation.plan_cache_info` (see its docstring)."""
        groups = self.groups.values()
        return {
            "enabled": True,
            "slots_compiled": len(self.groups),
            "member_slots": self.member_slots,
            "slots_run": self.slots_run,
            "scalar_fallbacks": self.scalar_fallbacks,
            "cycles_fast_forwarded": self.cycles_fast_forwarded,
            "frame_completions": self.frame_completions,
            "frame_drains": self.frame_drains,
            "occurrence_hits": sum(g.occurrence_hits for g in groups),
            "occurrence_misses": sum(g.occurrence_misses for g in groups),
            "occurrence_evictions": self.occurrence_evictions,
            "busy_cache_hits": sum(g.cache_hits for g in groups),
            "busy_cache_misses": sum(g.cache_misses for g in groups),
            "busy_cache_entries": sum(len(g.busy_cache) for g in groups),
            "busy_cache_evictions": self.busy_cache_evictions,
        }
