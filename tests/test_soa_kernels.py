"""Struct-of-arrays slot kernels: eligibility, counters and oracle fidelity.

PR 7 added a third execution tier (:mod:`repro.sim.soa`): broadcast slots of
the busy-driven protocols lower to packed-bitmask kernels that run whole slot
groups in mask algebra, bypassing the per-device phase machines.  PR 9
extended the tier to loss configurations (batched listener-ordered draws),
Friis power-sum busy groups, and traced runs (events synthesized from the
packed masks); only unit-disk capture stays on the scalar/cohort tiers, its
draws being data-dependent.  These tests pin

* the control surface — the ``use_soa_kernels`` knob, the
  ``REPRO_SOA_KERNELS`` env default and the per-capability eligibility gate
  (:meth:`~repro.sim.radio.Channel.soa_round_support`), with
  ``plan_cache_info()["soa_kernels"]`` counters including the busy-cache
  eviction count and thrash warning;
* the hard contract — exported records, the channel RNG stream position and
  every receiver stream are bit-identical across the SoA, cohort and scalar
  tiers for every compiled capability (deterministic, lossy, Friis,
  Friis+loss), including runs where jammers force per-slot scalar
  fallbacks, and traced SoA runs produce byte-identical event streams to
  the scalar loop;
* the MultiPathRB frame planes — each framed stream's (accepted count,
  partial frame) matches the oracle after every ``run_slots`` chunk, the
  scalar path drains each completed frame once, no stream holds a whole
  frame after a run, and the plane algebra matches per-member lists under
  any accept mask;
* the callbacks the stream kernel skips — NeighborWatchRB's commit rule
  runs exactly for bits at the committed frontier, the MultiPathRB frames
  the kernel withholds from ``drain_slot`` change no state, and each frame
  group's committed-index masks equal its members' live commit maps after
  every chunk, under liars and under jammers whose slots fall back;
* the occurrence memo — both stream protocols on unit disk and Friis,
  with and without loss and idle vetoes, under liars, across a
  quiet-cycle jump and with a memo bound of one entry, equal the scalar
  loop after every ``run_slots`` chunk (records, broadcasts, generator
  state, streams, traced events and handled control messages); an
  occurrence that completes two frame values splits them by plane masks;
  and ``soa_next_pair`` answers what ``has_pending`` and the slot's pair
  did;
* the epidemic kernel — its one-gather decode against a brute-force count,
  shared-slot occurrences against the oracle, per-node broadcast counts,
  kept at the sender, after every chunk and across a jump, and owners
  leaving the group once their broadcasts are spent;
* the runtime's lifetime — no group refers back to its runtime, so a
  dropped finished simulation is freed by reference counting;
* the quiet-cycle fast-forward of ``Simulation.run`` — runs that never
  terminate jump over their idle tail with oracle-identical records and RNG
  positions, and runs with loss draws, traces, opportunistic transmitters or
  uncompiled slots never jump; and
* that MultiPathRB forms no cohort on the cohort tier: it is not shareable.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.epidemic import EpidemicConfig, EpidemicNode, EpidemicPlugin
from repro.core.messages import ControlType, int_from_bits
from repro.core.multipath import MultiPathNode
from repro.core.neighborwatch import NeighborWatchNode
from repro.core.onehop import OneHopReceiver, OneHopSender, parity_of_index
from repro.sim import soa
from repro.sim.builder import build_simulation
from repro.sim.config import FaultPlan, ScenarioConfig
from repro.sim.engine import clear_link_cache, default_soa_kernels
from repro.sim.events import EventLog
from repro.sim.linkstate import UnitDiskLinkState
from repro.sim.plan import REC_ID, REC_NODE
from repro.sim.radio import FriisChannel, UnitDiskChannel
from repro.sim.soa import SoaRuntime
from repro.topology.deployment import Deployment, grid_jittered_deployment, uniform_deployment

MAX_ROUNDS = 2500

#: (knob kwargs, human name) for the three execution tiers.
TIERS = (
    ("soa", {"use_soa_kernels": True}),
    ("cohort", {"use_soa_kernels": False, "use_cohort_runtime": True}),
    ("scalar", {"use_soa_kernels": False, "use_cohort_runtime": False}),
)


def _run_tiers(deployment, config, faults=None, max_rounds=MAX_ROUNDS):
    """Run one scenario per tier; returns {tier: (record, rng_tail, info, streams)}."""
    out = {}
    for tier, kwargs in TIERS:
        clear_link_cache()
        sim = build_simulation(deployment, config, faults, **kwargs)
        result = sim.run(max_rounds)
        # The post-run generator draw pins the RNG stream position: if any
        # tier consumed the channel generator differently, the tails differ.
        out[tier] = (
            result.to_record(),
            sim.rng.random(),
            sim.plan_cache_info(),
            _receiver_streams(sim),
        )
    return out


def _assert_tiers_identical(runs):
    soa_record, soa_tail, _, soa_streams = runs["soa"]
    for tier in ("cohort", "scalar"):
        record, tail, _, streams = runs[tier]
        assert record == soa_record, f"soa record differs from {tier}"
        assert tail == soa_tail, f"soa RNG position differs from {tier}"
        # Records alone can hide a stale or missing stream bit.
        assert streams == soa_streams, f"soa receiver streams differ from {tier}"


def _stream_positions(sim, slot: int) -> tuple:
    """How far each member's 1Hop stream of ``slot`` has moved: the owner's
    pending bits and every receiver's accepted count."""
    positions = []
    for node_id in sim.plan.participant_arrays[slot].tolist():
        spec = sim.nodes[node_id].protocol.soa_state_spec(slot)
        if spec["role"] == "owner":
            positions.append(spec["sender"].pending_count)
        else:
            positions.append(spec["receiver"].received_count)
    return tuple(positions)


def _with_isolated_device(deployment: Deployment) -> Deployment:
    """``deployment`` plus one device out of everyone's range: it can never
    deliver, so a run over it never terminates and ends at its round cap."""
    positions = np.vstack(
        [deployment.positions, [[deployment.width + 20.0, deployment.height + 20.0]]]
    )
    return Deployment(
        positions=positions,
        width=deployment.width + 21.0,
        height=deployment.height + 21.0,
        source_index=deployment.source_index,
    )


class TestDefaultKnob:
    def test_env_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_SOA_KERNELS", raising=False)
        assert default_soa_kernels()

    def test_env_forces_off(self, monkeypatch):
        for value in ("0", "false", "no", "off"):
            monkeypatch.setenv("REPRO_SOA_KERNELS", value)
            assert not default_soa_kernels()

    def test_env_default_is_honored_by_the_engine(self, uniform_small_deployment, nw_config, monkeypatch):
        monkeypatch.setenv("REPRO_SOA_KERNELS", "0")
        sim = build_simulation(uniform_small_deployment, nw_config)
        assert not sim.use_soa_kernels
        assert sim.plan_cache_info()["soa_kernels"] == {"enabled": False}


class TestEligibility:
    def test_unitdisk_deterministic_compiles(self, uniform_small_deployment, nw_config):
        sim = build_simulation(uniform_small_deployment, nw_config, use_soa_kernels=True)
        info = sim.plan_cache_info()["soa_kernels"]
        assert info["enabled"]
        assert info["slots_compiled"] > 0
        assert info["member_slots"] >= info["slots_compiled"]
        # The SoA tier replaces cohort execution outright (the cohort runtime
        # rebinds node protocols to shared machines, which would invalidate
        # the compiled slot specs).
        assert sim.plan_cache_info()["cohort_runtime"] == {"enabled": False}

    @pytest.mark.parametrize(
        "overrides",
        [{"channel": "friis"}, {"loss_probability": 0.2}, {"channel": "friis", "loss_probability": 0.2}],
        ids=["friis", "loss", "friis-loss"],
    )
    def test_friis_and_loss_compile(self, uniform_small_deployment, overrides):
        config = ScenarioConfig(
            protocol="neighborwatch", radius=3.0, message_length=3, seed=11, **overrides
        )
        sim = build_simulation(uniform_small_deployment, config, use_soa_kernels=True)
        info = sim.plan_cache_info()["soa_kernels"]
        assert info["enabled"] and info["slots_compiled"] > 0

    def test_unitdisk_capture_is_ineligible(self, uniform_small_deployment):
        # Capture draws interleave a uniform and an integer choice per
        # collision — data-dependent, unbatchable, hence scalar/cohort only.
        config = ScenarioConfig(
            protocol="neighborwatch", radius=3.0, message_length=3, seed=11,
            capture_probability=0.5,
        )
        sim = build_simulation(uniform_small_deployment, config, use_soa_kernels=True)
        assert sim.plan_cache_info()["soa_kernels"] == {"enabled": False}

    def test_epidemic_slots_with_an_uncompilable_member_stay_scalar(
        self, uniform_small_deployment
    ):
        # Epidemic members are validated once per device; every slot a
        # device that cannot lower listens in must stay on the scalar loop,
        # every other slot compiles, and the mixed run matches the oracle.
        # An isolated device keeps the run going to its cap: the scalar
        # loop may move any state, so no cycle counts as quiet although
        # none moves after the flood.
        from repro.core.epidemic import EpidemicNode
        from repro.sim.engine import Simulation

        class OptedOut(EpidemicNode):
            soa_compilable = False

        config = ScenarioConfig(protocol="epidemic", radius=3.0, message_length=2, seed=11)
        deployment = _with_isolated_device(uniform_small_deployment)
        runs = {}
        for soa in (True, False):
            clear_link_cache()
            built = build_simulation(
                deployment, config, use_soa_kernels=False, use_cohort_runtime=False
            )
            opted_out = built.nodes[7].protocol
            opted_out.__class__ = OptedOut
            sim = Simulation(
                built.nodes, built.schedule, built.channel, built.message,
                rng=built.rng, use_soa_kernels=soa, use_cohort_runtime=False,
            )
            if soa:
                compiled = set(sim.soa_runtime.groups)
                assert compiled
                assert compiled == set(sim.plan.slot_records) - set(opted_out.interests())
            runs[soa] = (sim.run(MAX_ROUNDS).to_record(), sim.rng.random())
            if soa:
                assert sim.plan_cache_info()["soa_kernels"]["cycles_fast_forwarded"] == 0
        assert runs[True] == runs[False]
        assert not runs[True][0]["terminated"]

    def test_tracing_keeps_the_kernels(self, uniform_small_deployment, nw_config):
        sim = build_simulation(
            uniform_small_deployment, nw_config, trace=EventLog(), use_soa_kernels=True
        )
        info = sim.plan_cache_info()["soa_kernels"]
        assert info["enabled"] and info["slots_compiled"] > 0


class TestThreeTierEquivalence:
    """Records, RNG positions and receiver streams agree across all tiers."""

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        protocol=st.sampled_from(["neighborwatch", "multipath", "epidemic"]),
        idle_veto=st.booleans(),
    )
    # Every run compares MultiPathRB's receiver streams and an epidemic
    # flood, whatever is drawn.
    @example(seed=1, protocol="multipath", idle_veto=True)
    @example(seed=1, protocol="epidemic", idle_veto=False)
    def test_random_uniform_deployments(self, seed, protocol, idle_veto):
        deployment = uniform_deployment(70, 7.5, 7.5, rng=seed % 101)
        config = ScenarioConfig(
            protocol=protocol,
            radius=3.0,
            message_length=2,
            seed=seed,
            idle_veto=idle_veto,
        )
        runs = _run_tiers(deployment, config)
        _assert_tiers_identical(runs)
        info = runs["soa"][2]["soa_kernels"]
        assert info["enabled"] and info["slots_run"] > 0

    @settings(max_examples=4, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        protocol=st.sampled_from(["neighborwatch", "multipath", "epidemic"]),
        loss=st.sampled_from([0.15, 0.35]),
    )
    @example(seed=1, protocol="multipath", loss=0.15)
    @example(seed=1, protocol="epidemic", loss=0.35)
    def test_lossy_unitdisk(self, seed, protocol, loss):
        # Loss-only unit disk: one batched listener-ordered draw per phase —
        # the RNG tail assertion is what pins the stream position.
        deployment = uniform_deployment(70, 7.5, 7.5, rng=seed % 101)
        config = ScenarioConfig(
            protocol=protocol,
            radius=3.0,
            message_length=2,
            seed=seed,
            loss_probability=loss,
        )
        runs = _run_tiers(deployment, config, max_rounds=900)
        _assert_tiers_identical(runs)
        info = runs["soa"][2]["soa_kernels"]
        assert info["enabled"] and info["slots_run"] > 0

    @settings(max_examples=4, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        protocol=st.sampled_from(["neighborwatch", "multipath", "epidemic"]),
        loss=st.sampled_from([0.0, 0.2]),
    )
    @example(seed=1, protocol="multipath", loss=0.2)
    @example(seed=1, protocol="epidemic", loss=0.2)
    def test_friis_power_sum_groups(self, seed, protocol, loss):
        # Friis busy resolves through the compiled power blocks; with loss,
        # the decodable-listener draw counts must also replay exactly.
        deployment = uniform_deployment(70, 7.5, 7.5, rng=seed % 101)
        config = ScenarioConfig(
            protocol=protocol,
            radius=3.0,
            message_length=2,
            seed=seed,
            channel="friis",
            loss_probability=loss,
        )
        runs = _run_tiers(deployment, config, max_rounds=900)
        _assert_tiers_identical(runs)
        info = runs["soa"][2]["soa_kernels"]
        assert info["enabled"] and info["slots_run"] > 0

    def test_crashed_and_liars_ride_along(self, uniform_small_deployment, nw_config):
        faults = FaultPlan(crashed=(5, 17), liars=(9,))
        runs = _run_tiers(uniform_small_deployment, nw_config, faults)
        _assert_tiers_identical(runs)
        assert runs["soa"][2]["soa_kernels"]["slots_run"] > 0

    def test_tiling_composes_with_the_kernels(self, uniform_small_deployment, nw_config, link_forms):
        def run(sparse):
            sim = build_simulation(uniform_small_deployment, nw_config, use_soa_kernels=True)
            assert isinstance(sim._link_state, UnitDiskLinkState) is sparse
            assert sim.plan_cache_info()["soa_kernels"]["slots_compiled"] > 0
            return sim.run(MAX_ROUNDS).to_record(), sim.rng.random()

        dense, sparse = link_forms.both(run)
        assert sparse == dense


class TestGroupAdjacency:
    """The sparse tier's one-pass CSR gather must equal the dense slice."""

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        num_nodes=st.integers(1, 80),
        side=st.floats(1.0, 30.0),
        radius=st.floats(0.5, 6.0),
        norm=st.sampled_from(["l2", "linf"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_csr_branch_matches_dense_branch(self, data, num_nodes, side, radius, norm, seed):
        positions = np.random.default_rng(seed).uniform(0.0, side, size=(num_nodes, 2))
        # One device beyond everyone's range: as a member it hears nobody
        # else in its group.
        isolated = num_nodes
        positions = np.vstack([positions, [[side + 3 * radius, side + 3 * radius]]])
        sparse = UnitDiskLinkState(positions, radius, norm)
        assert sparse.indices.dtype == np.int32
        dense = UnitDiskChannel(radius, norm).link_state(positions)
        drawn = data.draw(st.lists(st.integers(0, num_nodes), min_size=1, unique=True))
        members = sorted(set(drawn) | {isolated})
        groups = [members] + [[member] for member in members]
        for group in groups:
            member_ids = np.asarray(group, dtype=np.intp)
            indptr, indices = SoaRuntime._group_adjacency(member_ids, sparse)
            assert (sparse._row_of == -1).all()
            want_indptr, want_indices = SoaRuntime._group_adjacency(member_ids, dense)
            assert indptr.tolist() == want_indptr.tolist()
            assert indices.tolist() == want_indices.tolist()
            assert indptr.dtype == indices.dtype == np.int64
            last = len(group) - 1
            assert indices[indptr[last] : indptr[last + 1]].tolist() == [last]

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        num_nodes=st.integers(1, 80),
        side=st.floats(1.0, 30.0),
        radius=st.floats(0.5, 6.0),
        norm=st.sampled_from(["l2", "linf"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_owner_columns_are_the_full_spans(self, data, num_nodes, side, radius, norm, seed):
        # An epidemic group keeps only its owners' columns: each listed
        # column's span equals its span in the full adjacency, on both link
        # states, and every other member's span is empty.
        positions = np.random.default_rng(seed).uniform(0.0, side, size=(num_nodes, 2))
        members = sorted(data.draw(st.sets(st.integers(0, num_nodes - 1), min_size=1)))
        member_ids = np.asarray(members, dtype=np.intp)
        columns = np.asarray(
            sorted(data.draw(st.sets(st.integers(0, len(members) - 1)))), dtype=np.intp
        )
        sparse = UnitDiskLinkState(positions, radius, norm)
        dense = UnitDiskChannel(radius, norm).link_state(positions)
        for state in (sparse, dense):
            full_ptr, full = SoaRuntime._group_adjacency(member_ids, state)
            indptr, indices = SoaRuntime._group_adjacency(member_ids, state, columns)
            assert indptr.dtype == indices.dtype == np.int64
            assert indptr.size == len(members) + 1
            for j in range(len(members)):
                span = indices[indptr[j] : indptr[j + 1]].tolist()
                want = full[full_ptr[j] : full_ptr[j + 1]].tolist() if j in columns else []
                assert span == want

    @pytest.mark.parametrize("tiled", [True, False], ids=["csr", "dense"])
    def test_epidemic_groups_hold_only_owner_columns(self, tiled, link_forms):
        config = ScenarioConfig(protocol="epidemic", radius=2.0, message_length=2, seed=1)
        link_forms.use(tiled)
        sim = build_simulation(
            uniform_deployment(120, 20, 10, rng=3), config, use_soa_kernels=True
        )
        state = sim._link_state
        assert isinstance(state, UnitDiskLinkState) is tiled
        groups = sim.soa_runtime.groups.values()
        assert groups
        for group in groups:
            full_ptr, full = SoaRuntime._group_adjacency(group.member_ids, state)
            owners = set(group.owners)
            assert owners == {
                i
                for i, nid in enumerate(group.member_ids.tolist())
                if sim.schedule.slot_of_node(nid) == group.slot
            }
            for j in range(group.n):
                span = group.indices[group.indptr[j] : group.indptr[j + 1]].tolist()
                assert span == (full[full_ptr[j] : full_ptr[j + 1]].tolist() if j in owners else [])


class TestPowerColumns:
    """Power-sum groups fetch transmitter columns lazily, from either form."""

    def test_sparse_friis_columns_equal_dense_slice(self):
        rng = np.random.default_rng(8)
        positions = rng.uniform(0.0, 12.0, size=(40, 2))
        chan = FriisChannel(reception_range=3.0)
        matrix = chan.link_state(positions)
        members = np.sort(rng.choice(40, size=25, replace=False)).astype(np.intp)
        dense = soa._PowerColumns(members, matrix)
        sparse = soa._PowerColumns(members, chan.link_state_sparse(positions))
        # Repeats, cached columns and new ones mixed in one request.
        for idx in ([3, 0, 3], [5, 1], [0, 24, 5, 17]):
            got = sparse.gather(idx)
            assert got.dtype == np.float64 and got.shape == (25, len(idx))
            assert np.array_equal(got, dense.gather(idx))
            assert np.array_equal(got, matrix[np.ix_(members, members[idx])])
        assert sorted(sparse.cols) == [0, 1, 3, 5, 17, 24]


class TestScalarFallback:
    def test_jammers_fall_back_per_slot_without_drift(self, uniform_small_deployment, nw_config):
        faults = FaultPlan(jammers=(21,), jammer_budget=40, jam_probability=0.5)
        runs = _run_tiers(uniform_small_deployment, nw_config, faults)
        _assert_tiers_identical(runs)
        info = runs["soa"][2]["soa_kernels"]
        # The jammer is an extra in its neighborhood's slots: those
        # occurrences run on the scalar loop, every other slot stays compiled.
        assert info["scalar_fallbacks"] > 0
        assert info["slots_run"] > 0


def _receiver_streams(sim) -> dict:
    """Every device's 1Hop receiver stream, keyed ``(node id, slot)``.

    A stream is ``(accepted count, bits held)``: all its bits when bounded
    (NeighborWatchRB), its partial frame when framed (MultiPathRB).
    """
    streams = {}
    for node in sim.nodes:
        proto = node.protocol
        if not getattr(proto, "soa_compilable", False):
            continue
        for slot in proto.interests():
            spec = proto.soa_state_spec(slot)
            if spec is not None and spec["role"] == "receiver":
                receiver = spec["receiver"]
                streams[(node.node_id, slot)] = (receiver.received_count, receiver.received_bits)
    return streams


class TestReceiverMaskResync:
    """Compiled slots keep their receiver masks across occurrences.

    A scalar-fallback occurrence moves receiver streams behind those masks,
    so the group must resync from the live receivers before it runs the
    slot compiled again.  A light jammer whose budget outlasts the run makes
    fallbacks and compiled occurrences of the same slots interleave all run
    long.  Records alone could hide a stale mask (MultiPathRB's redundant
    voting can absorb a missed control bit), so the streams are compared
    too.
    """

    @pytest.mark.parametrize(
        "protocol,max_rounds",
        # This deployment's MultiPathRB schedule cycle is 85 slots; its
        # streams first move in fallback occurrences after a few cycles.
        [("neighborwatch", MAX_ROUNDS), ("multipath", 12_000)],
    )
    def test_fallbacks_interleaved_with_compiled_occurrences(
        self, uniform_small_deployment, protocol, max_rounds
    ):
        config = ScenarioConfig(
            protocol=protocol, radius=3.0, message_length=3, multipath_tolerance=1, seed=11
        )
        faults = FaultPlan(jammers=(21,), jammer_budget=100_000, jam_probability=0.03)
        runs = {}
        for tier, kwargs in (TIERS[0], TIERS[2]):
            clear_link_cache()
            log = EventLog()
            sim = build_simulation(uniform_small_deployment, config, faults, trace=log, **kwargs)
            result = sim.run(max_rounds)
            runs[tier] = (
                result.to_record(),
                sim.rng.random(),
                "\n".join(str(event) for event in log).encode(),
                _receiver_streams(sim),
            )
            if tier == "soa":
                info = sim.plan_cache_info()["soa_kernels"]
                assert info["scalar_fallbacks"] > 0
                assert info["slots_run"] > info["scalar_fallbacks"]
                assert not sim.nodes[21].protocol.budget.exhausted
        soa, scalar = runs["soa"], runs["scalar"]
        assert soa[0] == scalar[0], "records differ"
        assert soa[1] == scalar[1], "RNG position differs"
        assert soa[2] == scalar[2], "event streams differ"
        assert soa[3] == scalar[3], "receiver streams differ"
        assert any(count for count, _bits in soa[3].values())


class TestMultipathFrameDrains:
    def test_scalar_path_drains_each_completed_frame_once(
        self, uniform_small_deployment, mp_config, monkeypatch
    ):
        """The scalar path drains ``count // frame_bits`` frames per receiver.

        A framed stream keeps only its accepted count and its partial frame:
        an accepted bit that fills the frame empties it into the drain, and
        no other bit drains.  The SoA kernel, which completes the same
        frames in its planes, must leave every stream equal to the oracle's
        after every chunk; chunks of 53 slots end mid-frame.  The schedule
        cycle is 85 slots and a frame 11 bits, so the first frames complete
        after about 18 chunks.
        """
        drains: dict = {}
        drain = MultiPathNode._drain_frame

        def counted(self, slot, frame):
            key = (self.context.node_id, slot)
            drains[key] = drains.get(key, 0) + 1
            drain(self, slot, frame)

        sims = {}
        for tier, kwargs in (TIERS[0], TIERS[2]):
            clear_link_cache()
            sims[tier] = build_simulation(uniform_small_deployment, mp_config, **kwargs)
        partial_frames = 0
        for _ in range(40):
            sims["soa"].run_slots(53)
            with monkeypatch.context() as patch:
                patch.setattr(MultiPathNode, "_drain_frame", counted)
                sims["scalar"].run_slots(53)
            streams = _receiver_streams(sims["scalar"])
            assert _receiver_streams(sims["soa"]) == streams
            for key, (count, bits) in streams.items():
                frame_bits = sims["scalar"].nodes[key[0]].protocol._codec.frame_bits
                assert drains.get(key, 0) == count // frame_bits, key
                assert len(bits) == count % frame_bits, key
                partial_frames += len(bits) != 0
        assert partial_frames > 0
        assert sum(drains.values()) > 0


class TestFramePlanes:
    """MultiPathRB groups hold framed streams in bit planes.

    Between flushes the kernel keeps each framed stream's frame count and
    partial frame in its planes only, and ``run_slots()`` stores both into
    the receivers at its end.  Chunks of 7 and 53 slots end mid-frame, and
    chunks of one slot end on every occurrence, so after each chunk every
    stream's (count, partial frame) must equal the scalar oracle's.  The
    deployment has a 30-slot cycle and 9-bit frames, so a stream completes
    its first frame after about 240 slots and several frames complete after
    partial ones were stored.
    """

    @pytest.mark.parametrize("chunk,chunks", [(1, 600), (7, 90), (53, 12)])
    def test_streams_match_the_oracle_after_every_chunk(self, mp_config, chunk, chunks):
        deployment = uniform_deployment(30, 6.0, 6.0, rng=7)
        sims = {}
        for tier, kwargs in (TIERS[0], TIERS[2]):
            clear_link_cache()
            sims[tier] = build_simulation(deployment, mp_config, **kwargs)
        groups = sims["soa"].soa_runtime.groups.values()
        (frame_bits,) = {len(group.planes) for group in groups if group.planes is not None}
        mid_frame = after_flush = 0
        flushed: dict = {}
        for _ in range(chunks):
            for sim in sims.values():
                sim.run_slots(chunk)
            streams = _receiver_streams(sims["soa"])
            assert streams == _receiver_streams(sims["scalar"])
            mid_frame += any(bits for _count, bits in streams.values())
            for key, (count, bits) in streams.items():
                assert len(bits) == count % frame_bits
                # A frame whose first bits a flush stored has completed.
                if key in flushed and count >= flushed[key]:
                    after_flush += 1
                    del flushed[key]
                if bits and key not in flushed:
                    flushed[key] = count - len(bits) + frame_bits
        assert mid_frame > 0
        assert after_flush > 0
        assert sims["soa"].plan_cache_info()["soa_kernels"]["slots_run"] > 0

    @pytest.mark.parametrize("tier", ["soa", "scalar"])
    def test_no_stream_holds_a_whole_frame_after_a_run(self, tier):
        # A framed stream keeps its partial frame only: whichever tier
        # completed a frame, no receiver holds frame_bits bits afterwards.
        # A liar floods COMMIT frames and a jammer makes slots fall back.
        config = ScenarioConfig(
            protocol="multipath", radius=3.0, message_length=2, multipath_tolerance=1, seed=11
        )
        deployment = uniform_deployment(30, 6.0, 6.0, rng=11)
        faults = FaultPlan(liars=(4,), jammers=(17,), jammer_budget=200, jam_probability=0.05)
        clear_link_cache()
        sim = build_simulation(deployment, config, faults, **dict(TIERS)[tier])
        sim.run(20_000)
        frames = held = 0
        for node in sim.nodes:
            proto = node.protocol
            if not isinstance(proto, MultiPathNode):
                continue
            frame_bits = proto._codec.frame_bits
            for receiver in proto._receivers.values():
                assert len(receiver.received_bits) <= frame_bits - 1
                frames += receiver.received_count // frame_bits
                held += len(receiver.received_bits)
        assert frames > 0 and held > 0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_plane_algebra_matches_per_member_lists(self, data):
        # Simulated runs almost never leave a receiver that skips a bit
        # with two or more pending bits, so the shift under a partial
        # accept mask is pinned here against per-member lists, and the
        # frame counts and partial frames a flush stores against counts.
        n = data.draw(st.integers(1, 24), label="members")
        frame_bits = data.draw(st.integers(5, 16), label="frame_bits")
        streams = data.draw(st.integers(1, (1 << n) - 1), label="stream mask")
        group = soa._SlotGroup()
        group.n = n
        group.receiver_at = [
            (OneHopReceiver(frame_bits=frame_bits),) if streams >> i & 1 else None
            for i in range(n)
        ]
        group.planes = [0] * frame_bits
        group.counters = [0] * frame_bits.bit_length()
        group.resync()
        pending = {i: [] for i in range(n) if streams >> i & 1}
        totals = dict.fromkeys(pending, 0)
        for _ in range(data.draw(st.integers(1, 4 * frame_bits), label="steps")):
            everyone = data.draw(st.booleans(), label="all accept")
            accepted = streams if everyone else data.draw(st.integers(0, streams)) & streams
            bits = data.draw(st.integers(0, (1 << n) - 1), label="data") & streams
            if not accepted:
                continue
            frames = {}
            for i, bucket in pending.items():
                if accepted >> i & 1:
                    totals[i] += 1
                    bucket.append(bits >> i & 1)
                    if len(bucket) == frame_bits:
                        frames[i] = int_from_bits(bucket)
                        bucket.clear()
            completed = soa._append_frame_bits(group, accepted, bits)
            assert completed == sum(1 << i for i in frames)
            values = soa._column_values(soa._unpack_planes(group.planes, n))
            assert {i: int(values[i]) for i in frames} == frames
            if completed:
                soa._count_frames(group.frames, completed)
            if data.draw(st.booleans(), label="flush"):
                group.flush_frames()
        for _ in range(2):  # the flush is idempotent
            group.flush_frames()
            receivers = {i: group.receiver_at[i][0] for i in pending}
            stored = {i: (r.received_count, r.peek_received()) for i, r in receivers.items()}
            assert stored == {i: (totals[i], pending[i]) for i in pending}
        assert group.frames == []


class TestNeighborWatchFrontierCommits:
    """NeighborWatchRB's commit rule runs only for bits at the committed frontier.

    The rule votes on index ``len(committed)`` of each receiver stream, so
    the stream kernel calls ``update_commits`` only for an accepted bit that
    lands there.  Every ``soa_append`` is classified independently (is the
    new bit's index before, at or past the owner's committed length?), and
    the callbacks must be exactly the frontier appends, each called with its
    bit in place.  Liars, which start fully committed, and the source-range
    receivers of slot 0 ride along; on this strip, 2-vote streams also run
    past the frontier while a bit waits for its second vote.  Records and
    streams must still equal the scalar loop's.
    """

    @pytest.mark.parametrize(
        "protocol,past_frontier", [("neighborwatch", False), ("neighborwatch2", True)]
    )
    def test_callbacks_are_exactly_the_frontier_bits(self, protocol, past_frontier, monkeypatch):
        config = ScenarioConfig(protocol=protocol, radius=3.0, message_length=3, seed=11)
        deployment = uniform_deployment(60, 12, 6, rng=2)
        faults = FaultPlan(liars=(3, 11))
        committed_of: dict = {}
        counts = {"before": 0, "frontier": 0, "past": 0, "calls": 0, "off_frontier": 0}
        spec_of = NeighborWatchNode.soa_state_spec
        append = OneHopReceiver.soa_append

        def probed(update, receiver, committed):
            def update_commits():
                counts["calls"] += 1
                counts["off_frontier"] += len(receiver.peek_received()) != len(committed) + 1
                update()

            return update_commits

        def probed_spec(self, slot):
            spec = spec_of(self, slot)
            if spec is not None and spec["role"] == "receiver":
                receiver, committed = spec["receiver"], spec["committed"]
                committed_of[id(receiver)] = committed
                spec = {**spec, "update_commits": probed(spec["update_commits"], receiver, committed)}
            return spec

        def counted_append(self, data):
            index, frontier = len(self.peek_received()), len(committed_of[id(self)])
            counts["before" if index < frontier else "frontier" if index == frontier else "past"] += 1
            return append(self, data)

        runs = {}
        for tier, kwargs in (TIERS[0], TIERS[2]):
            clear_link_cache()
            with monkeypatch.context() as patch:
                if tier == "soa":
                    patch.setattr(NeighborWatchNode, "soa_state_spec", probed_spec)
                    patch.setattr(OneHopReceiver, "soa_append", counted_append)
                sim = build_simulation(deployment, config, faults, **kwargs)
                result = sim.run(MAX_ROUNDS)
            runs[tier] = (result.to_record(), sim.rng.random(), _receiver_streams(sim))
            if tier == "soa":
                # Slot 0 is the source's: its receivers are the devices in range.
                assert 0 in sim.soa_runtime.groups
        assert runs["soa"] == runs["scalar"]
        assert counts["off_frontier"] == 0
        assert counts["calls"] == counts["frontier"] > 0
        # Most accepted bits land behind a frontier another neighbour moved.
        assert counts["before"] > counts["frontier"]
        assert (counts["past"] > 0) == past_frontier


def _multipath_state(proto) -> tuple:
    """Everything a MultiPathRB control frame can move on one device."""
    votes = {key: {voter: list(w) for voter, w in per.items()} for key, per in proto._votes.items()}
    return (
        dict(proto._commit_values),
        votes,
        set(proto._heard_sent),
        proto._sender.pending_count,
    )


class TestMultipathInertDrains:
    def test_withheld_frames_change_nothing(self, monkeypatch):
        """The stream kernel withholds from ``drain_slot`` only frames that change nothing.

        Around every compiled occurrence the group is flushed, so each
        member's frame count is read off its stream before and after; a
        member whose count crossed a frame boundary completed the frame the
        planes then hold.  A frame the kernel did not hand to ``drain_slot``
        is handed to ``_handle_control`` afterwards, and no vote, commit,
        relay set or queued frame may move; only the member's own drain
        could have moved it in between.  The run is a lying MultiPathRB
        flood, where most HEARD frames arrive after their index committed
        and liars in the source's range hear SOURCE frames about indexes
        they hold.  Records, RNG position and streams must still equal the
        scalar loop's (the extra flushes store what the kernel's own would),
        and the runtime's frame counters must count the completions and the
        drains seen here.
        """
        spec_of = MultiPathNode.soa_state_spec
        run_slot = SoaRuntime.run_slot
        handed: list = []
        skipped = {mtype: 0 for mtype in ControlType}
        drained = completions = 0

        def probed_spec(self, slot):
            spec = spec_of(self, slot)
            if spec is not None and spec["role"] == "receiver":
                drain = spec["drain_slot"]

                def recording(slot, frame):
                    handed.append((self, slot, frame))
                    drain(slot, frame)

                spec = {**spec, "drain_slot": recording}
            return spec

        def checked_run_slot(self, sim, group):
            nonlocal drained, completions
            group.flush_frames()
            counts = [
                None if entry is None else entry[0].received_count for entry in group.receiver_at
            ]
            handed.clear()
            run_slot(self, sim, group)
            group.flush_frames()
            values = soa._column_values(soa._unpack_planes(group.planes, group.n))
            completed = []
            for i, before in enumerate(counts):
                if before is None:
                    continue
                proto = group.records[i][REC_NODE].protocol
                frame_bits = proto._codec.frame_bits
                after = group.receiver_at[i][0].received_count
                if after // frame_bits > before // frame_bits:
                    completed.append((proto, int(values[i])))
            assert all((proto, frame) in completed for proto, _slot, frame in handed)
            drained += len(handed)
            completions += len(completed)
            for proto, frame in completed:
                if (proto, group.slot, frame) in handed:
                    continue
                message = proto._codec.decode_frame(frame)
                if message is None:
                    continue
                before = _multipath_state(proto)
                proto._handle_control(proto._peer_of_slot[group.slot], message)
                assert _multipath_state(proto) == before, message
                skipped[message.mtype] += 1

        config = ScenarioConfig(
            protocol="multipath", radius=3.0, message_length=2, multipath_tolerance=1, seed=11
        )
        deployment = uniform_deployment(30, 6.0, 6.0, rng=7)
        faults = FaultPlan(liars=(4,))
        runs = {}
        for tier, kwargs in (TIERS[0], TIERS[2]):
            clear_link_cache()
            with monkeypatch.context() as patch:
                if tier == "soa":
                    patch.setattr(MultiPathNode, "soa_state_spec", probed_spec)
                    patch.setattr(SoaRuntime, "run_slot", checked_run_slot)
                sim = build_simulation(deployment, config, faults, **kwargs)
                result = sim.run(20_000)
            runs[tier] = (result.to_record(), sim.rng.random(), _receiver_streams(sim))
            if tier == "soa":
                info = sim.plan_cache_info()["soa_kernels"]
        assert runs["soa"] == runs["scalar"]
        assert drained > 0
        assert skipped[ControlType.HEARD] > 0
        assert skipped[ControlType.SOURCE] > 0
        assert skipped[ControlType.COMMIT] == 0
        assert info["frame_drains"] == drained
        assert info["frame_completions"] == completions > drained


def _frame_groups(sim) -> list:
    return [group for group in sim.soa_runtime.groups.values() if group.planes is not None]


def _assert_masks_match_commits(sim) -> None:
    """Each frame group's index masks hold exactly its members' live commits."""
    for group in _frame_groups(sim):
        expected: dict = {}
        for i, entry in enumerate(group.receiver_at):
            if entry is not None:
                for index in entry[3]:
                    expected[index] = expected.get(index, 0) | 1 << i
        assert {g: mask for g, mask in group.committed_masks.items() if mask} == expected


class TestCommittedIndexMasks:
    """A frame group's committed-index masks follow its members' commit maps.

    The masks start from the live maps (the source's and the liars' set-up
    commits) and are updated wherever a member commits: after a drain the
    kernel makes and after a scalar fallback.
    Budgeted jammers join slots at random, so those occurrences fall back
    and members commit inside them.  After every ``run_slots`` chunk the
    masks must equal the maps, and at the end the streams and records the
    oracle's.
    """

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 50),
        faults=st.sampled_from(["liars", "jammers"]),
        chunk=st.sampled_from([30, 90, 270]),
    )
    @example(seed=11, faults="jammers", chunk=60)
    @example(seed=11, faults="liars", chunk=13)
    def test_masks_equal_the_live_commit_maps_after_every_chunk(self, seed, faults, chunk):
        config = ScenarioConfig(
            protocol="multipath", radius=3.0, message_length=2, multipath_tolerance=1, seed=seed
        )
        deployment = uniform_deployment(30, 6.0, 6.0, rng=seed)
        faulty = [i for i in (4, 17, 23) if i != deployment.source_index][:2]
        plan = (
            FaultPlan(liars=faulty)
            if faults == "liars"
            else FaultPlan(jammers=faulty, jammer_budget=200, jam_probability=0.05)
        )
        sims = {}
        for tier, kwargs in (TIERS[0], TIERS[2]):
            clear_link_cache()
            sims[tier] = build_simulation(deployment, config, plan, **kwargs)
        _assert_masks_match_commits(sims["soa"])
        for _ in range(2700 // chunk):
            for sim in sims.values():
                sim.run_slots(chunk)
            _assert_masks_match_commits(sims["soa"])
        assert _chunk_state(sims["soa"]) == _chunk_state(sims["scalar"])

    @pytest.mark.parametrize("faults", ["liars", "jammers"])
    def test_both_update_paths_run(self, faults, monkeypatch):
        # The set-up commits seed the masks.  With liars every later commit
        # is marked after a kernel drain; with jammers some are made, and
        # marked, in scalar fallbacks.
        config = ScenarioConfig(
            protocol="multipath", radius=3.0, message_length=2, multipath_tolerance=1, seed=11
        )
        deployment = uniform_deployment(30, 6.0, 6.0, rng=11)
        plan = (
            FaultPlan(liars=(4, 17))
            if faults == "liars"
            else FaultPlan(jammers=(4, 17), jammer_budget=200, jam_probability=0.05)
        )
        note_seat, note_slot = soa._note_commits, SoaRuntime.note_commits
        marked = {"all": 0, "scalar": 0}

        def counted_seat(seat):
            marked["all"] += 1
            note_seat(seat)

        def counted_slot(self, records):
            for record in records:
                seat = self._seats.get(record[REC_ID])
                marked["scalar"] += seat is not None and seat[0] != len(seat[1])
            note_slot(self, records)

        monkeypatch.setattr(soa, "_note_commits", counted_seat)
        monkeypatch.setattr(SoaRuntime, "note_commits", counted_slot)
        sim = build_simulation(deployment, config, plan, use_soa_kernels=True)
        assert any(group.committed_masks for group in _frame_groups(sim))
        sim.run(20_000)
        _assert_masks_match_commits(sim)
        info = sim.plan_cache_info()["soa_kernels"]
        assert info["frame_drains"] > 0
        assert marked["all"] > marked["scalar"]
        assert (marked["scalar"] > 0) == (info["scalar_fallbacks"] > 0) == (faults == "jammers")


def _chunk_state(sim) -> tuple:
    """What a ``run_slots`` chunk may move: the record (delivery stamps and
    per-node broadcast counts), the generator state and every receiver
    stream."""
    return (
        sim._build_result(False).to_record(),
        [node.broadcasts for node in sim.nodes],
        sim.rng.bit_generator.state,
        _receiver_streams(sim),
    )


def _events(log) -> bytes:
    return "\n".join(str(event) for event in log).encode()


def _handled_controls(monkeypatch) -> dict:
    """Record every MultiPathRB control message handled, per tier, in call order.

    Both tiers reach ``_handle_control`` only for a frame that can move its
    device, so equal sequences mean the kernel drained the same frames in
    the scalar loop's (ascending member) order.
    """
    handled = {"current": []}
    handle = MultiPathNode._handle_control

    def recording(self, peer, message):
        handled["current"].append((self.context.node_id, peer, message))
        handle(self, peer, message)

    monkeypatch.setattr(MultiPathNode, "_handle_control", recording)
    return handled


class TestOccurrenceMemo:
    """Stream occurrences at one lookup, against the scalar oracle.

    A stream group memoizes each occurrence on ``(senders, b1, b2,
    active)``: the phases' heard masks, the failed senders, the loss draws
    of all six phases (burned in one call) and the six transmitter masks
    (tallied once per occurrence, and traced).  Each run below steps the SoA
    tier and the scalar loop through the same ``run_slots`` chunks and
    compares the record, the per-node broadcast counts, the generator
    state and every receiver stream after each chunk and after ``run()``,
    plus the traced event streams and, for MultiPathRB, every handled
    control message in call order.  ``idle_veto`` on and off makes idle
    owners block always and conditionally; liars make streams disagree.
    """

    @pytest.mark.parametrize("idle_veto", [True, False], ids=["veto", "no-veto"])
    @pytest.mark.parametrize(
        "channel,loss",
        [("unit_disk", 0.0), ("unit_disk", 0.2), ("friis", 0.0), ("friis", 0.2)],
    )
    @pytest.mark.parametrize("protocol", ["neighborwatch", "multipath"])
    def test_chunks_match_the_oracle(self, protocol, channel, loss, idle_veto, monkeypatch):
        config = ScenarioConfig(
            protocol=protocol,
            radius=3.0,
            message_length=2,
            multipath_tolerance=1,
            seed=11,
            channel=channel,
            loss_probability=loss,
            idle_veto=idle_veto,
        )
        deployment = uniform_deployment(30, 6.0, 6.0, rng=7)
        faults = FaultPlan(liars=(4, 17))
        handled = _handled_controls(monkeypatch)
        sims, logs, controls = {}, {}, {}
        for tier, kwargs in (TIERS[0], TIERS[2]):
            clear_link_cache()
            logs[tier] = EventLog()
            sims[tier] = build_simulation(deployment, config, faults, trace=logs[tier], **kwargs)
            controls[tier] = []
        initial = sims["soa"].rng.bit_generator.state
        for _ in range(12):
            for tier, sim in sims.items():
                handled["current"] = controls[tier]
                sim.run_slots(37)
            assert _chunk_state(sims["soa"]) == _chunk_state(sims["scalar"])
        records = {}
        for tier, sim in sims.items():
            handled["current"] = controls[tier]
            records[tier] = sim.run(6_000).to_record()
        assert records["soa"] == records["scalar"]
        assert _chunk_state(sims["soa"]) == _chunk_state(sims["scalar"])
        assert _events(logs["soa"]) == _events(logs["scalar"])
        assert controls["soa"] == controls["scalar"]
        info = sims["soa"].plan_cache_info()["soa_kernels"]
        assert info["scalar_fallbacks"] == 0
        assert info["occurrence_hits"] + info["occurrence_misses"] == info["slots_run"]
        assert info["occurrence_hits"] > 0 and info["occurrence_misses"] > 0
        # Only occurrence misses consult the per-mask memo, six masks each
        # at most (phases in which nobody transmits skip it).
        assert info["busy_cache_hits"] + info["busy_cache_misses"] <= 6 * info["occurrence_misses"]
        # A receiver that stops listening never listens again, so the memo
        # keeps only keys of the group's current receiver mask.
        for group in sims["soa"].soa_runtime.groups.values():
            assert all(key[3] == group.active for key in group.occurrences)
        if protocol == "multipath":
            assert controls["soa"]
        # Loss draws moved the generator (and equally on both tiers).
        assert (sims["soa"].rng.bit_generator.state != initial) == bool(loss)

    @pytest.mark.parametrize(
        "protocol,base,message_length,liars",
        [
            ("neighborwatch", uniform_deployment(30, 6.0, 6.0, rng=7), 2, (4,)),
            # MultiPathRB relays long after delivery; on a small grid its
            # backlog drains within the cap (see TestQuietCycleFastForward).
            ("multipath", grid_jittered_deployment(2, 2, spacing=1.0), 1, ()),
        ],
        ids=["neighborwatch", "multipath"],
    )
    def test_tally_survives_a_quiet_cycle_jump(self, protocol, base, message_length, liars):
        # A run that never terminates jumps over its quiet tail, multiplying
        # the per-occurrence tallies; the broadcast counts must still be the
        # scalar loop's.
        config = ScenarioConfig(
            protocol=protocol, radius=3.0, message_length=message_length,
            multipath_tolerance=1, seed=11,
        )
        deployment = _with_isolated_device(base)
        states = {}
        for tier, kwargs in (TIERS[0], TIERS[2]):
            clear_link_cache()
            sim = build_simulation(deployment, config, FaultPlan(liars=liars), **kwargs)
            sim.run_slots(50)
            states[tier] = [_chunk_state(sim), sim.run(9_001).to_record(), _chunk_state(sim)]
            if tier == "soa":
                info = sim.plan_cache_info()["soa_kernels"]
        assert info["cycles_fast_forwarded"] > 0
        assert states["soa"] == states["scalar"]

    def test_overflowing_memo_clears_are_counted(self, monkeypatch):
        # A one-entry memo clears on every miss after the first: the clears
        # are counted, and nothing else changes.
        config = ScenarioConfig(
            protocol="multipath", radius=3.0, message_length=2, multipath_tolerance=1,
            seed=11, loss_probability=0.2,
        )
        deployment = uniform_deployment(30, 6.0, 6.0, rng=7)
        runs, infos = {}, {}
        for bound in (soa._OCCURRENCE_CACHE_MAX, 1):
            monkeypatch.setattr(soa, "_OCCURRENCE_CACHE_MAX", bound)
            for tier, kwargs in (TIERS[0], TIERS[2]):
                clear_link_cache()
                sim = build_simulation(deployment, config, FaultPlan(liars=(4,)), **kwargs)
                sim.run_slots(200)
                chunk = _chunk_state(sim)
                record = sim.run(6_000).to_record()
                runs[bound, tier] = [chunk, record, _chunk_state(sim)]
                if tier == "soa":
                    infos[bound] = sim.plan_cache_info()["soa_kernels"]
            assert runs[bound, "soa"] == runs[bound, "scalar"]
        (default_bound, default), (_one, shrunk) = infos.items()
        assert runs[1, "soa"] == runs[default_bound, "soa"]
        assert default["occurrence_evictions"] == 0
        assert shrunk["occurrence_evictions"] > 0
        assert shrunk["occurrence_misses"] > default["occurrence_misses"]
        assert shrunk["slots_run"] == default["slots_run"]

    def test_one_occurrence_completes_two_frame_values(self, monkeypatch):
        # On a strip wider than 3R several owners share each slot, so one
        # occurrence can complete different frames at different members.
        # The plane split must then hand each member its own frame, and
        # the members must drain in ascending order.
        config = ScenarioConfig(
            protocol="multipath", radius=2.0, message_length=2, multipath_tolerance=1, seed=11
        )
        deployment = uniform_deployment(36, 13, 4, rng=3)
        split = soa._frame_parts
        parts_seen = {"multi": 0, "members": 0}

        def counted(planes, completed):
            parts = split(planes, completed)
            if len(parts) > 1:
                parts_seen["multi"] += 1
                parts_seen["members"] += bin(completed).count("1")
            assert sum(members for members, _frame in parts) == completed
            return parts

        monkeypatch.setattr(soa, "_frame_parts", counted)
        handled = _handled_controls(monkeypatch)
        states, controls = {}, {}
        for tier, kwargs in (TIERS[0], TIERS[2]):
            clear_link_cache()
            handled["current"] = controls[tier] = []
            log = EventLog()
            sim = build_simulation(deployment, config, FaultPlan(liars=(4,)), trace=log, **kwargs)
            sim.run_slots(300)
            chunk = _chunk_state(sim)
            record = sim.run(6_000).to_record()
            states[tier] = [chunk, record, _chunk_state(sim), _events(log)]
            if tier == "soa":
                assert max(len(group.owners) for group in sim.soa_runtime.groups.values()) > 1
        assert parts_seen["multi"] > 0
        assert parts_seen["members"] > 2 * parts_seen["multi"]
        assert states["soa"] == states["scalar"]
        assert controls["soa"] == controls["scalar"]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_frame_parts_match_per_member_values(self, data):
        n = data.draw(st.integers(1, 40), label="members")
        frame_bits = data.draw(st.integers(1, 12), label="frame_bits")
        values = data.draw(
            st.lists(st.integers(0, (1 << frame_bits) - 1), min_size=n, max_size=n), label="values"
        )
        completed = data.draw(st.integers(1, (1 << n) - 1), label="completed")
        planes = [
            sum(1 << i for i, value in enumerate(values) if value >> (frame_bits - 1 - k) & 1)
            for k in range(frame_bits)
        ]
        parts = soa._frame_parts(planes, completed)
        expected: dict = {}
        for i in range(n):
            if completed >> i & 1:
                expected[values[i]] = expected.get(values[i], 0) | 1 << i
        assert parts == [(members, value) for value, members in sorted(expected.items())]


class TestSenderAccessor:
    @settings(max_examples=200, deadline=None)
    @given(
        bits=st.lists(st.integers(0, 1), max_size=12),
        sent=st.integers(0, 12),
        appended=st.lists(st.integers(0, 1), max_size=4),
    )
    def test_next_pair_is_has_pending_plus_the_pair(self, bits, sent, appended):
        """``soa_next_pair`` answers what ``has_pending`` and the slot's pair did."""
        sender = OneHopSender(bits)
        for _ in range(min(sent, len(bits))):
            sender.soa_advance()
        sender.extend_encoded(tuple(appended))
        queue = sender.queued_bits
        pair = sender.soa_next_pair()
        if sender.has_pending:
            assert pair == (parity_of_index(sender.sent_count + 1), queue[sender.sent_count])
            # The pair the scalar slot machine would transmit.
            probe = sender.clone()
            assert probe.begin_slot()
            assert pair == probe.current_pair
        else:
            assert pair is None
            assert not sender.clone().begin_slot()

    def test_extend_encoded_appends_without_checking(self):
        sender = OneHopSender((1,))
        sender.extend_encoded((0, 1, 1))
        assert sender.queued_bits == (1, 0, 1, 1)
        with pytest.raises(ValueError):
            sender.extend((0, 2))


class TestEpidemicKernel:
    """The epidemic kernel: broadcasts counted at the sender, one-gather decodes."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 48),
        density=st.sampled_from([0.0, 0.05, 0.2, 0.6, 1.0]),
        self_links=st.booleans(),
        loss=st.sampled_from([0.0, 0.3]),
    )
    @example(seed=0, n=1, density=1.0, self_links=True, loss=0.0)
    @example(seed=0, n=6, density=0.0, self_links=False, loss=0.3)
    def test_disjunction_decode_matches_brute_force(self, seed, n, density, self_links, loss):
        # hears[r, j]: member r hears member j.  Some members hear nobody at
        # all, and with self-links (as the unit-disk CSR has) a transmitter
        # hears itself, so it decodes its own frame when nothing is drawn.
        rng = np.random.default_rng(seed)
        hears = rng.random((n, n)) < density
        hears |= hears.T & rng.integers(0, 2, (n, n), dtype=bool)
        np.fill_diagonal(hears, self_links)
        hears[rng.random(n) < 0.15] = False
        tx = np.flatnonzero(rng.random(n) < rng.uniform(0.05, 0.9))
        if tx.size == 0:
            tx = np.array([int(rng.integers(n))])
        senders, hearers = np.nonzero(hears.T)
        group = soa._SlotGroup()
        group.n = n
        group.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(senders, minlength=n), out=group.indptr[1:])
        group.indices = hearers.astype(np.int64)

        rows, sources = soa._epidemic_decodes_disjunction(
            group, [(int(j), (1,)) for j in tx], loss
        )
        expected = []
        for r in range(n):
            heard = [int(j) for j in tx if hears[r, j]]
            if len(heard) == 1 and not (loss > 0.0 and r in tx):
                expected.append((r, heard[0]))
        assert list(zip(rows.tolist(), sources.tolist())) == expected

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"loss_probability": 0.25}, {"channel": "friis", "loss_probability": 0.2}],
        ids=["deterministic", "loss", "friis-loss"],
    )
    def test_shared_slots_match_the_oracle(self, overrides, monkeypatch):
        # R = 2 on a 20x10 map reuses every slot several times, so most
        # occurrences have two or more transmitters; the map is too sparse
        # for the flood to reach everyone, so every run goes to its cap.
        multi = 0
        decodes = {
            name: getattr(soa, name)
            for name in ("_epidemic_decodes_disjunction", "_epidemic_decodes_power")
        }

        def counting(decode):
            def counted(group, transmitters, channel):
                nonlocal multi
                multi += len(transmitters) > 1
                return decode(group, transmitters, channel)

            return counted

        for name, decode in decodes.items():
            monkeypatch.setattr(soa, name, counting(decode))
        config = ScenarioConfig(
            protocol="epidemic", radius=2.0, message_length=2, seed=1, **overrides
        )
        runs = _run_tiers(uniform_deployment(120, 20, 10, rng=3), config, max_rounds=1_500)
        _assert_tiers_identical(runs)
        assert multi > 0

    @pytest.mark.parametrize("chunk,chunks", [(1, 90), (13, 12)])
    def test_broadcast_counts_match_the_oracle_after_every_chunk(
        self, epidemic_config, chunk, chunks
    ):
        deployment = uniform_deployment(120, 20, 10, rng=3)
        sims = {}
        for tier, kwargs in (TIERS[0], TIERS[2]):
            clear_link_cache()
            sims[tier] = build_simulation(deployment, epidemic_config, **kwargs)
        groups = sims["soa"].soa_runtime.groups.values()
        for _ in range(chunks):
            for sim in sims.values():
                sim.run_slots(chunk)
            counts = [node.broadcasts for node in sims["soa"].nodes]
            assert counts == [node.broadcasts for node in sims["scalar"].nodes]
            assert not any(group.tally for group in groups)
        assert sum(counts) > 10

    @pytest.mark.parametrize("rebroadcasts", [1, 3])
    def test_spent_owners_leave_their_group(self, rebroadcasts, monkeypatch):
        """An owner leaves its group's owners with its last broadcast, and only then.

        With ``rebroadcast_count=3`` an owner pops three payloads in three
        occurrences and stays listed until the third.  An owner that has
        not adopted stays listed too: this sparse map leaves one device
        out of the flood.  The per-node broadcast counts must equal the
        scalar loop's after every chunk, and whole runs must equal the
        other tiers' records, RNG positions and streams.
        """
        monkeypatch.setattr(
            EpidemicPlugin,
            "build",
            lambda self, config: EpidemicNode(EpidemicConfig(rebroadcast_count=rebroadcasts)),
        )
        config = ScenarioConfig(protocol="epidemic", radius=2.0, message_length=2, seed=1)
        deployment = uniform_deployment(120, 20, 10, rng=3)
        sims = {}
        for tier, kwargs in (TIERS[0], TIERS[2]):
            clear_link_cache()
            sims[tier] = build_simulation(deployment, config, **kwargs)
        groups = sims["soa"].soa_runtime.groups.values()
        owned = {group.slot: list(group.owners) for group in groups}
        listed_midway = waiting = 0
        for _ in range(24):
            for sim in sims.values():
                sim.run_slots(13)
            counts = [node.broadcasts for node in sims["soa"].nodes]
            assert counts == [node.broadcasts for node in sims["scalar"].nodes]
            for group in groups:
                listed = set(group.owners)
                for i in owned[group.slot]:
                    proto = group.records[i][REC_NODE].protocol
                    spent = proto.delivered and proto.pending_broadcasts == 0
                    assert (i in listed) != spent, (group.slot, i)
                    listed_midway += 0 < proto.pending_broadcasts < rebroadcasts
                    waiting += not proto.delivered
        assert set(counts) == {0, rebroadcasts}
        assert sum(len(group.owners) for group in groups) == counts.count(0) > 0
        assert (listed_midway > 0) == (rebroadcasts > 1)
        assert waiting > 0
        _assert_tiers_identical(_run_tiers(deployment, config, max_rounds=3_000))

    @pytest.mark.parametrize("rebroadcasts", [1, 3])
    @pytest.mark.parametrize("loss", [0.0, 0.25], ids=["deterministic", "loss"])
    def test_faults_and_chunks_match_the_oracle(self, rebroadcasts, loss, monkeypatch):
        """Liars, crashes, loss and repeat broadcasts, run in chunks, then to the end.

        After every ``run_slots`` chunk each device's delivery stamp,
        message and broadcast count and the channel generator's position
        must equal the scalar loop's; then so must the whole run's record.
        """
        monkeypatch.setattr(
            EpidemicPlugin,
            "build",
            lambda self, config: EpidemicNode(EpidemicConfig(rebroadcast_count=rebroadcasts)),
        )
        config = ScenarioConfig(
            protocol="epidemic", radius=2.0, message_length=2, seed=1, loss_probability=loss
        )
        deployment = uniform_deployment(120, 20, 10, rng=3)
        faults = FaultPlan(liars=(17, 55), crashed=(3, 90))
        sims = {}
        for tier, kwargs in (TIERS[0], TIERS[2]):
            clear_link_cache()
            sims[tier] = build_simulation(deployment, config, faults, **kwargs)
        assert sims["soa"].soa_runtime is not None

        def state(sim) -> tuple:
            nodes = tuple(
                (node.delivery_round, node.delivered_message, node.broadcasts)
                for node in sim.nodes
            )
            return nodes, sim.rng.bit_generator.state["state"]

        for _ in range(24):
            for sim in sims.values():
                sim.run_slots(13)
            assert state(sims["soa"]) == state(sims["scalar"])
        records = {
            tier: (sim.run(3_000).to_record(), sim.rng.random()) for tier, sim in sims.items()
        }
        assert records["soa"] == records["scalar"]
        liar_messages = {sims["soa"].nodes[i].delivered_message for i in faults.liars}
        assert any(node.delivered for node in sims["soa"].nodes if node.honest)
        assert liar_messages and None not in liar_messages

    def test_broadcast_counts_match_the_oracle_across_a_quiet_cycle_jump(self):
        # The strip of TestQuietCycleFastForward: the flood stops moving
        # after five cycles and the run jumps to its cap.  A jump multiplies
        # the stream tallies; an epidemic device still floods exactly once.
        config = ScenarioConfig(protocol="epidemic", radius=2.0, message_length=2, seed=11)
        deployment = _with_isolated_device(uniform_deployment(60, 24, 4, rng=1))
        counts = {}
        for tier, kwargs in (TIERS[0], TIERS[2]):
            clear_link_cache()
            sim = build_simulation(deployment, config, **kwargs)
            sim.run(3_001)
            counts[tier] = [node.broadcasts for node in sim.nodes]
            if tier == "soa":
                info = sim.plan_cache_info()["soa_kernels"]
        assert info["cycles_fast_forwarded"] > 0
        assert info["busy_cache_hits"] == info["busy_cache_misses"] == 0
        assert counts["soa"] == counts["scalar"]
        assert set(counts["soa"]) == {0, 1}


class TestRunSlotsStamps:
    """run_slots stamps set-up deliveries first, as run() does, on every tier.

    The scalar loop stamps a device that delivered at set-up (the source)
    at the end of the first slot it joins, the SoA kernels only inside
    commit callbacks, so without the stamp at the top of run_slots the
    source's delivery round depended on the tier.
    """

    @pytest.mark.parametrize("protocol", ["epidemic", "neighborwatch", "multipath"])
    def test_records_match_after_chunks(self, protocol):
        config = ScenarioConfig(protocol=protocol, radius=2.0, seed=1)
        deployment = uniform_deployment(120, 20, 10, rng=3)
        source = deployment.source_index
        results = {}
        for tier, kwargs in (TIERS[0], TIERS[2]):
            clear_link_cache()
            sim = build_simulation(deployment, config, **kwargs)
            for _ in range(24):
                sim.run_slots(13)
            assert sim.nodes[source].delivery_round == 0
            results[tier] = (sim.run(3000).to_record(), sim.rng.random())
        assert results["soa"] == results["scalar"]


class TestTraceSynthesis:
    """Traced SoA runs must emit the scalar loop's exact event stream."""

    @staticmethod
    def _trace_bytes(deployment, config, **kwargs):
        clear_link_cache()
        log = EventLog()
        sim = build_simulation(deployment, config, trace=log, **kwargs)
        sim.run(MAX_ROUNDS)
        return "\n".join(str(event) for event in log).encode()

    @pytest.mark.parametrize(
        "protocol,overrides",
        [
            ("neighborwatch", {}),
            ("multipath", {"loss_probability": 0.2}),
            ("epidemic", {"channel": "friis"}),
            ("epidemic", {"loss_probability": 0.25}),
        ],
        ids=["nw-deterministic", "mp-loss", "epidemic-friis", "epidemic-loss"],
    )
    def test_event_streams_byte_identical(self, uniform_small_deployment, protocol, overrides):
        config = ScenarioConfig(
            protocol=protocol, radius=3.0, message_length=2, seed=11, **overrides
        )
        soa = self._trace_bytes(
            uniform_small_deployment, config, use_soa_kernels=True
        )
        scalar = self._trace_bytes(
            uniform_small_deployment,
            config,
            use_soa_kernels=False,
            use_cohort_runtime=False,
        )
        assert soa == scalar


class TestCounters:
    def test_busy_cache_and_run_counters_accumulate(self, uniform_small_deployment, nw_config):
        sim = build_simulation(uniform_small_deployment, nw_config, use_soa_kernels=True)
        before = sim.plan_cache_info()["soa_kernels"]
        assert before["slots_run"] == 0 and before["busy_cache_misses"] == 0
        sim.run(MAX_ROUNDS)
        info = sim.plan_cache_info()["soa_kernels"]
        assert info["slots_run"] > 0
        assert info["busy_cache_misses"] > 0
        assert info["busy_cache_entries"] <= info["busy_cache_misses"]
        assert info["busy_cache_evictions"] == 0

    def test_eviction_counter_and_thrash_warning(
        self, uniform_small_deployment, nw_config, monkeypatch
    ):
        from repro.sim import soa as soa_module

        # Shrink the memo so a normal run overflows it: every clear counts
        # its dropped entries, and the first clear on a >50%-miss group
        # warns once.
        monkeypatch.setattr(soa_module, "_BUSY_CACHE_MAX", 2)
        sim = build_simulation(uniform_small_deployment, nw_config, use_soa_kernels=True)
        with pytest.warns(RuntimeWarning, match="busy cache thrashing"):
            sim.run(MAX_ROUNDS)
        info = sim.plan_cache_info()["soa_kernels"]
        assert info["busy_cache_evictions"] > 0


class TestRuntimeLifetime:
    @pytest.mark.parametrize(
        "config,faults",
        [
            (
                ScenarioConfig(
                    protocol="multipath", radius=3.0, message_length=2,
                    multipath_tolerance=1, seed=11,
                ),
                FaultPlan(liars=(9,)),
            ),
            (ScenarioConfig(protocol="neighborwatch", radius=3.0, message_length=3, seed=11), None),
            (
                ScenarioConfig(
                    protocol="epidemic", radius=3.0, message_length=3, seed=11,
                    channel="friis", loss_probability=0.2,
                ),
                None,
            ),
        ],
        ids=["multipath-liar", "neighborwatch", "epidemic-friis-loss"],
    )
    def test_finished_simulation_is_freed_by_reference_counting(
        self, uniform_small_deployment, config, faults
    ):
        """Dropping a finished SoA simulation frees its runtime, groups and nodes at once.

        No group refers back to its runtime, so nothing of the simulation is
        cyclic garbage: with the collector off, the last reference going is
        enough.  A sweep then holds one finished simulation at a time, and
        its peak memory does not depend on when a full collection happens
        to run.
        """
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            sim = build_simulation(uniform_small_deployment, config, faults, use_soa_kernels=True)
            sim.run(20_000)
            assert sim.soa_runtime is not None and sim.soa_runtime.groups
            runtime = weakref.ref(sim.soa_runtime)
            protocol = weakref.ref(sim.nodes[0].protocol)
            del sim
            assert runtime() is None
            assert protocol() is None
        finally:
            if enabled:
                gc.enable()


class TestRegionKeyedMultipathCohorts:
    """MultiPathRB is not shareable, so it forms no cohort of any key."""

    def test_standard_separation_forbids_multipath_cohorts(
        self, tiny_grid_deployment, mp_config
    ):
        # MultiPathRB is not shareable: under the paper's 3R separation
        # same-slot devices are > 3R apart, so no two could share a machine.
        sim = build_simulation(
            tiny_grid_deployment, mp_config, use_cohort_runtime=True, use_soa_kernels=False
        )
        assert sim.plan_cache_info()["cohort_runtime"]["shared_members"] == 0


class TestDescribeTierEligibility:
    """``experiments describe`` must advertise which execution tier runs."""

    def test_unitdisk_spec_reports_soa(self):
        from repro.experiments.driver import describe_spec
        from repro.registry import EXPERIMENT_SPECS

        text = describe_spec(EXPERIMENT_SPECS.get("FIG5"), scale="small")
        assert "execution tier: struct-of-arrays slot kernels" in text

    def test_per_capability_verdicts_and_fallback_notes(self):
        from repro.experiments.driver import _tier_lines

        friis = _tier_lines({"channel": "friis"})
        assert friis[0].startswith("execution tier: struct-of-arrays")
        assert "power-sum" in friis[0]
        lossy = _tier_lines({"loss_probability": 0.2})
        assert lossy[0].startswith("execution tier: struct-of-arrays")
        assert any("loss_probability=0.2" in line for line in lossy)
        capture = _tier_lines({"capture_probability": 0.5})
        assert capture[0].startswith("execution tier: cohort runtime")
        assert any(
            "capture_probability=0.5" in line and "scalar" in line
            for line in capture
        )
        assert any("per-slot" in line for line in _tier_lines({"num_jammers": 15}))


class TestQuietCycleFastForward:
    """``Simulation.run`` jumps over the quiet tail of a run that never ends.

    Each run is pinned against the scalar oracle (records, which carry the
    per-device broadcast counts and delivery stamps, plus the RNG position)
    and asserts through ``cycles_fast_forwarded`` whether a jump happened, so
    the comparison covers the jump itself rather than a run that stepped
    every slot.  Runs with an uncompiled slot are covered in
    ``TestEligibility``.
    """

    @staticmethod
    def _run(deployment, config, faults=None, *, max_rounds, trace=False, **run_kwargs):
        """Run on the SoA tier and the scalar oracle; returns ``(runs, soa info)``."""
        runs = {}
        for tier, kwargs in (TIERS[0], TIERS[2]):
            clear_link_cache()
            log = EventLog() if trace else None
            sim = build_simulation(deployment, config, faults, trace=log, **kwargs)
            result = sim.run(max_rounds, **run_kwargs)
            events = "\n".join(str(event) for event in log).encode() if trace else None
            runs[tier] = (result.to_record(), sim.rng.random(), events)
            if tier == "soa":
                info = sim.plan_cache_info()["soa_kernels"]
        assert runs["soa"] == runs["scalar"]
        return runs, info

    @pytest.mark.parametrize("protocol", ["neighborwatch", "multipath"])
    def test_stream_kernel_flags_exactly_the_occurrences_that_move(
        self, uniform_small_deployment, protocol
    ):
        # The quiet-cycle test rests on this: a compiled occurrence raises
        # the flag if and only if a sender advanced or a receiver accepted.
        # Under the paper's 3R separation the two always coincide; at 1.5
        # same-slot owners collide, so some occurrences only advance a
        # sender and some only accept a bit.
        config = ScenarioConfig(
            protocol=protocol,
            radius=3.0,
            message_length=2,
            multipath_tolerance=1,
            seed=11,
            schedule_separation=1.5,
        )
        sim = build_simulation(uniform_small_deployment, config, use_soa_kernels=True)
        runtime = sim.soa_runtime
        moving = 0
        compiled = 0
        for _ in range(8 * sim.schedule.num_slots):
            _cycle, slot, _phase = sim.schedule.locate_round(sim.round_index)
            if slot not in runtime.groups:
                sim.run_slots(1)
                continue
            before = _stream_positions(sim, slot)
            runtime.moved = False
            sim.run_slots(1)
            moved = _stream_positions(sim, slot) != before
            assert runtime.moved == moved
            compiled += 1
            moving += moved
        assert 0 < moving < compiled

    @pytest.mark.parametrize("channel", ["unitdisk", "friis"])
    def test_neighborwatch_jumps_to_the_round_cap(self, uniform_small_deployment, channel):
        # The cap ends mid-cycle and off a slot boundary, so the final
        # partial cycle runs slot by slot after the jump.
        config = ScenarioConfig(
            protocol="neighborwatch", radius=3.0, message_length=3, seed=11, channel=channel
        )
        deployment = _with_isolated_device(uniform_small_deployment)
        runs, info = self._run(deployment, config, max_rounds=9_001)
        assert not runs["soa"][0]["terminated"]
        assert info["cycles_fast_forwarded"] > 0

    @pytest.mark.parametrize("channel", ["unitdisk", "friis"])
    def test_epidemic_jumps_to_the_round_cap(self, channel):
        # A strip the flood needs five cycles to cross: a jump taken before
        # the flood stops moving would show in the records.
        config = ScenarioConfig(
            protocol="epidemic", radius=2.0, message_length=2, seed=11, channel=channel
        )
        deployment = _with_isolated_device(uniform_deployment(60, 24, 4, rng=1))
        runs, info = self._run(deployment, config, max_rounds=3_001)
        assert not runs["soa"][0]["terminated"]
        assert info["cycles_fast_forwarded"] > 0

    def test_multipath_jumps_once_its_relay_backlog_drains(self):
        # MultiPathRB keeps relaying control frames long after delivery; on
        # a small grid the backlog drains within ~80 cycles of 54 rounds.
        base = grid_jittered_deployment(2, 2, spacing=1.0)
        config = ScenarioConfig(
            protocol="multipath", radius=3.0, message_length=1, multipath_tolerance=1, seed=11
        )
        runs, info = self._run(_with_isolated_device(base), config, max_rounds=6_000)
        assert not runs["soa"][0]["terminated"]
        assert info["cycles_fast_forwarded"] > 0

    def test_crash_cut_device(self, uniform_small_deployment, nw_config):
        # Crashing device 6's ten neighbours cuts it off; a liar rides along.
        faults = FaultPlan(crashed=(4, 24, 35, 36, 37, 39, 67, 69, 83, 89), liars=(9,))
        runs, info = self._run(uniform_small_deployment, nw_config, faults, max_rounds=9_000)
        assert not runs["soa"][0]["terminated"]
        assert info["cycles_fast_forwarded"] > 0

    def test_stop_when_delivered_false(self, uniform_small_deployment, nw_config):
        # Everyone delivers, but the run is asked to go on to its cap.
        runs, info = self._run(
            uniform_small_deployment, nw_config, max_rounds=7_000, stop_when_delivered=False
        )
        assert runs["soa"][0]["terminated"]
        assert runs["soa"][0]["total_rounds"] > 6_000
        assert info["cycles_fast_forwarded"] > 0

    def test_custom_check_interval(self, uniform_small_deployment, nw_config):
        deployment = _with_isolated_device(uniform_small_deployment)
        runs, info = self._run(deployment, nw_config, max_rounds=9_000, check_interval_slots=7)
        assert info["cycles_fast_forwarded"] > 0

    def test_never_jumps_over_a_stopping_check(self, uniform_small_deployment, nw_config):
        # Every device has delivered and the streams are quiet after five
        # cycles, but the run checks only every eight: cycles 6 and 7 are
        # quiet, and the jump they would allow must be refused so the run
        # stops at the check.
        schedule = build_simulation(uniform_small_deployment, nw_config).schedule
        runs, info = self._run(
            uniform_small_deployment,
            nw_config,
            max_rounds=20_000,
            check_interval_slots=8 * schedule.num_slots,
        )
        assert runs["soa"][0]["terminated"]
        assert runs["soa"][0]["total_rounds"] == 8 * schedule.rounds_per_cycle
        assert info["cycles_fast_forwarded"] == 0

    @pytest.mark.parametrize(
        "faults,overrides,trace",
        [
            (None, {}, True),
            (None, {"loss_probability": 0.2}, False),
            (FaultPlan(jammers=(21,), jammer_budget=40, jam_probability=0.5), {}, False),
        ],
        ids=["traced", "loss", "veto-jammer"],
    )
    def test_excluded_runs_step_every_cycle(
        self, uniform_small_deployment, faults, overrides, trace
    ):
        # A trace records every broadcast, loss draws advance the generator
        # every cycle, and a flex candidate decides per occurrence (possibly
        # from its own RNG) whether to join: none of these cycles repeats.
        config = ScenarioConfig(
            protocol="neighborwatch", radius=3.0, message_length=3, seed=11, **overrides
        )
        deployment = _with_isolated_device(uniform_small_deployment)
        runs, info = self._run(deployment, config, faults, max_rounds=9_000, trace=trace)
        assert not runs["soa"][0]["terminated"]
        assert info["enabled"] and info["cycles_fast_forwarded"] == 0

    def test_cli_summary_reports_the_counter(self, tmp_path, capsys, monkeypatch):
        # Every run_scenario call sums the counter into
        # soa_telemetry_snapshot(), and the run summary prints the sum.
        import re

        from repro.experiments.__main__ import main
        from repro.experiments.spec import ExperimentSpec
        from repro.sim import builder

        monkeypatch.setattr(builder, "_soa_telemetry", {})
        spec = ExperimentSpec.from_dict(
            {
                "name": "SPARSE",
                "title": "a map too sparse for the broadcast to cover",
                "driver": "sweep",
                "rows": "default",
                "label": "radius={radius}",
                "params": {"radii": [2.0], "repetitions": 1, "base_seed": 3},
                "axes": [{"name": "radius", "values": "$radii"}],
                "scenario": {"protocol": "neighborwatch", "radius": "$radius", "message_length": 2},
                "deployment": {"kind": "uniform", "num_nodes": 30, "width": 14.0, "height": 14.0},
                "extra": {"radius": "$radius"},
            }
        )
        path = tmp_path / "sparse.json"
        path.write_text(spec.to_json())
        assert main(["run", "--spec", str(path), "--export", "json"]) == 0
        match = re.search(r"cycles_fast_forwarded=(\d+)", capsys.readouterr().err)
        assert match is not None and int(match.group(1)) > 0
