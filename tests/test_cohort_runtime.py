"""Cohort runtime: grouping, copy-on-divergence, re-merge and oracle fidelity.

The shared-state batched executor (:mod:`repro.sim.batch`) is pinned against
the per-device oracle in two complementary ways:

* whole-run record identity for representative scenarios (here and in
  ``tests/test_kernel_equivalence.py``), and
* a *structural* property: with re-merging disabled, cohorts split **exactly**
  at the first round where two members' state-relevant observation streams
  differ — never earlier (no spurious split), never later (which would have
  shared a transition that should have diverged) — and splits only ever
  refine the partition.  The oracle run is instrumented to record, per
  device, the projected (``busy``) observation of every round its phase
  machine declared relevant, which is the ground truth the split log must
  match.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.placement import random_fault_selection
from repro.core.neighborwatch import NeighborWatchNode
from repro.core.runtime import OPAQUE_LISTEN, PhaseContext, PhaseDrivenProtocol, action_spec
from repro.core.messages import FrameKind
from repro.core.protocol import Protocol
from repro.sim.batch import CohortRuntime
from repro.sim.builder import build_simulation
from repro.sim.config import FaultPlan, ScenarioConfig
from repro.sim.engine import clear_link_cache
from repro.sim.plan import SlotPlan
from repro.topology.deployment import grid_jittered_deployment, uniform_deployment


MAX_ROUNDS = 2500


def _nw_scenario(seed: int, scenario: str):
    """The three divergence-heavy scenarios called out in the issue.

    Deployments are chosen so splits genuinely occur: marginal Friis power
    needs a map wider than the schedule's slot-reuse separation (co-slot
    squares bleeding weak signals across reception boundaries), while
    capture/jamming divergence shows up on a small dense grid already.
    Note that pure loss and pure capture never split a ``busy``-projected
    cohort — losses and capture resolution change *what* decodes, not whether
    the channel is sensed busy — which the runs below double-check implicitly
    (record identity holds regardless).
    """
    if scenario == "lossy-friis":
        deployment = uniform_deployment(300, 13.0, 13.0, rng=seed % 97)
        config = ScenarioConfig(
            protocol="neighborwatch", radius=3.0, message_length=3, seed=seed,
            channel="friis", loss_probability=0.25,
        )
        return deployment, config, FaultPlan()
    deployment = grid_jittered_deployment(4, 4, spacing=1.0)
    if scenario == "capture":
        config = ScenarioConfig(
            protocol="neighborwatch", radius=3.0, message_length=3, seed=seed,
            channel="unitdisk", capture_probability=0.6, loss_probability=0.15,
        )
        jammers = random_fault_selection(25, 2, exclude=[12], rng=seed)
        faults = FaultPlan(jammers=tuple(jammers), jammer_budget=40, jam_probability=0.25)
        return deployment, config, faults
    if scenario == "jammer":
        config = ScenarioConfig(
            protocol="neighborwatch", radius=3.0, message_length=3, seed=seed,
        )
        jammers = random_fault_selection(25, 3, exclude=[12], rng=seed)
        faults = FaultPlan(jammers=tuple(jammers), jammer_budget=40, jam_probability=0.3)
        return deployment, config, faults
    raise ValueError(scenario)


def _cohort_sim(deployment, config, faults=None, **runtime_kwargs):
    """A simulation driven by a freshly attached, configurable CohortRuntime."""
    sim = build_simulation(deployment, config, faults, use_cohort_runtime=False, use_soa_kernels=False)
    runtime = CohortRuntime(sim.nodes, sim.plan, **runtime_kwargs)
    sim.cohort_runtime = runtime
    sim._slot_runtime = runtime if runtime.cohorts else None
    return sim, runtime


def _instrumented_oracle(deployment, config, faults):
    """A scalar-oracle simulation whose devices log their relevant observations.

    Returns ``(sim, streams)`` where ``streams[node_id]`` is the ordered list
    of ``((cycle, slot, phase), busy)`` for every round the device's phase
    machine declared relevant (``phase_act`` returned ``None`` — listen and
    care).  Rounds the machine transmits in or declares opaque are excluded,
    mirroring exactly what the cohort runtime is allowed to split on.
    """
    sim = build_simulation(deployment, config, faults, use_cohort_runtime=False, use_soa_kernels=False)
    streams: dict[int, list] = {}
    for node in sim.nodes:
        proto = node.protocol
        if proto is None or not node.honest or not getattr(proto, "shareable", False):
            continue
        log: list = []
        streams[node.node_id] = log
        relevance: dict = {}

        def wrapped_phase_act(ctx, _proto=proto, _relevance=relevance):
            spec = type(_proto).phase_act(_proto, ctx)
            _relevance[(ctx.slot_cycle, ctx.slot, ctx.phase)] = spec is None
            return spec

        def wrapped_observe(cycle, slot, phase, observation, _proto=proto,
                            _relevance=relevance, _log=log):
            if _relevance.get((cycle, slot, phase)):
                _log.append(((cycle, slot, phase), observation.busy))
            type(_proto).observe(_proto, cycle, slot, phase, observation)

        proto.phase_act = wrapped_phase_act
        proto.observe = wrapped_observe
    # The plan bound the un-wrapped methods at construction; recompile it.
    sim.plan = SlotPlan(sim.nodes, sim.schedule)
    return sim, streams


class TestCohortGrouping:
    def test_square_members_share_interests_and_machines(self, tiny_grid_deployment, nw_config):
        sim = build_simulation(tiny_grid_deployment, nw_config, use_cohort_runtime=True, use_soa_kernels=False)
        runtime = sim.cohort_runtime
        assert runtime is not None and runtime.cohorts
        for cohort in runtime.cohorts:
            assert len(cohort.members) >= 2
            for node in cohort.members:
                assert node.protocol is cohort.machine
                assert node.honest
                assert tuple(type(cohort.machine).interests(node.protocol)) == cohort.slots

    def test_adversaries_liars_and_source_are_singletons(self, tiny_grid_deployment, nw_config):
        jammers = random_fault_selection(25, 2, exclude=[12], rng=9)
        liars = random_fault_selection(25, 2, exclude=[12] + list(jammers), rng=10)
        faults = FaultPlan(jammers=tuple(jammers), jammer_budget=10, liars=tuple(liars))
        sim = build_simulation(tiny_grid_deployment, nw_config, faults, use_cohort_runtime=True, use_soa_kernels=False)
        runtime = sim.cohort_runtime
        shared = set(runtime.cohort_of)
        assert tiny_grid_deployment.source_index not in shared
        for node_id in (*jammers, *liars):
            assert node_id not in shared

    def test_multipath_runs_all_singleton_on_the_scalar_loop(self, tiny_grid_deployment, mp_config):
        sim = build_simulation(tiny_grid_deployment, mp_config, use_cohort_runtime=True, use_soa_kernels=False)
        info = sim.plan_cache_info()["cohort_runtime"]
        assert info["enabled"] is True
        assert info["active"] is False
        assert info["shared_members"] == 0
        assert sim._slot_runtime is None

    def test_plan_cache_info_shape(self, tiny_grid_deployment, nw_config):
        sim = build_simulation(tiny_grid_deployment, nw_config, use_cohort_runtime=True, use_soa_kernels=False)
        sim.run(600)
        info = sim.plan_cache_info()
        assert set(info) == {
            "submatrix", "transmissions_interned", "cohort_runtime",
            "soa_kernels", "spatial_tiling",
        }
        cohort_info = info["cohort_runtime"]
        assert set(cohort_info) == {
            "enabled", "active", "initial_cohorts", "cohorts", "shared_members",
            "singletons", "share_hits", "divergence_splits", "cohort_merges",
        }
        assert cohort_info["share_hits"] > 0

        scalar = build_simulation(tiny_grid_deployment, nw_config, use_cohort_runtime=False, use_soa_kernels=False)
        assert scalar.plan_cache_info()["cohort_runtime"] == {"enabled": False}


class TestSplitExactness:
    """Cohorts split exactly at the first relevant-observation divergence."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        scenario=st.sampled_from(["lossy-friis", "capture", "jammer"]),
    )
    def test_splits_match_first_divergence(self, seed, scenario):
        deployment, config, faults = _nw_scenario(seed, scenario)

        clear_link_cache()
        oracle, streams = _instrumented_oracle(deployment, config, faults)
        oracle_result = oracle.run(MAX_ROUNDS)

        clear_link_cache()
        sim, runtime = _cohort_sim(
            deployment, config, faults, record_splits=True, allow_remerge=False
        )
        cohort_result = sim.run(MAX_ROUNDS)

        # The hard contract first: not a bit may move.
        assert cohort_result.to_record() == oracle_result.to_record()
        assert runtime.merge_log == []

        # Monotone refinement: each split partitions its parent's members.
        for _when, parent_ids, groups in runtime.split_log:
            flattened = [m for group in groups for m in group]
            assert sorted(flattened) == sorted(parent_ids)
            assert len(groups) >= 2

        # Exactness: the groups of every split diverge at precisely the
        # recorded round, and agree on every relevant round before it.
        for when, _parent_ids, groups in runtime.split_log:
            leaders = [group[0] for group in groups]
            for i, a in enumerate(leaders):
                for b in leaders[i + 1:]:
                    seq_a, seq_b = streams[a], streams[b]
                    diff = next(
                        (j for j, (ea, eb) in enumerate(zip(seq_a, seq_b)) if ea != eb),
                        None,
                    )
                    assert diff is not None, (
                        f"devices {a} and {b} were split at {when} but their "
                        "relevant observation streams never differ"
                    )
                    assert seq_a[diff][0] == when and seq_b[diff][0] == when
            # Members grouped together still agree at the split round.
            for group in groups:
                anchor = streams[group[0]]
                for member in group[1:]:
                    other = streams[member]
                    prefix = min(len(anchor), len(other))
                    upto = [e for e in anchor[:prefix] if e[0] <= when]
                    assert other[: len(upto)] == upto

        # Final partition: members sharing a cohort never observed
        # differently on any relevant round (no split was missed).
        final: dict[int, list[int]] = {}
        for node_id, cohort in runtime.cohort_of.items():
            final.setdefault(id(cohort), []).append(node_id)
        for members in final.values():
            anchor = streams[members[0]]
            for member in members[1:]:
                assert streams[member] == anchor


class TestRemerge:
    def test_remerge_preserves_records_and_counters(self, tiny_grid_deployment):
        config = ScenarioConfig(
            protocol="neighborwatch", radius=3.0, message_length=3, seed=23,
            channel="friis", loss_probability=0.3,
        )
        clear_link_cache()
        oracle = build_simulation(tiny_grid_deployment, config, use_cohort_runtime=False, use_soa_kernels=False)
        oracle_result = oracle.run(MAX_ROUNDS)

        clear_link_cache()
        sim, runtime = _cohort_sim(tiny_grid_deployment, config, record_splits=True)
        result = sim.run(MAX_ROUNDS)
        assert result.to_record() == oracle_result.to_record()

        info = runtime.info()
        assert info["cohort_merges"] <= info["divergence_splits"]
        live = {id(c) for c in runtime.cohort_of.values()}
        assert info["cohorts"] == len(live) == len(runtime.cohorts)
        # Every merge united disjoint sibling groups, and membership lists
        # stay ascending (the leader is the lowest id).
        for _when, groups in runtime.merge_log:
            flattened = [m for group in groups for m in group]
            assert len(set(flattened)) == len(flattened)
        for cohort in runtime.cohorts:
            ids = [n.node_id for n in cohort.members]
            assert ids == sorted(ids)
            for node in cohort.members:
                assert node.protocol is cohort.machine

    def test_state_signature_gates_merging(self, tiny_grid_deployment, nw_config):
        sim = build_simulation(tiny_grid_deployment, nw_config, use_cohort_runtime=True, use_soa_kernels=False)
        machine = sim.cohort_runtime.cohorts[0].machine
        signature = machine.state_signature()
        assert signature is not None
        clone = copy.deepcopy(machine, {id(machine.context): machine.context,
                                        id(machine.context.schedule): machine.context.schedule,
                                        id(machine.config): machine.config})
        assert clone.state_signature() == signature


class TestCloneForSplit:
    def test_clone_matches_deepcopy_and_is_independent(self, tiny_grid_deployment, nw_config):
        sim = build_simulation(tiny_grid_deployment, nw_config, use_cohort_runtime=True, use_soa_kernels=False)
        sim.run_slots(40)
        machine = None
        for cohort in sim.cohort_runtime.cohorts:
            if isinstance(cohort.machine, NeighborWatchNode):
                machine = cohort.machine
                break
        assert machine is not None
        clone = machine.clone_for_split()
        assert clone is not machine
        assert clone.state_signature() == machine.state_signature()
        assert clone.config is machine.config
        assert clone._schedule is machine._schedule
        assert clone._receivers.keys() == machine._receivers.keys()
        for slot, receiver in machine._receivers.items():
            assert clone._receivers[slot] is not receiver
        # Mutating the clone must not leak into the donor.
        some_slot = next(iter(clone._receivers))
        clone._receivers[some_slot]._received.append(0)
        assert clone.state_signature() != machine.state_signature()


class _ToyPhaseProtocol(PhaseDrivenProtocol, Protocol):
    """Minimal phase-driven protocol exercising the adapter mixin."""

    def __init__(self) -> None:
        self.observed: list = []
        self.ended: list = []

    def interests(self):
        return (0,)

    def phase_act(self, ctx):
        if ctx.phase == 0:
            return action_spec(FrameKind.CONTROL)
        if ctx.phase == 1:
            return OPAQUE_LISTEN
        return None

    def phase_observe(self, ctx, observation):
        self.observed.append((ctx.phase, observation.busy))

    @property
    def delivered(self) -> bool:
        return False


class TestPhaseDrivenAdapters:
    def test_act_adapter_materialises_frames_and_masks_opaque(self):
        import numpy as np

        from repro.core.protocol import NodeContext, SILENCE
        from repro.core.schedule import NodeSchedule

        schedule = NodeSchedule(
            np.asarray([[0.0, 0.0], [1.0, 0.0]]), 2.0, 0, separation=6.0
        )
        proto = _ToyPhaseProtocol()
        proto.setup(NodeContext(
            node_id=7, position=(0.0, 0.0), radius=1.0,
            schedule=schedule, message_length=1,
            is_source=False, source_message=None,
        ))
        frame = proto.act(0, 0, 0)
        assert frame is not None and frame.sender == 7 and frame.kind is FrameKind.CONTROL
        assert proto.act(0, 0, 1) is None  # OPAQUE_LISTEN listens on-air
        assert proto.act(0, 0, 2) is None
        proto.observe(0, 0, 2, SILENCE)
        assert proto.observed == [(2, False)]
        proto.end_slot(0, 0)  # default phase_end: no-op, must not recurse
