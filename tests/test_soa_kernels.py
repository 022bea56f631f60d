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
* the hard contract — exported records *and* the channel RNG stream position
  are bit-identical across the SoA, cohort and scalar tiers for every
  compiled capability (deterministic, lossy, Friis, Friis+loss), including
  runs where jammers force per-slot scalar fallbacks, and traced SoA runs
  produce byte-identical event streams to the scalar loop; and
* the region-keyed MultiPath cohort contract that rode along: devices whose
  :func:`~repro.core.regions.region_profile_of` profiles (and states) are
  equal share one machine, split exactly when their busy streams diverge, and
  never group when the profiles differ.  Under the paper's standard ``3R``
  slot separation such cohorts cannot exist (two same-slot devices are more
  than ``3R`` apart, hence have disjoint R-balls), so the geometries below
  deliberately shrink ``schedule_separation``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.builder import build_simulation
from repro.sim.config import FaultPlan, ScenarioConfig
from repro.sim.engine import clear_link_cache, default_soa_kernels
from repro.sim.events import EventLog
from repro.sim.linkstate import UnitDiskLinkState
from repro.sim.radio import UnitDiskChannel
from repro.sim.soa import SoaRuntime
from repro.topology.deployment import Deployment, uniform_deployment

MAX_ROUNDS = 2500

#: (knob kwargs, human name) for the three execution tiers.
TIERS = (
    ("soa", {"use_soa_kernels": True}),
    ("cohort", {"use_soa_kernels": False, "use_cohort_runtime": True}),
    ("scalar", {"use_soa_kernels": False, "use_cohort_runtime": False}),
)


def _run_tiers(deployment, config, faults=None, max_rounds=MAX_ROUNDS):
    """Run one scenario per tier; returns {tier: (record, rng_tail, info)}."""
    out = {}
    for tier, kwargs in TIERS:
        clear_link_cache()
        sim = build_simulation(deployment, config, faults, **kwargs)
        result = sim.run(max_rounds)
        # The post-run generator draw pins the RNG stream position: if any
        # tier consumed the channel generator differently, the tails differ.
        out[tier] = (result.to_record(), sim.rng.random(), sim.plan_cache_info())
    return out


def _assert_tiers_identical(runs):
    soa_record, soa_tail, _ = runs["soa"]
    for tier in ("cohort", "scalar"):
        record, tail, _ = runs[tier]
        assert record == soa_record, f"soa record differs from {tier}"
        assert tail == soa_tail, f"soa RNG position differs from {tier}"


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
        from repro.core.epidemic import EpidemicNode
        from repro.sim.engine import Simulation

        class OptedOut(EpidemicNode):
            soa_compilable = False

        config = ScenarioConfig(protocol="epidemic", radius=3.0, message_length=2, seed=11)
        runs = {}
        for soa in (True, False):
            clear_link_cache()
            built = build_simulation(
                uniform_small_deployment, config, use_soa_kernels=False, use_cohort_runtime=False
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
        assert runs[True] == runs[False]

    def test_tracing_keeps_the_kernels(self, uniform_small_deployment, nw_config):
        sim = build_simulation(
            uniform_small_deployment, nw_config, trace=EventLog(), use_soa_kernels=True
        )
        info = sim.plan_cache_info()["soa_kernels"]
        assert info["enabled"] and info["slots_compiled"] > 0


class TestThreeTierEquivalence:
    """Records and RNG positions must agree bit-for-bit across all tiers."""

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        protocol=st.sampled_from(["neighborwatch", "multipath", "epidemic"]),
        idle_veto=st.booleans(),
    )
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

    def test_tiling_composes_with_the_kernels(self, uniform_small_deployment, nw_config):
        clear_link_cache()
        sim = build_simulation(
            uniform_small_deployment, nw_config, use_soa_kernels=True, use_spatial_tiling=True
        )
        tiled = (sim.run(MAX_ROUNDS).to_record(), sim.rng.random())
        runs = _run_tiers(uniform_small_deployment, nw_config)
        assert tiled == (runs["soa"][0], runs["soa"][1])


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
        local_of = np.full(positions.shape[0], -1, dtype=np.intp)
        for group in groups:
            member_ids = np.asarray(group, dtype=np.intp)
            indptr, indices = SoaRuntime._group_adjacency(member_ids, sparse, local_of)
            assert (local_of == -1).all()
            want_indptr, want_indices = SoaRuntime._group_adjacency(member_ids, dense, local_of)
            assert indptr.tolist() == want_indptr.tolist()
            assert indices.tolist() == want_indices.tolist()
            assert indptr.dtype == indices.dtype == np.int64
            last = len(group) - 1
            assert indices[indptr[last] : indptr[last + 1]].tolist() == [last]


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


def _mp_cluster_deployment(profile_break: float = 0.0) -> Deployment:
    """A Friis geometry producing one genuine two-member MultiPath cohort.

    The candidate pair shares the unit square ``(10, 5)`` (side ``R/3`` for
    ``R = 3``), one R-ball and one set of 2R owner views, so their region
    profiles are equal; at 0.6 apart (> ``schedule_separation`` 0.5) the
    greedy colouring gives both slot 1.  Node 3 — a preloaded liar, hence a
    sender with pending COMMIT frames — conflicts with nobody and also lands
    in slot 1, co-owning the pair's broadcast interval.  Its distance to the
    two members straddles the Friis carrier-sense range (``1.5 * R = 4.5``):
    4.45 to the near member (busy) and 5.05 to the far one (silent).  The
    pair are blockers in their own slot and listen during phases 0-3, so the
    liar's first data-bit broadcast is the first state-relevant divergence,
    which must split the cohort.  The liar stays outside both R-balls
    (> 3) and inside both 2R owner views (< 6), so the region profiles stay
    equal.  ``profile_break`` shifts the far member right; at 0.5 it crosses
    into the next region square, which must keep the devices singleton even
    though their protocol states are identical.
    """
    positions = np.asarray(
        [
            [1.0, 1.0],  # source, out of sense range of everything
            [10.2, 5.0],  # near pair member
            [10.8 + profile_break, 5.0],  # far pair member
            [5.75, 5.0],  # straddling liar, co-owner of the pair's slot
        ]
    )
    return Deployment(positions=positions, width=16.0, height=10.0, source_index=0)


def _mp_cluster_config() -> ScenarioConfig:
    # separation < pair distance (0.6): the pair may share a slot.  Friis
    # busy depends on exact distances (not the R-ball), which is what lets
    # two profile-equal devices diverge at all — under unit disk an equal
    # R-ball implies identical busy forever.
    return ScenarioConfig(
        protocol="multipath",
        radius=3.0,
        message_length=2,
        multipath_tolerance=0,
        seed=3,
        channel="friis",
        schedule_separation=0.5,
    )


class TestRegionKeyedMultipathCohorts:
    def test_profile_equal_pair_shares_then_splits_at_divergence(self):
        deployment = _mp_cluster_deployment()
        config = _mp_cluster_config()
        # The liar is the divergence driver: a slot-1 co-owner with preloaded
        # COMMIT frames, straddling the pair's carrier-sense range.
        faults = FaultPlan(liars=(3,))

        clear_link_cache()
        oracle = build_simulation(
            deployment, config, faults, use_cohort_runtime=False, use_soa_kernels=False
        )
        oracle_record = oracle.run(400).to_record()

        clear_link_cache()
        sim = build_simulation(
            deployment, config, faults, use_cohort_runtime=True, use_soa_kernels=False
        )
        pair = [n.protocol for n in sim.nodes if n.node_id in (1, 2)]
        assert pair[0].region_profile == pair[1].region_profile
        info = sim.plan_cache_info()["cohort_runtime"]
        assert info["enabled"] and info["shared_members"] == 2

        record = sim.run(400).to_record()
        assert record == oracle_record
        after = sim.plan_cache_info()["cohort_runtime"]
        assert after["divergence_splits"] > 0

    def test_profile_mismatch_stays_singleton(self):
        deployment = _mp_cluster_deployment(profile_break=0.5)
        config = _mp_cluster_config()
        clear_link_cache()
        sim = build_simulation(
            deployment,
            config,
            FaultPlan(liars=(3,)),
            use_cohort_runtime=True,
            use_soa_kernels=False,
        )
        pair = [n.protocol for n in sim.nodes if n.node_id in (1, 2)]
        assert pair[0].region_profile != pair[1].region_profile
        info = sim.plan_cache_info()["cohort_runtime"]
        assert info["shared_members"] == 0

    def test_standard_separation_forbids_multipath_cohorts(
        self, tiny_grid_deployment, mp_config
    ):
        # The paper's 3R separation: same-slot devices are > 3R apart, so no
        # two can share an R-ball and the region key degenerates to
        # singletons — the historical all-singleton behaviour.
        sim = build_simulation(
            tiny_grid_deployment, mp_config, use_cohort_runtime=True, use_soa_kernels=False
        )
        assert sim.plan_cache_info()["cohort_runtime"]["shared_members"] == 0


class TestDescribeTierEligibility:
    """``experiments describe`` must advertise which execution tier runs."""

    def test_unitdisk_spec_reports_soa(self):
        from repro.experiments.driver import describe_spec
        from repro.experiments.registry import get_spec

        text = describe_spec(get_spec("FIG5"), scale="small")
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
