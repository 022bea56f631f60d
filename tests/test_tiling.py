"""Spatially-tiled engine core: knobs, counters and sparse-round equivalence.

PR 6 added the sparse CSR link-state tier with per-region tiling
(`repro.sim.linkstate` / `repro.sim.tiling`) behind the engine's
``use_spatial_tiling`` knob.  These tests pin the control surface (env
defaults, auto threshold, `plan_cache_info()["spatial_tiling"]` counters, the
memory budget guard) and the bit-identity of the CSR round kernel against the
dense kernels it replaces — including the RNG stream position for lossy
configurations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.messages import Frame, FrameKind
from repro.sim.builder import build_simulation
from repro.sim.config import ScenarioConfig, dense_link_state_bytes
from repro.sim.engine import (
    SPATIAL_TILING_AUTO_NODES,
    Simulation,
    clear_link_cache,
    default_spatial_tiling,
)
from repro.sim.linkstate import SparseLinkState, UnitDiskLinkState
from repro.sim.radio import Transmission, UnitDiskChannel
from repro.topology.deployment import uniform_deployment


class TestSpatialTilingDefault:
    def test_env_forces_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPATIAL_TILING", "1")
        assert default_spatial_tiling(2)
        monkeypatch.setenv("REPRO_SPATIAL_TILING", "true")
        assert default_spatial_tiling(2)

    def test_env_forces_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPATIAL_TILING", "0")
        assert not default_spatial_tiling(10**6)
        monkeypatch.setenv("REPRO_SPATIAL_TILING", "off")
        assert not default_spatial_tiling(10**6)

    def test_auto_threshold(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPATIAL_TILING", raising=False)
        assert not default_spatial_tiling(SPATIAL_TILING_AUTO_NODES)
        assert default_spatial_tiling(SPATIAL_TILING_AUTO_NODES + 1)


class TestDenseLinkStateBytes:
    def test_unitdisk_one_byte_per_pair(self):
        assert dense_link_state_bytes(100, "unitdisk") == 100 * 100

    def test_friis_eight_bytes_per_pair(self):
        assert dense_link_state_bytes(100, "friis") == 100 * 100 * 8

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            dense_link_state_bytes(-1, "unitdisk")


def _build(deployment, config, tiled):
    clear_link_cache()
    # The SoA tier bypasses per-round link-state resolution entirely; these
    # tests exercise the tiled round kernels and their counters, so they pin
    # the cohort/scalar tiers.
    return build_simulation(
        deployment, config, use_spatial_tiling=tiled, use_soa_kernels=False
    )


class TestEngineIntegration:
    @pytest.fixture
    def deployment(self):
        return uniform_deployment(150, 12, 12, rng=5)

    @pytest.fixture
    def config(self):
        return ScenarioConfig(protocol="neighborwatch", radius=3.0, message_length=3, seed=11)

    def test_dense_path_reports_disabled(self, deployment, config):
        sim = _build(deployment, config, False)
        assert sim.plan_cache_info()["spatial_tiling"] == {"enabled": False}
        assert sim.tiling is None

    def test_tiled_path_reports_counters(self, deployment, config):
        sim = _build(deployment, config, True)
        info = sim.plan_cache_info()["spatial_tiling"]
        assert info["enabled"]
        assert info["sparse_round_kernel"]
        assert info["tiles"] >= info["occupied_tiles"] > 1
        assert info["sparse_nnz"] < 150 * 150
        assert info["interior_links"] + info["boundary_links"] == info["sparse_nnz"] - 150
        # At 150 nodes the int64 CSR can outweigh the 1-byte dense mask — the
        # counter is honest about that; it only grows at scale (the friis test
        # below and the BENCH_6 macros check the positive case).
        assert info["dense_bytes_avoided"] >= 0
        assert info["rounds_resolved"] == 0
        sim.run(600)
        after = sim.plan_cache_info()["spatial_tiling"]
        assert after["rounds_resolved"] > 0
        assert after["round_interior_hits"] + after["round_boundary_hits"] > 0

    def test_tiled_run_bit_identical_to_dense(self, deployment, config):
        records = {}
        for tiled in (False, True):
            sim = _build(deployment, config, tiled)
            records[tiled] = (sim.run(2000).to_record(), sim.rng.random())
        assert records[True] == records[False]

    def test_cohort_runtime_reports_cross_region_cohorts(self, deployment, config):
        sim = _build(deployment, config, True)
        info = sim.plan_cache_info()["cohort_runtime"]
        if info.get("enabled"):
            assert "cross_region_cohorts" in info
            assert 0 <= info["cross_region_cohorts"] <= info["initial_cohorts"]

    def test_env_default_is_honored(self, deployment, config, monkeypatch):
        monkeypatch.setenv("REPRO_SPATIAL_TILING", "1")
        clear_link_cache()
        sim = build_simulation(deployment, config)
        assert sim.use_spatial_tiling
        assert isinstance(sim._link_state, SparseLinkState)

    def test_friis_tiled_uses_submatrix_path(self, deployment):
        config = ScenarioConfig(
            protocol="neighborwatch", radius=3.0, message_length=3, seed=11, channel="friis"
        )
        sim = _build(deployment, config, True)
        info = sim.plan_cache_info()["spatial_tiling"]
        assert info["enabled"]
        assert not info["sparse_round_kernel"]
        assert info["dense_bytes_avoided"] > 0  # friis dense is 8 bytes/pair


class TestSparseRoundKernel:
    """The CSR round kernel must match the dense vectorized kernel bit for bit
    (observations and RNG stream position) on randomized rounds."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_nodes=st.integers(8, 40),
        num_tx=st.integers(1, 5),
        loss=st.sampled_from([0.0, 0.25, 0.9]),
        norm=st.sampled_from(["l2", "linf"]),
    )
    def test_matches_dense_kernel(self, seed, num_nodes, num_tx, loss, norm):
        layout_rng = np.random.default_rng(seed)
        positions = np.round(layout_rng.uniform(0, 12, size=(num_nodes, 2)) * 2) / 2
        num_tx = min(num_tx, num_nodes - 1)
        tx_ids = sorted(layout_rng.choice(num_nodes, size=num_tx, replace=False).tolist())
        listeners = [i for i in range(num_nodes) if i not in tx_ids]
        transmissions = [
            Transmission(t, (float(positions[t, 0]), float(positions[t, 1])),
                         Frame(FrameKind.DATA_BIT, t, (t % 2,)))
            for t in tx_ids
        ]
        chan = UnitDiskChannel(3.0, loss_probability=loss, norm=norm)
        assert chan.supports_sparse_rounds()
        dense_state = chan.link_state(positions)
        sparse_state = chan.link_state_sparse(positions)
        view = sparse_state.round_view(listeners, tx_ids)
        rng_dense = np.random.default_rng(seed)
        rng_sparse = np.random.default_rng(seed)
        dense_obs = chan.resolve_links(
            dense_state[np.ix_(listeners, tx_ids)], transmissions, rng_dense
        )
        sparse_obs = chan.resolve_links_sparse(view, transmissions, rng_sparse)
        assert sparse_obs == dense_obs
        assert rng_dense.random() == rng_sparse.random()

    def test_round_view_counts_match_dense_mask(self):
        rng = np.random.default_rng(4)
        positions = rng.uniform(0, 20, size=(200, 2))
        chan = UnitDiskChannel(3.0)
        dense = chan.link_state(positions)
        sparse = chan.link_state_sparse(positions)
        assert isinstance(sparse, UnitDiskLinkState)
        senders = [3, 77, 140]
        listeners = [i for i in range(200) if i not in senders]
        view = sparse.round_view(listeners, senders)
        block = dense[np.ix_(listeners, senders)]
        assert np.array_equal(view.counts, block.sum(axis=1))
        singles = view.counts == 1
        assert np.array_equal(view.tx_sum[singles], np.argmax(block, axis=1)[singles])

    def test_round_view_exchange_counters_accumulate(self):
        rng = np.random.default_rng(6)
        positions = rng.uniform(0, 15, size=(100, 2))
        chan = UnitDiskChannel(3.0)
        sparse = chan.link_state_sparse(positions)
        view = sparse.round_view(list(range(1, 100)), [0])
        audible = int(view.counts.sum())
        assert view.interior_hits + view.boundary_hits == audible
        assert sparse.rounds_resolved == 0
        sparse.note_round(view)
        sparse.note_round(view)
        assert sparse.rounds_resolved == 2
        assert sparse.round_interior_hits == 2 * view.interior_hits
        assert sparse.round_boundary_hits == 2 * view.boundary_hits


class TestPlanRoundViewCache:
    def test_round_views_share_the_submatrix_lru(self):
        rng = np.random.default_rng(8)
        positions = rng.uniform(0, 10, size=(30, 2))
        chan = UnitDiskChannel(3.0)
        sparse = chan.link_state_sparse(positions)
        nodes = []
        from repro.sim.node import SimNode

        for i in range(30):
            nodes.append(SimNode(node_id=i, position=tuple(positions[i]), protocol=None, honest=True))
        from repro.core.schedule import Schedule

        class _OneSlot(Schedule):
            def slot_of_node(self, node_id):
                return 0

            def owners_of_slot(self, slot):
                return ()

        plan_sim = Simulation(nodes, _OneSlot(num_slots=1), chan, (1,))
        plan = plan_sim.plan
        key = ("occ", (0,))
        view1 = plan.round_view(key, sparse, [1, 2, 3], [0])
        view2 = plan.round_view(key, sparse, [1, 2, 3], [0])
        assert view1 is view2
        assert plan.submatrix_misses == 1
        assert plan.submatrix_hits == 1
        # The exchange counters accumulate on hits too.
        assert sparse.rounds_resolved == 2


class TestCsrIndexDtype:
    """PR 7 halves the CSR pair to int32 whenever node count and link count
    both fit; the values are identical and the overflow guard keeps int64
    available past 2^31 - 1."""

    def test_small_topologies_use_int32(self):
        rng = np.random.default_rng(3)
        positions = rng.uniform(0, 15, size=(120, 2))
        sparse = UnitDiskChannel(3.0).link_state_sparse(positions)
        assert sparse.indices.dtype == np.int32
        assert sparse.indptr.dtype == np.int32
        assert sparse.info()["index_dtype"] == "int32"
        assert sparse.sparse_bytes == (
            sparse.indices.nbytes + sparse.indptr.nbytes + sparse.positions.nbytes
        )

    def test_downcast_preserves_values(self):
        from repro.topology.grid import GridBuckets

        rng = np.random.default_rng(9)
        positions = rng.uniform(0, 15, size=(150, 2))
        sparse = UnitDiskChannel(3.0).link_state_sparse(positions)
        indptr, indices = GridBuckets(positions, cell_size=3.0).neighbor_arrays(
            3.0 + 1e-12, "l2", include_self=True
        )
        assert np.array_equal(sparse.indptr, indptr)
        assert np.array_equal(sparse.indices, indices)

    def test_overflow_guard_falls_back_to_int64(self):
        from repro.sim.linkstate import _index_dtype

        limit = int(np.iinfo(np.int32).max)
        assert _index_dtype(limit, limit) == np.dtype(np.int32)
        assert _index_dtype(limit + 1, 0) == np.dtype(np.int64)
        assert _index_dtype(10, limit + 1) == np.dtype(np.int64)


class TestDescribeMemoryEstimate:
    def test_describe_mentions_memory_and_tiling(self):
        from repro.experiments.driver import describe_spec
        from repro.registry import EXPERIMENT_SPECS

        text = describe_spec(EXPERIMENT_SPECS.get("JAM"))
        assert "dense unitdisk link state" in text
        assert "spatial tiling" in text.lower()
