"""Sparse link-state tier: threshold, counters and block equivalence.

The sparse tier (`repro.sim.linkstate`) keeps node positions plus, for the
unit disk, a CSR audibility graph instead of the dense matrix; the engine
keeps it above ``SPATIAL_TILING_AUTO_NODES`` nodes.  These tests pin the
threshold, `plan_cache_info()["spatial_tiling"]`, the bit identity of the
blocks read off the CSR against the dense slice (as blocks, and as rounds
resolved on the channel's listener loop, RNG stream position included) and
of whole runs and experiment exports on both forms (the ``link_forms``
fixture lowers the threshold to 0 for the sparse side).  The dense
unit-disk mask is scattered from the same CSR, so audibility itself is
checked against the distance predicate ``observe`` uses.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.messages import Frame, FrameKind
from repro.sim.builder import build_simulation
from repro.sim import engine
from repro.sim.config import ScenarioConfig, dense_link_state_bytes
from repro.sim.engine import (
    SPATIAL_TILING_AUTO_NODES,
    _cached_link_state,
    default_spatial_tiling,
    link_cache_info,
)
from repro.sim.linkstate import SparseLinkState, UnitDiskLinkState, link_block
from repro.sim.radio import FriisChannel, Transmission, UnitDiskChannel
from repro.topology.deployment import uniform_deployment


class TestSpatialTilingDefault:
    def test_auto_threshold(self):
        assert not default_spatial_tiling(SPATIAL_TILING_AUTO_NODES)
        assert default_spatial_tiling(SPATIAL_TILING_AUTO_NODES + 1)

    @pytest.mark.parametrize("extra,sparse", [(0, False), (1, True)], ids=["at-threshold", "above"])
    def test_node_count_picks_the_cached_form(self, extra, sparse):
        # The engine's own threshold, nothing patched: the last node count
        # that keeps the dense matrix and the first that keeps the CSR.
        num_nodes = SPATIAL_TILING_AUTO_NODES + extra
        positions = np.random.default_rng(8).uniform(0, 256, size=(num_nodes, 2))
        state = _cached_link_state(UnitDiskChannel(2.0), positions)
        assert isinstance(state, UnitDiskLinkState) is sparse
        if not sparse:
            assert state.dtype == bool and state.shape == (num_nodes, num_nodes)

    @pytest.mark.parametrize(
        "channel", [UnitDiskChannel(2.0), FriisChannel(reception_range=2.0)], ids=["unitdisk", "friis"]
    )
    def test_form_is_part_of_the_cache_key(self, channel, monkeypatch):
        positions = np.random.default_rng(3).uniform(0, 10, size=(40, 2))
        dense = _cached_link_state(channel, positions)
        assert isinstance(dense, np.ndarray)
        # A threshold lowered at run time must not be answered with the
        # dense entry cached for the same channel and positions.
        monkeypatch.setattr(engine, "SPATIAL_TILING_AUTO_NODES", 0)
        sparse = _cached_link_state(channel, positions)
        assert isinstance(sparse, SparseLinkState)
        assert _cached_link_state(channel, positions) is sparse
        monkeypatch.setattr(engine, "SPATIAL_TILING_AUTO_NODES", SPATIAL_TILING_AUTO_NODES)
        assert _cached_link_state(channel, positions) is dense
        info = link_cache_info()
        assert (info["entries"], info["misses"], info["hits"]) == (2, 2, 2)
        rows, cols = list(range(0, 40, 3)), [5, 17, 33]
        assert np.array_equal(link_block(sparse, rows, cols), dense[np.ix_(rows, cols)])


class TestDenseLinkStateBytes:
    def test_unitdisk_one_byte_per_pair(self):
        assert dense_link_state_bytes(100, "unitdisk") == 100 * 100

    def test_friis_eight_bytes_per_pair(self):
        assert dense_link_state_bytes(100, "friis") == 100 * 100 * 8

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            dense_link_state_bytes(-1, "unitdisk")

    @pytest.mark.parametrize("channel", ["unitdisk", "friis"])
    def test_counts_the_matrix_the_channel_builds(self, channel):
        positions = np.random.default_rng(2).uniform(0, 10, size=(50, 2))
        chan = UnitDiskChannel(2.0) if channel == "unitdisk" else FriisChannel(reception_range=2.0)
        assert chan.link_state(positions).nbytes == dense_link_state_bytes(50, channel)

    def test_largest_kept_dense_state(self):
        # No byte budget guards the dense matrix: the threshold alone bounds
        # it, at 16.8 MB for the unit disk and 134 MB for Friis.
        assert dense_link_state_bytes(SPATIAL_TILING_AUTO_NODES, "unitdisk") <= 16_777_216
        assert dense_link_state_bytes(SPATIAL_TILING_AUTO_NODES, "friis") <= 134_217_728


def _build(deployment, config, **knobs):
    # The SoA tier bypasses per-round link-state resolution entirely; these
    # tests exercise the rounds resolved from sparse blocks, so they pin the
    # cohort/scalar tiers.
    return build_simulation(deployment, config, use_soa_kernels=False, **knobs)


class TestEngineIntegration:
    @pytest.fixture
    def deployment(self):
        return uniform_deployment(150, 12, 12, rng=5)

    @pytest.fixture
    def config(self):
        return ScenarioConfig(protocol="neighborwatch", radius=3.0, message_length=3, seed=11)

    def test_dense_path_reports_disabled(self, deployment, config):
        sim = _build(deployment, config)
        assert sim.plan_cache_info()["spatial_tiling"] == {"enabled": False}

    def test_tiled_path_reports_counters(self, deployment, config, link_forms):
        link_forms.use(True)
        sim = _build(deployment, config)
        info = sim.plan_cache_info()["spatial_tiling"]
        assert set(info) == {"enabled", "sparse_nnz", "index_dtype", "dense_bytes_avoided"}
        assert info["enabled"]
        assert 150 < info["sparse_nnz"] < 150 * 150
        assert info["index_dtype"] == "int32"
        # At 150 nodes the CSR can outweigh the 1-byte dense mask — the
        # counter is honest about that; it only grows at scale (the friis test
        # below and the BENCH_6 macros check the positive case).
        assert info["dense_bytes_avoided"] >= 0
        sim.run(600)
        assert sim.plan_cache_info()["submatrix"]["misses"] > 0

    def test_tiled_run_bit_identical_to_dense(self, deployment, config, link_forms):
        def run(sparse):
            sim = _build(deployment, config)
            assert isinstance(sim._link_state, SparseLinkState) is sparse
            return sim.run(2000).to_record(), sim.rng.random()

        dense, sparse = link_forms.both(run)
        assert sparse == dense

    @pytest.mark.parametrize(
        "channel,loss",
        [("unitdisk", 0.2), ("friis", 0.25)],
    )
    def test_lossy_scalar_rounds_bit_identical_to_dense(self, deployment, channel, loss, link_forms):
        # Lossy rounds draw the channel RNG per decodable listener, in
        # listener order; with the SoA tier off every one of them resolves
        # on a sparse block in the tiled run.
        config = ScenarioConfig(
            protocol="neighborwatch", radius=3.0, message_length=3, seed=11,
            channel=channel, loss_probability=loss,
        )

        def run(sparse):
            sim = _build(deployment, config)
            record = (sim.run(2000).to_record(), sim.rng.random())
            assert sim.plan_cache_info()["submatrix"]["misses"] > 0
            return record

        dense, sparse = link_forms.both(run)
        assert sparse == dense

    def test_cohort_runtime_on_sparse_blocks_matches_per_device_dense(
        self, deployment, config, link_forms
    ):
        def run(sparse):
            sim = _build(deployment, config, use_cohort_runtime=sparse)
            record = sim.run(2000).to_record()
            return record, sim.rng.random(), sim.plan_cache_info()["cohort_runtime"]

        dense, sparse = link_forms.both(run)
        assert sparse[:2] == dense[:2]
        assert dense[2] == {"enabled": False}
        cohorts = sparse[2]
        assert cohorts["enabled"] and cohorts["active"]
        assert "cross_region_cohorts" not in cohorts

    def test_friis_tiled_uses_submatrix_path(self, deployment, link_forms):
        config = ScenarioConfig(
            protocol="neighborwatch", radius=3.0, message_length=3, seed=11, channel="friis"
        )
        link_forms.use(True)
        sim = _build(deployment, config)
        info = sim.plan_cache_info()["spatial_tiling"]
        # Positions only: no CSR, so no link count.
        assert info == {"enabled": True, "dense_bytes_avoided": info["dense_bytes_avoided"]}
        assert info["dense_bytes_avoided"] > 0  # friis dense is 8 bytes/pair


class TestExperimentExports:
    """FIG5 and JAM at small scale export the same bytes on both forms.

    FIG5 runs every slot on the SoA kernels, which compile their groups from
    the link state; JAM's jammer-joined slot occurrences fall back to the
    scalar loop, the only small-scale rounds that read CSR blocks.
    """

    @pytest.mark.parametrize("experiment", ["FIG5", "JAM"])
    def test_exported_rows_identical(self, experiment, link_forms, monkeypatch):
        from repro.experiments import run_spec
        from repro.registry import EXPERIMENT_SPECS
        from repro.sim.linkstate import UnitDiskLinkState

        monkeypatch.delenv("REPRO_SOA_KERNELS", raising=False)
        calls = {"link_state": 0, "link_state_sparse": 0, "submatrix": 0}

        def counted(owner, name):
            method = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(UnitDiskChannel, "link_state")
        counted(UnitDiskChannel, "link_state_sparse")
        counted(UnitDiskLinkState, "submatrix")

        def export(sparse):
            calls.update(dict.fromkeys(calls, 0))
            rows = run_spec(EXPERIMENT_SPECS.get(experiment), scale="small")
            return json.dumps(list(rows), indent=2), dict(calls)

        (dense, dense_calls), (sparse, sparse_calls) = link_forms.both(export)
        assert dense_calls["link_state"] > 0 and dense_calls["link_state_sparse"] == 0
        assert sparse_calls["link_state"] == 0 and sparse_calls["link_state_sparse"] > 0
        if experiment == "JAM":
            assert sparse_calls["submatrix"] > 0
        assert sparse == dense


class TestLinkBlock:
    """`link_block` reads the same exact block out of either form."""

    @pytest.fixture
    def positions(self):
        return np.random.default_rng(21).uniform(0, 10, size=(30, 2))

    @staticmethod
    def _channels():
        return (
            UnitDiskChannel(3.0),
            UnitDiskChannel(3.0, norm="linf"),
            FriisChannel(reception_range=3.0),
        )

    def test_dense_matrix_block_is_the_ix_slice(self, positions):
        rows, cols = [7, 2, 19, 0], [4, 29, 4, 11]
        for chan in self._channels():
            matrix = chan.link_state(positions)
            block = link_block(matrix, rows, cols)
            assert block.dtype == matrix.dtype
            assert np.array_equal(block, matrix[np.ix_(rows, cols)])

    def test_sparse_state_block_equals_dense_block(self, positions):
        rows, cols = [7, 2, 19, 0, 25], [4, 29, 4, 11]
        for chan in self._channels():
            block = link_block(chan.link_state_sparse(positions), rows, cols)
            want = link_block(chan.link_state(positions), rows, cols)
            assert block.dtype == want.dtype
            assert np.array_equal(block, want)

    def test_empty_rows_or_cols(self, positions):
        # A round whose every participant transmits has no listeners.
        for chan in self._channels():
            states = (chan.link_state(positions), chan.link_state_sparse(positions))
            for rows, cols in (([], [1, 2]), ([3, 4, 5], []), ([], [])):
                dense, sparse = (link_block(state, rows, cols) for state in states)
                assert dense.shape == sparse.shape == (len(rows), len(cols))
                assert sparse.dtype == dense.dtype


class TestUnitDiskBlock:
    """The block read off the CSR must equal the distance predicate bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        num_nodes=st.integers(1, 40),
        step=st.sampled_from([0.5, 0.2]),
        norm=st.sampled_from(["l2", "linf"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_equal_distance_predicate(self, data, num_nodes, step, norm, seed):
        # With R = 2, half-integer coordinates put many pairs exactly at R
        # under both norms; on the 0.2 grid, l2 pairs such as (1.2, 1.6)
        # apart land a rounding error above R, inside the 1e-12 tolerance.
        cells = np.random.default_rng(seed).integers(0, int(8 / step) + 1, size=(num_nodes, 2))
        positions = cells * step
        # One device beyond everyone's range.
        isolated = num_nodes
        positions = np.vstack([positions, [[30.0, 30.0]]])
        ids = st.integers(0, num_nodes)
        cols = data.draw(st.lists(ids, max_size=num_nodes + 1))
        rows = data.draw(st.lists(ids, max_size=num_nodes + 1, unique=True))
        # Rows naming a column's own id read the self pairs (the diagonal
        # _group_adjacency reads); the isolated device hears only itself.
        rows += [c for c in dict.fromkeys(cols + [isolated]) if c not in rows]
        rows = data.draw(st.permutations(rows))
        cols.append(isolated)
        chan = UnitDiskChannel(2.0, norm=norm)
        sparse = chan.link_state_sparse(positions)
        assert isinstance(sparse, UnitDiskLinkState)
        # Both forms are read off one CSR, so each is checked against the
        # distance predicate observe() uses rather than against the other.
        predicate = chan._distances(positions, positions) <= 2.0 + 1e-12
        block = sparse.submatrix(rows, cols)
        want = predicate[np.ix_(rows, cols)]
        assert block.dtype == want.dtype and block.shape == want.shape
        assert np.array_equal(block, want)
        assert (sparse._row_of == -1).all()
        assert block[:, -1].tolist() == [r == isolated for r in rows]
        # The whole matrix, so every boundary pair of the draw is compared.
        everyone = list(range(num_nodes + 1))
        assert np.array_equal(sparse.submatrix(everyone, everyone), predicate)
        assert np.array_equal(chan.link_state(positions), predicate)

    @pytest.fixture
    def line(self):
        # Ten devices 1 apart on a line and R = 2.5: each hears the two
        # nearest devices on either side, and itself.
        positions = np.column_stack([np.arange(10.0), np.zeros(10)])
        return UnitDiskChannel(2.5).link_state_sparse(positions)

    def test_block_entries_grouped_by_column_in_ascending_rows(self, line):
        rows = [0, 1, 3, 4, 5, 8, 9]
        cols = [4, 0, 9]
        row, col = line.block_entries(rows, cols)
        # Node 4 is heard by nodes 3, 4, 5; node 0 by 0, 1; node 9 by 8, 9.
        assert col.tolist() == [0, 0, 0, 1, 1, 2, 2]
        assert row.tolist() == [2, 3, 4, 0, 1, 5, 6]
        # The layout _group_adjacency reads: the nonzeros of the transpose.
        want_col, want_row = np.nonzero(line.submatrix(rows, cols).T)
        assert col.tolist() == want_col.tolist()
        assert row.tolist() == want_row.tolist()

    def test_block_entries_ascend_by_node_for_unsorted_rows(self, line):
        rows = [9, 3, 5, 4, 0]
        row, col = line.block_entries(rows, [4, 9])
        # Node 4's hearers 3, 4, 5 sit at rows 1, 3, 2; node 9 hears itself.
        assert col.tolist() == [0, 0, 0, 1]
        assert row.tolist() == [1, 3, 2, 0]

    def test_row_lookup_does_not_leak_between_calls(self, line):
        line.block_entries(list(range(10)), [4])
        # A lookup left filled would count nodes 2..6 as rows of this call.
        row, col = line.block_entries([0], [4])
        assert row.size == col.size == 0
        assert (line._row_of == -1).all()
        assert line.submatrix([2, 6, 7], [4]).tolist() == [[True], [True], [False]]


class TestSparseStateMemory:
    """What `dense_bytes_avoided` reports in `plan_cache_info()`."""

    def test_friis_keeps_positions_only(self):
        positions = np.random.default_rng(4).uniform(0, 50, size=(400, 2))
        state = FriisChannel(reception_range=3.0).link_state_sparse(positions)
        assert state.sparse_bytes == positions.nbytes
        assert state.dense_bytes_avoided == 400 * 400 * 8 - positions.nbytes
        assert state.info() == {"dense_bytes_avoided": state.dense_bytes_avoided}

    def test_unitdisk_counts_the_csr(self):
        positions = np.random.default_rng(5).uniform(0, 60, size=(2000, 2))
        state = UnitDiskChannel(1.5).link_state_sparse(positions)
        assert state.nnz == state.indices.size == int(state.indptr[-1])
        assert state.dense_bytes_avoided == 2000 * 2000 - state.sparse_bytes > 0
        assert state.info() == {
            "sparse_nnz": state.nnz,
            "index_dtype": "int32",
            "dense_bytes_avoided": state.dense_bytes_avoided,
        }

    def test_dense_bytes_avoided_is_never_negative(self):
        # Three devices in range of each other: the CSR and the positions
        # outweigh the 9-byte dense mask.
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        state = UnitDiskChannel(3.0).link_state_sparse(positions)
        assert state.nnz == 9
        assert state.sparse_bytes > 3 * 3
        assert state.dense_bytes_avoided == 0


class TestPlanBlockCache:
    def test_sparse_block_built_once_per_key(self, link_forms):
        deployment = uniform_deployment(60, 8, 8, rng=3)
        config = ScenarioConfig(protocol="neighborwatch", radius=3.0, message_length=2, seed=2)
        link_forms.use(True)
        sim = _build(deployment, config)
        plan, state = sim.plan, sim._link_state
        misses, hits = plan.submatrix_misses, plan.submatrix_hits
        listeners, senders = [0, 1, 2, 5, 40], (3, 7)
        first = plan.submatrix(("occurrence", senders), state, listeners, senders)
        again = plan.submatrix(("occurrence", senders), state, listeners, senders)
        assert again is first
        assert (plan.submatrix_misses, plan.submatrix_hits) == (misses + 1, hits + 1)
        dense = sim.channel.link_state(deployment.positions)
        assert np.array_equal(first, dense[np.ix_(listeners, senders)])


class TestSparseRoundKernel:
    """Rounds resolved from a sparse block must match the dense block's
    (observations and RNG stream position) on the unit-disk listener loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_nodes=st.integers(8, 40),
        num_tx=st.integers(1, 5),
        loss=st.sampled_from([0.0, 0.25, 0.9]),
        capture=st.sampled_from([0.0, 0.5]),
        norm=st.sampled_from(["l2", "linf"]),
    )
    def test_matches_dense_kernel(self, seed, num_nodes, num_tx, loss, capture, norm):
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
        chan = UnitDiskChannel(
            3.0, loss_probability=loss, capture_probability=capture, norm=norm
        )
        dense_block = chan.link_state(positions)[np.ix_(listeners, tx_ids)]
        sparse_block = chan.link_state_sparse(positions).submatrix(listeners, tx_ids)
        rng_dense = np.random.default_rng(seed)
        rng_sparse = np.random.default_rng(seed)
        dense_obs = chan.resolve_links(dense_block, transmissions, rng_dense)
        sparse_obs = chan.resolve_links(sparse_block, transmissions, rng_sparse)
        assert sparse_obs == dense_obs
        assert rng_dense.random() == rng_sparse.random()


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
    def test_describe_mentions_memory_and_form(self):
        from repro.experiments.driver import describe_spec
        from repro.registry import EXPERIMENT_SPECS

        text = describe_spec(EXPERIMENT_SPECS.get("JAM"))
        assert "dense unitdisk link state" in text
        assert f"keeps the dense matrix (sparse above {SPATIAL_TILING_AUTO_NODES} nodes)" in text

    def test_dense_form_at_the_threshold(self):
        from repro.experiments.driver import _memory_lines

        lines = _memory_lines({"num_nodes": SPATIAL_TILING_AUTO_NODES, "channel": "unitdisk"})
        assert lines[0] == (
            f"memory: {SPATIAL_TILING_AUTO_NODES} nodes — dense unitdisk link state would be 16.0 MiB"
        )
        assert "keeps the dense matrix" in lines[1]

    def test_sparse_form_above_the_threshold(self):
        from repro.experiments.driver import _memory_lines

        lines = _memory_lines({"num_nodes": SPATIAL_TILING_AUTO_NODES + 1, "channel": "friis"})
        assert lines[0].startswith(f"memory: {SPATIAL_TILING_AUTO_NODES + 1} nodes — dense friis")
        assert "keeps the sparse link state instead" in lines[1]
