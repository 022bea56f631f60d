"""Channel resolvers, tier-vs-oracle equivalence, and byte-identity end to end.

Each channel resolves a round one way, a loop over the listeners, and the
cohort protocol runtime (`repro.sim.batch`) executes observation-identical
devices' state machines once per cohort.  The contract
is strict bit-identity: each fast path must produce *identical
observations/records* to its per-device/scalar oracle **and leave the RNG at
exactly the same stream position** (otherwise every later draw of a run
diverges).  These tests pin that contract:

* property tests resolve randomized rounds from positions (``observe``) and
  from blocks of the dense and the sparse link state (``resolve_links``) and
  compare observation lists and the next RNG draw, and rounds whose
  listeners decode three different transmitters must agree the same way and
  leave ``numpy.ma`` unimported;
* end-to-end tests run whole scenarios with every round resolved from
  positions and from either link state, with the cohort runtime toggled,
  and on the dense and the sparse link state, and compare the full result
  records and the channel-RNG position;
* a warm-store regression runs one experiment cold then warm through a
  ``ResultStore`` (the ``REPRO_BENCH_CACHE_DIR`` path of the benchmark
  harness) and asserts the fast path reproduces the cached bytes with zero
  misses.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.messages import Frame, FrameKind
from repro.sim.linkstate import link_block
from repro.sim.radio import FriisChannel, Transmission, UnitDiskChannel, message_observation

# Node layouts are drawn as integer grid offsets scaled down, which produces
# plenty of exact-boundary and coincident-position cases (the interesting
# inputs for mask/argmax equivalence) without floating-point surprises.
positions_strategy = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    min_size=2,
    max_size=12,
)


def _split_roles(positions, data):
    """Choose a non-empty transmitter subset; the rest listen."""
    num = len(positions)
    num_tx = data.draw(st.integers(1, max(1, num // 2)), label="num_tx")
    tx_ids = sorted(data.draw(st.permutations(range(num)), label="tx_ids")[:num_tx])
    listener_ids = [i for i in range(num) if i not in tx_ids]
    if not listener_ids:
        listener_ids = [tx_ids.pop()]
    transmissions = [
        Transmission(i, (float(positions[i][0]) / 2.0, float(positions[i][1]) / 2.0),
                     Frame(FrameKind.DATA_BIT, i, (i % 2,)))
        for i in tx_ids
    ]
    return listener_ids, transmissions


def _resolve_three_ways(channel, positions, listener_ids, transmissions, seed):
    """One round from positions, then from the dense and the sparse link state.

    ``positions`` holds every node; each resolve gets its own generator
    seeded alike.  Returns the three observation lists and each generator's
    next draw.
    """
    senders = [t.sender for t in transmissions]
    rngs = [np.random.default_rng(seed) for _ in range(3)]
    observed = [channel.observe(listener_ids, positions[listener_ids], transmissions, rngs[0])]
    for rng, state in zip(rngs[1:], (channel.link_state(positions), channel.link_state_sparse(positions))):
        block = link_block(state, listener_ids, senders)
        observed.append(channel.resolve_links(block, transmissions, rng))
    return observed, [rng.random() for rng in rngs]


class TestUnitDiskKernelEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), positions=positions_strategy, seed=st.integers(0, 2**32 - 1),
           loss=st.sampled_from([0.0, 0.25, 0.9]), norm=st.sampled_from(["l2", "linf"]))
    def test_loss_configurations_match_link_state(self, data, positions, seed, loss, norm):
        """Deterministic and loss-only rounds: a draw per sole-audible listener."""
        listener_ids, transmissions = _split_roles(positions, data)
        observed, draws = _resolve_three_ways(
            UnitDiskChannel(2.0, norm=norm, loss_probability=loss),
            np.asarray(positions, dtype=float) / 2.0, listener_ids, transmissions, seed,
        )
        assert observed[1] == observed[0] and observed[2] == observed[0]
        # Identical stream position: the next draw must agree.
        assert draws[1] == draws[0] and draws[2] == draws[0]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), positions=positions_strategy, seed=st.integers(0, 2**32 - 1),
           capture=st.sampled_from([0.3, 1.0]), loss=st.sampled_from([0.0, 0.25]))
    def test_capture_configurations_match_link_state(self, data, positions, seed, capture, loss):
        """Captured collisions add a capture draw, a choice and a loss draw, in listener order."""
        listener_ids, transmissions = _split_roles(positions, data)
        observed, draws = _resolve_three_ways(
            UnitDiskChannel(2.0, capture_probability=capture, loss_probability=loss),
            np.asarray(positions, dtype=float) / 2.0, listener_ids, transmissions, seed,
        )
        assert observed[1] == observed[0] and observed[2] == observed[0]
        assert draws[1] == draws[0] and draws[2] == draws[0]

    def test_consumes_rng_classification(self):
        assert not UnitDiskChannel(1.0).consumes_rng()
        assert UnitDiskChannel(1.0, loss_probability=0.1).consumes_rng()
        assert UnitDiskChannel(1.0, capture_probability=0.1).consumes_rng()


class TestFriisKernelEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), positions=positions_strategy, seed=st.integers(0, 2**32 - 1))
    def test_resolve_links_matches_observe(self, data, positions, seed):
        """The precomputed-link-state path stays equivalent too."""
        listener_ids, transmissions = _split_roles(positions, data)
        pos = np.asarray(positions, dtype=float) / 2.0
        chan = FriisChannel(2.0, loss_probability=0.25)
        state = chan.link_state(pos)
        senders = [t.sender for t in transmissions]
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        direct = chan.observe(listener_ids, pos[listener_ids], transmissions, rng_a)
        via_links = chan.resolve_links(state[np.ix_(listener_ids, senders)], transmissions, rng_b)
        assert direct == via_links
        assert rng_a.random() == rng_b.random()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), positions=positions_strategy, seed=st.integers(0, 2**32 - 1),
           loss=st.sampled_from([0.0, 0.25, 0.9]))
    def test_loss_configurations_match_link_state(self, data, positions, seed, loss):
        """The sparse state recomputes each power block from positions, as observe does."""
        listener_ids, transmissions = _split_roles(positions, data)
        observed, draws = _resolve_three_ways(
            FriisChannel(2.0, loss_probability=loss),
            np.asarray(positions, dtype=float) / 2.0, listener_ids, transmissions, seed,
        )
        assert observed[1] == observed[0] and observed[2] == observed[0]
        assert draws[1] == draws[0] and draws[2] == draws[0]

    def test_consumes_rng_classification(self):
        assert not FriisChannel(1.0).consumes_rng()
        assert FriisChannel(1.0, loss_probability=0.1).consumes_rng()


class TestMessageObservationInterning:
    def test_same_frame_same_object(self):
        frame = Frame(FrameKind.DATA_BIT, 3, (1,))
        assert message_observation(frame) is message_observation(Frame(FrameKind.DATA_BIT, 3, (1,)))

    def test_distinct_frames_distinct_observations(self):
        a = message_observation(Frame(FrameKind.DATA_BIT, 3, (1,)))
        b = message_observation(Frame(FrameKind.VETO, 3))
        assert a != b and a.decoded != b.decoded


class TestEndToEndEquivalence:
    """Whole runs resolved from positions and from link-state blocks must not move a bit.

    With the channel's link signature withheld the engine keeps no link
    state and resolves every round through ``observe``, measuring the
    round's distances afresh; otherwise it resolves cached blocks of the
    dense matrix or of the sparse state.  All three runs use the scalar loop.
    """

    @pytest.mark.parametrize("channel,loss", [("unitdisk", 0.0), ("unitdisk", 0.2),
                                              ("friis", 0.0), ("friis", 0.2)])
    def test_full_run_identical(self, tiny_grid_deployment, link_forms, monkeypatch, channel, loss):
        from repro.sim.builder import build_simulation
        from repro.sim.config import ScenarioConfig

        config = ScenarioConfig(
            protocol="neighborwatch", radius=3.0, message_length=3, seed=11,
            channel=channel, loss_probability=loss,
        )
        channel_cls = FriisChannel if channel == "friis" else UnitDiskChannel

        def run(_sparse=None):
            sim = build_simulation(
                tiny_grid_deployment, config, use_soa_kernels=False, use_cohort_runtime=False
            )
            calls = {"observe": 0, "resolve_links": 0}
            for name in calls:
                method = getattr(sim.channel, name)

                def counted(*args, _name=name, _method=method):
                    calls[_name] += 1
                    return _method(*args)

                setattr(sim.channel, name, counted)
            record = sim.run(4000).to_record()
            return (record, sim.rng.random()), sim._link_state is None, calls

        with monkeypatch.context() as patch:
            patch.setattr(channel_cls, "link_signature", lambda self: None)
            from_positions, no_state, calls = run()
        assert no_state and calls["observe"] > 0 and calls["resolve_links"] == 0
        for result, no_state, calls in link_forms.both(run):
            assert not no_state and calls["resolve_links"] > 0 and calls["observe"] == 0
            assert result == from_positions


class TestCohortRuntimeEquivalence:
    """Cohort-vs-scalar protocol execution must not move a bit either.

    Full-record identity across channels, loss/capture settings and fault
    plans, plus an explicit channel-RNG stream-position check (stochastic
    configurations draw per listener, so any divergence in execution order
    would surface here).
    """

    @pytest.mark.parametrize(
        "protocol,channel,loss,capture",
        [
            ("neighborwatch", "unitdisk", 0.0, 0.0),
            ("neighborwatch", "unitdisk", 0.2, 0.5),
            ("neighborwatch", "friis", 0.0, 0.0),
            ("neighborwatch", "friis", 0.25, 0.0),
            ("neighborwatch2", "unitdisk", 0.1, 0.0),
            ("multipath", "unitdisk", 0.0, 0.0),
            ("epidemic", "unitdisk", 0.1, 0.0),
        ],
    )
    def test_full_run_identical_and_rng_position_matches(
        self, tiny_grid_deployment, protocol, channel, loss, capture
    ):
        from repro.sim.builder import build_simulation
        from repro.sim.config import ScenarioConfig
        from repro.sim.engine import clear_link_cache

        kwargs = dict(
            protocol=protocol, radius=3.0, seed=17, channel=channel,
            loss_probability=loss, capture_probability=capture,
        )
        kwargs["message_length"] = 2 if protocol == "multipath" else 3
        if protocol == "multipath":
            kwargs["multipath_tolerance"] = 1
        config = ScenarioConfig(**kwargs)

        results = {}
        for cohort in (False, True):
            clear_link_cache()
            sim = build_simulation(tiny_grid_deployment, config, use_cohort_runtime=cohort)
            record = sim.run(4000).to_record()
            results[cohort] = (record, sim.rng.random())
        assert results[True][0] == results[False][0]
        assert results[True][1] == results[False][1]

    @pytest.mark.parametrize("scenario", ["jammers", "liars", "crashed"])
    def test_fault_plans_identical(self, tiny_grid_deployment, scenario):
        from repro.adversary.placement import random_fault_selection
        from repro.sim.builder import run_scenario
        from repro.sim.config import FaultPlan, ScenarioConfig
        from repro.sim.engine import clear_link_cache

        config = ScenarioConfig(protocol="neighborwatch", radius=3.0, message_length=3, seed=29)
        picks = random_fault_selection(
            tiny_grid_deployment.num_nodes, 4,
            exclude=[tiny_grid_deployment.source_index], rng=31,
        )
        if scenario == "jammers":
            faults = FaultPlan(jammers=tuple(picks), jammer_budget=25, jam_probability=0.3)
        elif scenario == "liars":
            faults = FaultPlan(liars=tuple(picks))
        else:
            faults = FaultPlan(crashed=tuple(picks))

        clear_link_cache()
        scalar = run_scenario(tiny_grid_deployment, config, faults, use_cohort_runtime=False)
        clear_link_cache()
        cohort = run_scenario(tiny_grid_deployment, config, faults, use_cohort_runtime=True)
        assert cohort.to_record() == scalar.to_record()


class TestWarmStoreByteIdentity:
    """The benchmark harness's REPRO_BENCH_CACHE_DIR path: a warm rerun of an
    experiment through the content-addressed store must reproduce the cold
    run's exported rows byte for byte while dispatching zero simulations."""

    def test_epidemic_comparison_warm_rerun_is_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", str(tmp_path))  # documents the knob
        from repro.experiments import run_spec
        from repro.registry import EXPERIMENT_SPECS
        from repro.store import ResultStore

        def export(rows):
            return json.dumps(list(rows), sort_keys=True).encode("utf8")

        spec = EXPERIMENT_SPECS.get("EPID")
        cold_store = ResultStore(tmp_path)
        cold_rows = run_spec(spec, scale="small", store=cold_store)
        assert cold_store.stats.hits == 0 and cold_store.stats.misses > 0

        warm_store = ResultStore(tmp_path)
        warm_rows = run_spec(spec, scale="small", store=warm_store)
        assert warm_store.stats.misses == 0
        assert warm_store.stats.hits == cold_store.stats.misses
        assert export(warm_rows) == export(cold_rows)


class TestSpatialTilingEquivalence:
    """Sparse-vs-dense link state must not move a bit either.

    Full-record identity across protocols, channels and loss/capture
    settings, plus the explicit channel-RNG stream-position check.  The
    ``link_forms`` fixture runs each case on the dense matrix, then with the
    node threshold lowered to 0 on the sparse state.  The 600- and 1200-node
    cases are uniform deployments at the benchmark macros' density.
    """

    @pytest.mark.parametrize(
        "protocol,channel,loss,capture",
        [
            ("neighborwatch", "unitdisk", 0.0, 0.0),
            ("neighborwatch", "unitdisk", 0.2, 0.0),
            ("neighborwatch", "unitdisk", 0.2, 0.5),
            ("neighborwatch", "friis", 0.0, 0.0),
            ("neighborwatch", "friis", 0.25, 0.0),
            ("neighborwatch2", "unitdisk", 0.1, 0.0),
            ("multipath", "unitdisk", 0.0, 0.0),
            ("epidemic", "unitdisk", 0.1, 0.0),
        ],
    )
    def test_full_run_identical_and_rng_position_matches(
        self, uniform_small_deployment, link_forms, protocol, channel, loss, capture
    ):
        from repro.sim.builder import build_simulation
        from repro.sim.config import ScenarioConfig

        kwargs = dict(
            protocol=protocol, radius=3.0, seed=17, channel=channel,
            loss_probability=loss, capture_probability=capture,
        )
        kwargs["message_length"] = 2 if protocol == "multipath" else 3
        if protocol == "multipath":
            kwargs["multipath_tolerance"] = 1
        config = ScenarioConfig(**kwargs)

        def run(sparse):
            sim = build_simulation(uniform_small_deployment, config)
            assert sim.plan_cache_info()["spatial_tiling"]["enabled"] is sparse
            return sim.run(4000).to_record(), sim.rng.random()

        dense, sparse = link_forms.both(run)
        assert sparse == dense

    @pytest.mark.parametrize(
        "protocol,num_nodes",
        [("neighborwatch", 600), ("epidemic", 1200)],
    )
    def test_scale_pins_600_and_1200_nodes(self, link_forms, protocol, num_nodes):
        """Sparse-vs-dense byte identity at 600/1200 nodes.

        Serialized-record equality covers the exported rows and the bytes a
        ResultStore would persist; the RNG draw pins the stream position.
        """
        from repro.experiments.factories import UniformDeploymentFactory
        from repro.sim.builder import build_simulation
        from repro.sim.config import ScenarioConfig

        deployment = UniformDeploymentFactory(num_nodes, 20.0, 20.0)(5)
        config = ScenarioConfig(
            protocol=protocol, radius=4.0, message_length=4, seed=5
        )

        def run(sparse):
            # Pinned to the cohort/scalar tiers: the block-cache misses
            # asserted below only happen when rounds resolve through the
            # link state, which the SoA slot kernels bypass.
            sim = build_simulation(deployment, config, use_soa_kernels=False)
            result = sim.run(20000)
            info = sim.plan_cache_info()["spatial_tiling"]
            assert info["enabled"] is sparse
            if sparse:
                assert info["sparse_nnz"] < num_nodes * num_nodes
                assert sim.plan_cache_info()["submatrix"]["misses"] > 0
            return json.dumps(result.to_record(), sort_keys=True, default=str), sim.rng.random()

        dense, sparse = link_forms.both(run)
        assert sparse == dense

    @pytest.mark.parametrize("loss", [0.0, 0.1])
    def test_bucketed_schedule_with_sparse_soa_compile(self, link_forms, loss):
        """Epidemic at 2,048 nodes, SoA on, sparse vs dense.

        The sparse run compiles its SoA groups from the CSR link state while
        the dense run slices the audibility matrix — the combination the
        10^5-node macros run, at a size tier-1 can afford.
        """
        from repro.experiments.factories import UniformDeploymentFactory
        from repro.sim.builder import build_simulation
        from repro.sim.config import ScenarioConfig

        num_nodes = 2048
        side = (num_nodes / 0.125) ** 0.5
        deployment = UniformDeploymentFactory(num_nodes, side, side)(5)
        config = ScenarioConfig(
            protocol="epidemic", radius=6.0, message_length=4, seed=5,
            loss_probability=loss,
        )

        def run(sparse):
            sim = build_simulation(deployment, config, use_soa_kernels=True)
            info = sim.plan_cache_info()
            assert info["spatial_tiling"]["enabled"] is sparse
            assert info["soa_kernels"]["slots_compiled"] > 0
            record = sim.run(100_000).to_record()
            assert sim.plan_cache_info()["soa_kernels"]["slots_run"] > 0
            return record, sim.rng.random()

        dense, sparse = link_forms.both(run)
        assert sparse == dense


class TestNoMaskedArrayImport:
    """The channel resolvers never import ``numpy.ma``.

    In NumPy 2 the first ``np.unique`` call imports ``numpy.ma``, which no
    resolver needs.  A unit-disk and a Friis round, each with three
    transmitters decoded by separate listeners, run in a fresh interpreter,
    which must leave it unloaded.  In process, the same rounds decode all
    three senders alike from positions and from both link-state forms.
    """

    CODE = (
        "import sys\n"
        "import numpy as np\n"
        "from repro.core.messages import Frame, FrameKind\n"
        "from repro.sim.radio import FriisChannel, Transmission, UnitDiskChannel\n"
        "transmissions = [\n"
        "    Transmission(i, (10.0 * i, 0.0), Frame(FrameKind.DATA_BIT, i, (i % 2,)))\n"
        "    for i in range(3)\n"
        "]\n"
        "xs = [10.0 * i + d for i in range(3) for d in (0.5, -0.7, 1.1)]\n"
        "positions = np.array([[x, 0.0] for x in xs])\n"
        "listeners = list(range(3, 3 + len(xs)))\n"
        "for channel in (UnitDiskChannel(2.0, loss_probability=0.1),\n"
        "                FriisChannel(2.0, loss_probability=0.1)):\n"
        "    rng = np.random.default_rng(5)\n"
        "    observed = channel.observe(listeners, positions, transmissions, rng)\n"
        "    senders = {obs.decoded.sender for obs in observed if obs.decoded is not None}\n"
        "    assert len(senders) >= 2, senders\n"
        "print('numpy.ma' in sys.modules)\n"
    )

    def test_resolves_leave_numpy_ma_unloaded(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        result = subprocess.run(
            [sys.executable, "-c", self.CODE], capture_output=True, text=True, timeout=120, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "False"

    @pytest.mark.parametrize("channel_cls", [UnitDiskChannel, FriisChannel])
    @pytest.mark.parametrize("loss", [0.0, 0.1])
    def test_grouped_decodes_agree_across_link_forms(self, channel_cls, loss):
        transmissions = [
            Transmission(i, (10.0 * i, 0.0), Frame(FrameKind.DATA_BIT, i, (i % 2,)))
            for i in range(3)
        ]
        xs = [10.0 * i for i in range(3)]
        xs += [10.0 * i + d for i in range(3) for d in (0.5, -0.7, 1.1)] + [5.0, 15.0]
        positions = np.array([[x, 0.0] for x in xs])
        listeners = list(range(3, len(xs)))
        observed, draws = _resolve_three_ways(
            channel_cls(2.0, loss_probability=loss), positions, listeners, transmissions, 5
        )
        assert observed[1] == observed[0] and observed[2] == observed[0]
        assert draws[1] == draws[0] and draws[2] == draws[0]
        assert len({obs.decoded.sender for obs in observed[0] if obs.decoded is not None}) == 3
