"""Tests for the result store: records, fingerprints, cache, resumability, CLI."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import run_points
from repro.experiments.__main__ import main as experiments_main
from repro.experiments.base import PointResult
from repro.experiments.factories import RandomLiarFactory, UniformDeploymentFactory
from repro.sim.config import ScenarioConfig
from repro.sim.results import METADATA_FIELDS, NodeOutcome, RunResult, validate_metadata
from repro.sim.runner import SweepExecutor, SweepTask
from repro.store import SCHEMA_VERSION, CachingSweepExecutor, ResultStore


def small_task(repetitions: int = 2, **config_overrides) -> SweepTask:
    config_kwargs = {"protocol": "neighborwatch", "radius": 3.0, "message_length": 2}
    config_kwargs.update(config_overrides)
    config = ScenarioConfig(**config_kwargs)
    return SweepTask(
        label="store-small",
        deployment_factory=UniformDeploymentFactory(50, 6.0, 6.0),
        config=config,
        fault_factory=RandomLiarFactory(2),
        repetitions=repetitions,
        base_seed=11,
    )


# -- hypothesis strategies -------------------------------------------------------------
outcome_strategy = st.builds(
    NodeOutcome,
    node_id=st.integers(min_value=0, max_value=10_000),
    honest=st.booleans(),
    active=st.booleans(),
    delivered=st.booleans(),
    correct=st.one_of(st.none(), st.booleans()),
    delivery_round=st.one_of(st.none(), st.integers(min_value=0, max_value=10**7)),
    broadcasts=st.integers(min_value=0, max_value=10**6),
)


@st.composite
def run_result_strategy(draw):
    outcomes = draw(
        st.lists(outcome_strategy, max_size=12, unique_by=lambda o: o.node_id)
    )
    metadata_keys = draw(
        st.lists(st.sampled_from(sorted(METADATA_FIELDS)), unique=True, max_size=6)
    )
    metadata = {}
    for key in metadata_keys:
        if METADATA_FIELDS[key] is str:
            metadata[key] = draw(st.text(max_size=8))
        elif METADATA_FIELDS[key] is float:
            metadata[key] = draw(
                st.floats(allow_nan=False, allow_infinity=False, width=64)
            )
        else:
            metadata[key] = draw(st.integers(min_value=0, max_value=10**9))
    return RunResult(
        message=tuple(draw(st.lists(st.integers(0, 1), min_size=1, max_size=8))),
        total_rounds=draw(st.integers(min_value=0, max_value=10**8)),
        terminated=draw(st.booleans()),
        outcomes={o.node_id: o for o in outcomes},
        metadata=metadata,
    )


class TestRecords:
    @given(outcome=outcome_strategy)
    @settings(max_examples=50, deadline=None)
    def test_node_outcome_round_trip(self, outcome):
        assert NodeOutcome.from_record(outcome.to_record()) == outcome

    @given(result=run_result_strategy())
    @settings(max_examples=50, deadline=None)
    def test_run_result_round_trip_preserves_every_metric(self, result):
        # Through JSON, as the on-disk store does — not just through dicts.
        clone = RunResult.from_record(json.loads(json.dumps(result.to_record())))
        assert clone == result
        assert clone.summary() == result.summary()
        assert clone.completion_rounds == result.completion_rounds
        assert clone.total_broadcasts == result.total_broadcasts
        assert clone.any_incorrect_delivery == result.any_incorrect_delivery

    def test_aggregate_only_record_is_compact_but_not_reconstructible(self):
        result = SweepExecutor(0).run_task(small_task(repetitions=1))[0]
        compact = result.to_record(aggregate_only=True)
        assert "outcomes" not in compact
        assert compact["summary"] == dict(result.summary())
        with pytest.raises(ValueError, match="aggregate-only"):
            RunResult.from_record(compact)

    def test_version_mismatch_rejected(self):
        record = RunResult(message=(1,), total_rounds=0, terminated=True).to_record()
        record["version"] = 999
        with pytest.raises(ValueError, match="version"):
            RunResult.from_record(record)

    def test_metadata_schema_enforced(self):
        with pytest.raises(ValueError, match="unknown RunResult metadata key"):
            validate_metadata({"surprise": 1})
        with pytest.raises(ValueError, match="must be"):
            validate_metadata({"protocol": 7})
        with pytest.raises(ValueError, match="must be"):
            validate_metadata({"num_nodes": True})  # bools are not node counts
        # Ints are accepted for float fields (JSON does not distinguish).
        assert validate_metadata({"radius": 4}) == {"radius": 4.0}
        # Non-strict keeps unknown keys (forward compatibility on read).
        assert validate_metadata({"surprise": 1}, strict=False) == {"surprise": 1}

    def test_run_scenario_metadata_matches_declared_schema(self):
        result = SweepExecutor(0).run_task(small_task(repetitions=1))[0]
        assert set(result.metadata) == set(METADATA_FIELDS)


class TestFingerprint:
    def test_stable_and_distinct_across_repetitions(self):
        task = small_task(repetitions=3)
        fingerprints = [task.fingerprint(i) for i in range(3)]
        assert fingerprints == [task.fingerprint(i) for i in range(3)]
        assert len(set(fingerprints)) == 3
        assert all(len(fp) == 64 for fp in fingerprints)

    def test_sensitive_to_what_determines_the_run(self):
        base = small_task()
        assert small_task(radius=3.5).fingerprint(0) != base.fingerprint(0)
        assert small_task(idle_veto=False).fingerprint(0) != base.fingerprint(0)
        bigger_map = SweepTask(
            label=base.label,
            deployment_factory=UniformDeploymentFactory(50, 7.0, 7.0),
            config=base.config,
            fault_factory=base.fault_factory,
            repetitions=base.repetitions,
            base_seed=base.base_seed,
        )
        assert bigger_map.fingerprint(0) != base.fingerprint(0)

    def test_insensitive_to_presentation(self):
        base = small_task()
        relabelled = SweepTask(
            label="a totally different label",
            deployment_factory=base.deployment_factory,
            config=base.config,
            fault_factory=base.fault_factory,
            repetitions=base.repetitions + 3,  # growing a sweep reuses old runs
            base_seed=base.base_seed,
            extra={"column": 123},
        )
        assert relabelled.fingerprint(0) == base.fingerprint(0)

    def test_unpicklable_factory_rejected(self):
        task = SweepTask(
            label="closure",
            deployment_factory=lambda seed: None,
            config=ScenarioConfig(protocol="neighborwatch", radius=3.0, message_length=2),
        )
        with pytest.raises(TypeError, match="fingerprint"):
            task.fingerprint(0)

    def test_out_of_range_repetition(self):
        with pytest.raises(ValueError):
            small_task(repetitions=2).fingerprint(2)


class TestResultStore:
    def test_put_get_round_trip_across_instances(self, tmp_path):
        task = small_task(repetitions=1)
        result = SweepExecutor(0).run_task(task)[0]
        fingerprint = task.fingerprint(0)

        store = ResultStore(tmp_path / "cache")
        assert store.get(fingerprint) is None
        store.put(fingerprint, result)
        assert store.contains(fingerprint)
        assert store.get(fingerprint) == result
        # A brand-new instance reads the same bytes back from disk.
        reopened = ResultStore(tmp_path / "cache")
        assert reopened.get(fingerprint) == result
        assert len(reopened) == 1
        assert list(reopened.fingerprints()) == [fingerprint]

    def test_stats_track_hits_misses_writes(self, tmp_path):
        task = small_task(repetitions=1)
        result = SweepExecutor(0).run_task(task)[0]
        store = ResultStore(tmp_path)
        store.get(task.fingerprint(0))
        store.put(task.fingerprint(0), result)
        store.get(task.fingerprint(0))
        assert store.stats.snapshot() == {
            "hits": 1,
            "misses": 1,
            "writes": 1,
            "torn_lines": 0,
            "checksum_failures": 0,
        }

    def test_schema_version_mismatch_refused(self, tmp_path):
        (tmp_path / "store-meta.json").write_text(json.dumps({"schema_version": 0}))
        with pytest.raises(ValueError, match="schema version"):
            ResultStore(tmp_path)

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        task = small_task(repetitions=1)
        result = SweepExecutor(0).run_task(task)[0]
        fingerprint = task.fingerprint(0)
        store = ResultStore(tmp_path)
        store.put(fingerprint, result)
        shard_path = next((tmp_path / "shards").glob("*.jsonl"))
        with open(shard_path, "a", encoding="utf8") as handle:
            handle.write('{"v": 1, "fp": "dead', )  # simulated crash mid-append
        reopened = ResultStore(tmp_path)
        assert reopened.get(fingerprint) == result
        assert len(reopened) == 1

    def test_prune_evicts_oldest_first(self, tmp_path):
        task = small_task(repetitions=3)
        runs = SweepExecutor(0).run_task(task)
        store = ResultStore(tmp_path)
        for repetition, result in enumerate(runs):
            store.put(task.fingerprint(repetition), result)
        # Touch repetition 0 so it is the most recently used.
        store.get(task.fingerprint(0))
        assert store.prune(2) == 1
        assert store.contains(task.fingerprint(0))
        assert not store.contains(task.fingerprint(1))  # oldest untouched entry
        assert store.contains(task.fingerprint(2))
        # The pruned state is what a fresh instance sees, too.
        assert len(ResultStore(tmp_path)) == 2
        assert store.prune(2) == 0  # already small enough

    def test_clear(self, tmp_path):
        task = small_task(repetitions=1)
        store = ResultStore(tmp_path)
        store.put(task.fingerprint(0), SweepExecutor(0).run_task(task)[0])
        store.clear()
        assert len(store) == 0
        assert ResultStore(tmp_path).get(task.fingerprint(0)) is None

    def test_readonly_refuses_writes(self, tmp_path):
        task = small_task(repetitions=1)
        result = SweepExecutor(0).run_task(task)[0]
        ResultStore(tmp_path).put(task.fingerprint(0), result)
        readonly = ResultStore(tmp_path, readonly=True)
        assert readonly.get(task.fingerprint(0)) == result
        with pytest.raises(PermissionError):
            readonly.put(task.fingerprint(0), result)
        with pytest.raises(PermissionError):
            readonly.prune(0)


class TestCachingSweepExecutor:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_warm_cache_byte_identical_for_every_worker_count(self, tmp_path, workers):
        """The tentpole acceptance criterion: a warm cache reproduces the
        plain executor's results exactly, and dispatches zero simulations."""
        tasks = [small_task(repetitions=2), small_task(repetitions=2, idle_veto=False)]
        plain = SweepExecutor(0).run(tasks)

        store = ResultStore(tmp_path)
        with SweepExecutor(workers) as inner:
            caching = CachingSweepExecutor(store, inner)
            cold = caching.run(tasks)
            assert store.stats.misses == 4 and store.stats.writes == 4

            warm_store = ResultStore(tmp_path)
            warm = CachingSweepExecutor(warm_store, inner).run(tasks)
            assert warm_store.stats.hits == 4
            assert warm_store.stats.misses == 0  # zero simulations dispatched

        for plain_runs, cold_runs, warm_runs in zip(plain, cold, warm):
            for plain_run, cold_run, warm_run in zip(plain_runs, cold_runs, warm_runs):
                assert plain_run == cold_run == warm_run
                assert (
                    json.dumps(plain_run.to_record(), sort_keys=True)
                    == json.dumps(warm_run.to_record(), sort_keys=True)
                )

    def test_interrupted_sweep_resumes_from_persisted_repetitions(self, tmp_path):
        """Persisting completions as they land means a partial cache — as an
        interrupt leaves behind — is picked up, not recomputed."""
        task = small_task(repetitions=3)
        # Simulate an interrupted sweep: only repetition 0 made it to disk.
        interrupted = ResultStore(tmp_path)
        interrupted.put(task.fingerprint(0), SweepExecutor(0).run([small_task(repetitions=1)])[0][0])

        store = ResultStore(tmp_path)
        resumed = CachingSweepExecutor(store).run([task])
        assert store.stats.hits == 1  # repetition 0 came from disk
        assert store.stats.misses == 2  # only 1 and 2 were simulated
        assert resumed[0] == SweepExecutor(0).run([task])[0]

    def test_run_points_accepts_store(self, tmp_path):
        tasks = [small_task(repetitions=2)]
        uncached = run_points(tasks)
        store = ResultStore(tmp_path)
        cold = run_points(tasks, store=store)
        warm = run_points(tasks, store=store)
        assert store.stats.misses == 2 and store.stats.hits == 2
        for a, b, c in zip(uncached, cold, warm):
            assert a.aggregates == b.aggregates == c.aggregates
            assert a.runs == b.runs == c.runs

    def test_delegates_executor_surface(self, tmp_path):
        with SweepExecutor(2, chunk_size=3) as inner:
            caching = CachingSweepExecutor(ResultStore(tmp_path), inner)
            assert caching.workers == 2
            assert caching.chunk_size == 3
            assert caching.parallel
            caching.close()  # borrowed executor: close must be a no-op
            inner.run([small_task(repetitions=1)])  # still usable afterwards


class TestPointResultRecords:
    def test_round_trip_through_json(self):
        point = run_points([small_task(repetitions=2)])[0]
        clone = PointResult.from_record(json.loads(json.dumps(point.to_record())))
        assert clone.label == point.label
        assert clone.repetitions == point.repetitions
        assert dict(clone.aggregates) == dict(point.aggregates)
        assert clone.runs == point.runs
        assert clone.row() == point.row()

    def test_aggregate_only_smaller_and_version_checked(self):
        point = run_points([small_task(repetitions=2)])[0]
        full = json.dumps(point.to_record())
        compact = json.dumps(point.to_record(aggregate_only=True))
        assert len(compact) < len(full)
        bad = point.to_record()
        bad["version"] = 999
        with pytest.raises(ValueError, match="version"):
            PointResult.from_record(bad)


class TestCliCache:
    def run_cli(self, capsys, *argv) -> tuple[int, str, str]:
        code = experiments_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_warm_rerun_byte_identical_and_dispatches_nothing(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        code, cold_out, _ = self.run_cli(
            capsys, "run", "DUAL", "--scale", "small", "--cache-dir", cache, "--export", "json"
        )
        assert code == 0
        code, warm_out, warm_err = self.run_cli(
            capsys,
            "run",
            "DUAL",
            "--scale",
            "small",
            "--cache-dir",
            cache,
            "--resume",
            "--export",
            "json",
        )
        assert code == 0
        assert warm_out == cold_out  # byte-identical rows
        assert "cache-misses=0" in warm_err  # zero simulations dispatched
        json.loads(warm_out)  # and it is valid JSON

    def test_export_csv(self, tmp_path, capsys):
        code, out, err = self.run_cli(
            capsys, "run", "DUAL", "--scale", "small", "--export", "csv"
        )
        assert code == 0
        assert "overhead_factor" in out.splitlines()[0]  # CSV header on stdout
        assert "DUAL" in err  # status lines on stderr

    def test_no_cache_skips_the_store(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        code, out, err = self.run_cli(
            capsys, "run", "DUAL", "--scale", "small", "--cache-dir", cache, "--no-cache"
        )
        assert code == 0
        assert "cache-hits" not in out + err
        assert not (tmp_path / "cache").exists()

    def test_resume_requires_existing_cache_dir(self, tmp_path, capsys):
        code, _, err = self.run_cli(
            capsys,
            "run",
            "DUAL",
            "--scale",
            "small",
            "--cache-dir",
            str(tmp_path / "never-created"),
            "--resume",
        )
        assert code == 2
        assert "nothing to resume" in err

    def test_resume_without_cache_dir_is_an_error(self, capsys):
        code, _, err = self.run_cli(capsys, "run", "DUAL", "--scale", "small", "--resume")
        assert code == 2
        assert "--resume requires --cache-dir" in err


def test_schema_version_is_two_and_v1_still_supported():
    """Bumping SCHEMA_VERSION must be deliberate — and must not orphan old caches:
    version 1 (pre-checksum) stays in the supported set so existing shards replay."""
    from repro.store import SUPPORTED_SCHEMA_VERSIONS

    assert SCHEMA_VERSION == 2
    assert SUPPORTED_SCHEMA_VERSIONS == (1, 2)
