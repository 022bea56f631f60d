"""Tests for the parallel sweep runner and the experiments CLI."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from repro.experiments import run_points
from repro.experiments.__main__ import main as experiments_main
from repro.experiments.factories import (
    FixedDeploymentFactory,
    RandomLiarFactory,
    UniformDeploymentFactory,
)
from repro.sim.config import ScenarioConfig
from repro.sim.runner import SweepExecutor, SweepTask, resolve_workers, run_repetition

REPO_ROOT = Path(__file__).resolve().parent.parent


def small_task(repetitions: int = 3, **config_overrides) -> SweepTask:
    config = ScenarioConfig(
        protocol="neighborwatch", radius=3.0, message_length=2, **config_overrides
    )
    return SweepTask(
        label="small",
        deployment_factory=UniformDeploymentFactory(60, 7.0, 7.0),
        config=config,
        fault_factory=RandomLiarFactory(3),
        repetitions=repetitions,
        base_seed=42,
    )


class TestSweepTask:
    def test_scenario_round_trips_every_config_field(self):
        """Cloning must go through dataclasses.replace: a sentinel value in
        *any* field — including ones added after the runner was written —
        survives into the per-repetition scenario."""
        config = ScenarioConfig(
            protocol="multipath",
            radius=2.5,
            message_length=3,
            message=(1, 0, 1),
            norm="linf",
            capture_probability=0.3125,
            loss_probability=0.0625,
            square_side=1.75,
            multipath_tolerance=2,
            schedule_separation=8.5,
            epidemic_separation=6.5,
            idle_veto=False,
            max_rounds=7777,
            seed=1,
        )
        task = SweepTask(
            label="sentinel",
            deployment_factory=UniformDeploymentFactory(20, 5.0, 5.0),
            config=config,
        )
        clone = task.scenario(seed=99)
        assert clone.seed == 99
        for field_info in fields(ScenarioConfig):
            if field_info.name == "seed":
                continue
            assert getattr(clone, field_info.name) == getattr(config, field_info.name), field_info.name

    def test_repetitions_validated(self):
        with pytest.raises(ValueError):
            small_task(repetitions=0)

    def test_seeds(self):
        assert list(small_task(repetitions=3).seeds()) == [42, 43, 44]

    def test_run_repetition_bounds(self):
        task = small_task(repetitions=2)
        with pytest.raises(ValueError):
            run_repetition(task, 2)
        with pytest.raises(ValueError):
            run_repetition(task, -1)


class TestSweepExecutor:
    def test_resolve_workers(self):
        assert resolve_workers(0) == 0
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_chunk_size_validated(self):
        with pytest.raises(ValueError):
            SweepExecutor(0, chunk_size=0)

    def test_serial_executor_spawns_no_pool(self):
        executor = SweepExecutor(1)
        assert not executor.parallel

    def test_parallel_matches_serial_seed_for_seed(self):
        """The acceptance criterion of the runner: workers=4 reproduces the
        serial sweep exactly — same aggregates and same per-run
        delivery_rounds for every seed."""
        tasks = [small_task(repetitions=2), small_task(repetitions=2, idle_veto=False)]
        serial = SweepExecutor(0).run(tasks)
        with SweepExecutor(4, chunk_size=2) as executor:
            parallel = executor.run(
                [small_task(repetitions=2), small_task(repetitions=2, idle_veto=False)]
            )
        assert len(serial) == len(parallel) == 2
        for serial_runs, parallel_runs in zip(serial, parallel):
            for serial_run, parallel_run in zip(serial_runs, parallel_runs):
                assert serial_run.total_rounds == parallel_run.total_rounds
                assert serial_run.terminated == parallel_run.terminated
                assert serial_run.metadata == parallel_run.metadata
                assert serial_run.outcomes == parallel_run.outcomes  # incl. delivery_round

    def test_run_points_accepts_executor(self):
        task = small_task(repetitions=2)
        [serial_point] = run_points([task])
        with SweepExecutor(2) as executor:
            [parallel_point] = run_points([task], executor=executor)
        assert serial_point.aggregates == parallel_point.aggregates
        assert [r.outcomes for r in serial_point.runs] == [r.outcomes for r in parallel_point.runs]

    def test_pool_reused_across_runs_and_close_idempotent(self):
        task = small_task(repetitions=2)
        with SweepExecutor(2) as executor:
            first = executor.run([small_task(repetitions=2)])
            pool = executor._pool
            second = executor.run([small_task(repetitions=2)])
            assert executor._pool is pool  # the pool survives between runs
        assert executor._pool is None
        executor.close()  # idempotent
        for first_run, second_run in zip(first[0], second[0]):
            assert first_run.outcomes == second_run.outcomes
        serial = SweepExecutor(0).run([task])
        for serial_run, pooled_run in zip(serial[0], first[0]):
            assert serial_run.outcomes == pooled_run.outcomes

    def test_fixed_deployment_factory_ignores_seed(self):
        from repro.topology.deployment import uniform_deployment

        deployment = uniform_deployment(12, 4.0, 4.0, rng=5)
        factory = FixedDeploymentFactory(deployment)
        assert factory(0) is deployment
        assert factory(123) is deployment


class TestExperimentsCli:
    def test_list(self, capsys):
        assert experiments_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "FIG5" in out and "DUAL" in out

    def test_unknown_experiment(self, capsys):
        assert experiments_main(["run", "FIG99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_smoke_small_scale_with_workers(self, capsys):
        """Tier-1 smoke test of the CLI multiprocessing path: the cheapest
        registered experiment, small scale, two workers."""
        assert experiments_main(["run", "DUAL", "--scale", "small", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "DUAL" in out
        assert "overhead_factor" in out

    def test_profile_out_writes_loadable_pstats(self, capsys, tmp_path):
        """--profile-out (implying --profile) must write a pstats file that
        loads, so profiles can be diffed across PRs instead of eyeballed."""
        import pstats

        path = tmp_path / "dual.pstats"
        assert experiments_main(
            ["run", "DUAL", "--scale", "small", "--profile-out", str(path)]
        ) == 0
        captured = capsys.readouterr()
        assert path.exists()
        assert f"profile written to {path}" in captured.err
        # The stderr top-25 table still prints alongside the dump.
        assert "cumulative" in captured.err
        stats = pstats.Stats(str(path))
        assert stats.total_calls > 0

    def test_smoke_subprocess_entry_point(self):
        """`python -m repro.experiments` must work end-to-end as a module."""
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.experiments",
                "run", "DUAL", "--scale", "small", "--workers", "2",
            ],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "overhead_factor" in result.stdout
