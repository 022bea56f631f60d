"""Benchmark RUNNER — the parallel sweep executor.

Times the same multi-repetition sweep twice — serially and through a
``SweepExecutor(workers=4)`` process pool — asserts that the two produce
identical results seed-for-seed (the executor's core guarantee), and records
the wall-clock speedup.  On a machine with at least four CPUs the parallel
run must be at least 2x faster; on smaller machines (including single-core CI
containers, where a process pool cannot beat a serial loop by construction)
the speedup is only recorded, not asserted.
"""

from __future__ import annotations

import os
import time

from conftest import attach_rows, run_once

from repro.experiments import run_spec
from repro.registry import EXPERIMENT_SPECS
from repro.sim.runner import SweepExecutor

#: Speedup the pool must deliver when the hardware can parallelise at all.
REQUIRED_SPEEDUP = 2.0
WORKERS = 4

#: A multi-repetition JAM sweep with enough independent (point, repetition)
#: jobs (3 budgets x 4 repetitions) to keep four workers busy.
SWEEP_OVERRIDES = {
    "map_size": 10.0,
    "num_nodes": 150,
    "radius": 3.0,
    "message_length": 2,
    "budgets": (0, 4, 8),
    "repetitions": 4,
}


def test_parallel_sweep_matches_serial_and_speeds_up(benchmark):
    spec = EXPERIMENT_SPECS.get("JAM")

    started = time.perf_counter()
    serial_rows = run_spec(spec, overrides=SWEEP_OVERRIDES, executor=SweepExecutor(0))
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    with SweepExecutor(WORKERS) as executor:
        parallel_rows = run_once(
            benchmark, run_spec, spec, overrides=SWEEP_OVERRIDES, executor=executor
        )
    parallel_seconds = time.perf_counter() - started

    # Determinism: the pool must reproduce the serial sweep bit for bit —
    # same aggregates, same per-point rows, in the same order.
    assert parallel_rows == serial_rows

    speedup = serial_seconds / parallel_seconds if parallel_seconds > 0 else float("inf")
    attach_rows(benchmark, parallel_rows, title="RUNNER: parallel sweep (workers=4)")
    benchmark.extra_info["serial_seconds"] = serial_seconds
    benchmark.extra_info["parallel_seconds"] = parallel_seconds
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    print(
        f"\nserial {serial_seconds:.2f}s vs workers={WORKERS} {parallel_seconds:.2f}s "
        f"-> speedup {speedup:.2f}x on {os.cpu_count()} CPU(s)"
    )

    if (os.cpu_count() or 1) >= WORKERS:
        assert speedup >= REQUIRED_SPEEDUP, (
            f"expected >= {REQUIRED_SPEEDUP}x speedup with {WORKERS} workers on "
            f"{os.cpu_count()} CPUs, measured {speedup:.2f}x"
        )
