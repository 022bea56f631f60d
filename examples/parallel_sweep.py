#!/usr/bin/env python
"""Parallel sweep execution: the same experiment, serial, fanned out and cached.

Runs a small jamming sweep (completion time vs adversarial broadcast budget)
three ways — inline, through a four-worker process pool, and through the
content-addressed result store — verifies that all three produce identical
rows seed-for-seed, and prints the timings.  Because every repetition derives
all of its randomness from ``base_seed + i``, the worker count is purely a
throughput knob and a cached repetition is *the* repetition: the store can
only ever return the same bits the simulator would recompute.

The same fan-out and cache are available from the command line for every
registered experiment:

    python -m repro.experiments list
    python -m repro.experiments run JAM --scale small --workers 4
    python -m repro.experiments run JAM --scale small --cache-dir ~/.cache/repro
    # rerun: reads everything back, simulates nothing
    python -m repro.experiments run JAM --scale small --cache-dir ~/.cache/repro --resume

Run with:  python examples/parallel_sweep.py
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.analysis import format_table
from repro.experiments import SweepExecutor, run_spec
from repro.registry import EXPERIMENT_SPECS
from repro.store import ResultStore


def main() -> None:
    spec = EXPERIMENT_SPECS.get("JAM")
    overrides = {
        "map_size": 10.0,
        "num_nodes": 150,
        "radius": 3.0,
        "message_length": 2,
        "budgets": (0, 4, 8),
        "repetitions": 4,
    }

    started = time.perf_counter()
    serial_rows = run_spec(spec, overrides=overrides)
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    with SweepExecutor(workers=4) as executor:
        parallel_rows = run_spec(spec, overrides=overrides, executor=executor)
    parallel_seconds = time.perf_counter() - started

    assert parallel_rows == serial_rows, "parallel execution must be bit-identical"

    # The result store makes the sweep incremental: the first run persists
    # every repetition, the second answers them all from disk.
    with tempfile.TemporaryDirectory() as cache_dir:
        store = ResultStore(cache_dir)
        cold_rows = run_spec(spec, overrides=overrides, store=store)
        started = time.perf_counter()
        warm_rows = run_spec(spec, overrides=overrides, store=store)
        warm_seconds = time.perf_counter() - started
        assert warm_rows == cold_rows == serial_rows, "cache must be bit-identical"
        cache_line = (
            f"cache: {store.stats.writes} repetitions persisted, warm rerun "
            f"{store.stats.hits} hits / 0 simulations in {warm_seconds:.2f}s"
        )

    print(format_table(
        serial_rows,
        ["budget", "rounds", "completion_%", "correct_%", "adversary_broadcasts"],
        title="JAM sweep (identical for every worker count, cached or not)",
    ))
    print(
        f"\nserial: {serial_seconds:.2f}s   workers=4: {parallel_seconds:.2f}s   "
        f"(machine has {os.cpu_count()} CPU(s))"
    )
    print(cache_line)


if __name__ == "__main__":
    main()
