"""Shared helpers for the benchmark harness.

Every benchmark regenerates the data behind one table or figure of the paper
(see the experiment table in README.md).  Because a single experiment run is
already an aggregate over several seeded simulations, each benchmark executes
its experiment exactly once (``benchmark.pedantic`` with one round/iteration)
and attaches the resulting rows to ``benchmark.extra_info`` so that the JSON
output of ``pytest benchmarks/ --benchmark-only --benchmark-json=...``
contains the reproduced series alongside the timing.

Worker knobs
------------
The experiment benchmarks run through a :class:`repro.sim.runner.SweepExecutor`
built by the ``bench_executor`` fixture.  Two environment variables control it
(environment variables rather than pytest options, so the knobs work no matter
which directory pytest was invoked from):

* ``REPRO_BENCH_WORKERS`` — worker processes for the sweeps (default ``0``:
  serial, which keeps timings comparable across runs and machines);
* ``REPRO_BENCH_CHUNK_SIZE`` — repetitions per worker dispatch (default ``1``);
* ``REPRO_BENCH_CACHE_DIR`` — when set, route every sweep through a
  :class:`repro.store.ResultStore` rooted there.  A warm cache answers
  repetitions from disk, which turns the benchmark into a measurement of the
  experiment's *non-simulation* overhead; the cache hit/miss split is
  recorded in ``extra_info`` so a timing is never mistaken for a cold run.

Results are bit-identical for every setting; only the wall clock moves.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import format_table
from repro.sim.runner import SweepExecutor


def bench_workers() -> int:
    """Worker-count knob for the benchmark sweeps (0 = serial)."""
    return int(os.environ.get("REPRO_BENCH_WORKERS", "0"))


def bench_chunk_size() -> int:
    """Chunking knob for the benchmark sweeps."""
    return int(os.environ.get("REPRO_BENCH_CHUNK_SIZE", "1"))


def bench_cache_dir() -> str | None:
    """Result-store knob for the benchmark sweeps (unset = no cache)."""
    return os.environ.get("REPRO_BENCH_CACHE_DIR") or None


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)


def attach_rows(benchmark, rows, *, title: str, columns=None) -> str:
    """Record experiment rows in the benchmark metadata and return the table text."""
    rows = list(rows)
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["title"] = title
    text = format_table(rows, columns, title=title)
    print("\n" + text)
    return text


@pytest.fixture
def bench_table():
    """Fixture exposing :func:`attach_rows` with a uniform signature."""
    return attach_rows


@pytest.fixture
def bench_executor(benchmark):
    """The sweep executor the experiment benchmarks run through.

    Serial by default; set ``REPRO_BENCH_WORKERS`` to fan repetitions out over
    processes and ``REPRO_BENCH_CACHE_DIR`` to reuse/persist results through
    the on-disk store.  The configuration — and, when caching, the hit/miss
    split — is recorded in ``benchmark.extra_info`` so the JSON output says
    what the timing was taken under.
    """
    with SweepExecutor(bench_workers(), chunk_size=bench_chunk_size()) as executor:
        benchmark.extra_info["workers"] = executor.workers
        benchmark.extra_info["chunk_size"] = executor.chunk_size
        cache_dir = bench_cache_dir()
        if cache_dir is None:
            yield executor
        else:
            from repro.store import CachingSweepExecutor, ResultStore

            store = ResultStore(cache_dir)
            benchmark.extra_info["cache_dir"] = cache_dir
            yield CachingSweepExecutor(store, executor)
            benchmark.extra_info["cache_stats"] = store.stats.snapshot()
