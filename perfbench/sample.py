"""One benchmark sample, in a fresh interpreter.

``run.py`` starts ``python3 perfbench/sample.py --workload W --seed N
--work-dir DIR [--spans FILE]`` once per sample, so the sample's peak RSS
is its own and the library's module-level caches (the engine's link-state
cache, the SoA counters of ``repro.sim.builder``) start empty.  The sample prints one JSON
object on its last stdout line: timings (with the ``perf_counter`` instants
that bound set-up and run, a clock the parent shares), output hashes, exact
counters read from public snapshots, and provenance.  With ``--spans`` the layer wrappers
of :mod:`tracing` are installed and the spans are written to ``FILE``.
"""

from __future__ import annotations

import time

#: Taken before anything of the library is imported: a sweep's set-up time
#: covers the import, as it does for a user running the sweep.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

import workloads  # noqa: E402
from outputs import series_hash  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402

#: plan_cache_info() sections whose integer counters must repeat exactly
#: from sample to sample.  The spatial-tiling round counters are left out on
#: purpose: they read 0 whenever the SoA tier carries the run.
_INFO_SECTIONS = ("submatrix", "round_memo", "soa_kernels", "cohort_runtime")


def _int_counters(prefix: str, snapshot: dict) -> dict:
    return {
        f"{prefix}.{key}": value
        for key, value in snapshot.items()
        if isinstance(value, int) and not isinstance(value, bool)
    }


def _tiers(num_nodes: Optional[int]) -> dict:
    """The execution-tier knobs as this process resolves them."""
    from repro.sim import engine

    return {
        "REPRO_SOA_KERNELS": engine.default_soa_kernels(),
        "REPRO_COHORT_RUNTIME": engine.default_cohort_runtime(),
        "REPRO_SPATIAL_TILING": (
            engine.default_spatial_tiling(num_nodes)
            if num_nodes is not None
            else os.environ.get("REPRO_SPATIAL_TILING", "auto")
        ),
    }


def _provenance(num_nodes: Optional[int]) -> dict:
    import platform

    import numpy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "tiers": _tiers(num_nodes),
    }


def _store_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


def run_sweep(workload: str, seed: int, work_dir: Path, tracer: Optional[Tracer] = None) -> dict:
    """One pass of a sweep workload into a fresh store under ``work_dir``."""
    if tracer is not None:
        root = tracer.open("harness.workload", start=STARTED)
        setup = tracer.open("harness.setup", start=STARTED)
    from repro.experiments import driver
    from repro.registry import EXPERIMENT_SPECS
    from repro.sim.runner import SweepExecutor
    from repro.sim.supervision import SweepFailure
    from repro.store import ResultStore

    installed = instrument(tracer) if tracer is not None else set()
    parts = [
        (key, EXPERIMENT_SPECS.get(experiment), scale, overrides)
        for key, experiment, scale, overrides in workloads.sweep_parts(workload, seed)
    ]
    store_dir = work_dir / "store"
    store = ResultStore(store_dir)
    rows_hashes: dict[str, str] = {}
    failures: list[str] = []
    with SweepExecutor(0) as executor:
        setup_done = time.perf_counter()
        if tracer is not None:
            tracer.close(setup, setup_done)
        for key, spec, scale, overrides in parts:
            try:
                rows = driver.run_spec(
                    spec, scale=scale, overrides=overrides, executor=executor, store=store
                )
            except SweepFailure as exc:
                failures.append(f"{key}: {exc}")
                continue
            rows_hashes[key] = series_hash(list(rows))
        finished = time.perf_counter()
    if tracer is not None:
        tracer.close(root, finished)

    # Everything below is outside the timed pass.
    counts = _int_counters("store", store.stats.snapshot())
    counts.update(_int_counters("fabric", executor.telemetry.snapshot()))
    from repro.sim import builder, engine

    counts.update(_int_counters("link_cache", engine.link_cache_info()))
    counts.update(_int_counters("soa", builder.soa_telemetry_snapshot()))
    records: dict[str, str] = {}
    rounds = 0
    for fingerprint in sorted(store.fingerprints()):
        result = store.get(fingerprint)
        records[fingerprint] = series_hash(result.to_record())
        rounds += result.total_rounds
    counts["records"] = len(records)
    counts["rounds"] = rounds
    return {
        "wall_s": finished - STARTED,
        "setup_s": setup_done - STARTED,
        "phases_at": [STARTED, setup_done, finished],
        "rounds": rounds,
        "simulations": len(records) + executor.telemetry.quarantined,
        "failures": failures,
        "outputs": {"rows": rows_hashes, "records": records},
        "counts": counts,
        "store_bytes": _store_bytes(store_dir),
        "store_puts": store.stats.writes,
        "retries": executor.telemetry.retries,
        "installed": sorted(installed),
        "provenance": _provenance(None),
    }


def run_single(workload: str, tracer: Optional[Tracer] = None) -> dict:
    """One simulation: deployment + ``build_simulation`` (set-up), then ``run``."""
    from repro.experiments.factories import UniformDeploymentFactory
    from repro.sim import builder
    from repro.sim.config import ScenarioConfig

    installed = instrument(tracer) if tracer is not None else set()
    params = workloads.SINGLE[workload]
    deployment_seed = params["seed"]
    side = workloads.map_side(params)
    factory = UniformDeploymentFactory(params["num_nodes"], side, side)
    config = ScenarioConfig(
        protocol=params["protocol"],
        radius=params["radius"],
        message_length=params["message_length"],
        seed=deployment_seed,
        channel="unitdisk",
        capture_probability=params["capture_probability"],
    )

    started = time.perf_counter()
    if tracer is not None:
        root = tracer.open("harness.workload", start=started)
    deployment = factory(deployment_seed)
    simulation = builder.build_simulation(deployment, config)
    setup_done = time.perf_counter()
    result = simulation.run(params["max_rounds"])
    finished = time.perf_counter()
    if tracer is not None:
        tracer.close(root, finished)

    info = simulation.plan_cache_info()
    counts = {"rounds": result.total_rounds}
    for section in _INFO_SECTIONS:
        counts.update(_int_counters(section, info.get(section, {})))
    failures = []
    honest = [o for o in result.outcomes.values() if o.honest and o.active]
    if not result.terminated or not all(o.delivered and o.correct for o in honest):
        failures.append("not every honest device delivered the source message")
    return {
        "wall_s": finished - started,
        "setup_s": setup_done - started,
        "phases_at": [started, setup_done, finished],
        "rounds": result.total_rounds,
        "simulations": 1,
        "failures": failures,
        "outputs": {"records": {str(deployment_seed): series_hash(result.to_record())}},
        "counts": counts,
        "installed": sorted(installed),
        "provenance": _provenance(params["num_nodes"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark sample.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True, type=Path)
    parser.add_argument("--spans", default=None, type=Path, help="trace, and write spans here")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.spans is not None else None
    args.work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload in workloads.SWEEPS:
            sample = run_sweep(args.workload, args.seed, args.work_dir, tracer)
        else:
            sample = run_single(args.workload, tracer)
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    sample["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()
        tracer.dump(args.spans)
    print(json.dumps(sample, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
