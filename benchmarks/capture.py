"""Capture the repository's performance trajectory into ``BENCH_<pr>.json``.

Every perf-focused PR needs two things the pytest-benchmark harness does not
give us directly: a *persistent* record of how long the experiment suite took
before and after the change, and a content hash of the produced series so a
"speedup" can never silently come from computing different numbers.  This
script provides both:

* the **suite** section runs every registered experiment at ``--suite-scale``
  (default ``small``) through a serial executor, recording wall-clock time and
  a canonical SHA-256 over the exported rows;
* the **macros** section runs a few representative *paper-scale* single
  simulations (the cold hot-path cost PR 3 targets: dense deployments on both
  channel models), recording wall-clock time, total rounds and a canonical
  SHA-256 over the full :meth:`~repro.sim.results.RunResult.to_record`.

Runs are stored under a label (``baseline`` / ``current`` by convention) and
merged into the same JSON file, so one file documents the before/after of a
PR.  When both labels are present the script computes per-entry speedups and
**fails loudly if any series hash moved** — a perf PR must not change a single
exported byte.

Usage::

    PYTHONPATH=src python benchmarks/capture.py --pr 4 --label baseline --runtime scalar
    PYTHONPATH=src python benchmarks/capture.py --pr 4 --label current
    PYTHONPATH=src python benchmarks/capture.py --pr 4 --label current --suite-only
    PYTHONPATH=src python benchmarks/capture.py --pr 7 --label baseline --runtime cohort
    PYTHONPATH=src python benchmarks/capture.py --pr 7 --label current --runtime soa
    PYTHONPATH=src python benchmarks/capture.py --check BENCH_4.json

``--runtime {cohort,scalar,soa}`` pins the protocol execution runtime for the
capture: ``scalar`` is the per-device oracle (``REPRO_COHORT_RUNTIME=0``,
``REPRO_SOA_KERNELS=0``), ``cohort`` the shared-state batched path with the
struct-of-arrays kernels off, and ``soa`` (PR 7) enables the struct-of-arrays
slot kernels on top of the cohort default — the hashes must agree exactly
across all three, which is itself part of the bit-identity contract.

The link-state form follows the node count alone (the sparse CSR tier above
4,096 nodes, the dense matrix up to it), so the suite and the macros below
that size run on the dense matrix and the two 10^5-node macros on the CSR.
Every macro of the ``current`` runs in ``BENCH_6.json`` to ``BENCH_10.json``
ran on the CSR, which a since-deleted ``--tiling`` flag forced; the hashes do
not depend on the form.

``--check`` re-runs the (quick) suite and verifies the stored hashes of the
newest run still reproduce — the CI smoke job uses it so a drifted series can
never hide behind a stale JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

SCHEMA_VERSION = 1

#: Experiments whose small-scale runs form the quick "suite" section.  Kept
#: explicit (not ``EXPERIMENT_SPECS.keys()``) so adding an experiment is a
#: deliberate decision to grow the capture time.
SUITE_EXPERIMENTS = ("FIG5", "JAM", "FIG6", "FIG7", "CLUST", "MAPSZ", "EPID", "DUAL")

#: Representative paper-scale single simulations (the serial cold-repetition
#: cost).  Densities/sizes follow Fig. 7 of the paper (20x20 map, density
#: 1.5-3.0); both channel models are exercised because their hot paths differ
#: (audibility mask vs received-power matrix).
MACROS = (
    {
        "name": "nw-unitdisk-1200",
        "protocol": "neighborwatch",
        "channel": "unitdisk",
        "num_nodes": 1200,
        "map_size": 20.0,
        "radius": 4.0,
        "message_length": 4,
        "seed": 5,
    },
    {
        "name": "nw-friis-600",
        "protocol": "neighborwatch",
        "channel": "friis",
        "num_nodes": 600,
        "map_size": 20.0,
        "radius": 4.0,
        "message_length": 4,
        "seed": 5,
    },
    {
        "name": "epidemic-friis-1200",
        "protocol": "epidemic",
        "channel": "friis",
        "num_nodes": 1200,
        "map_size": 20.0,
        "radius": 4.0,
        "message_length": 4,
        "seed": 5,
    },
    # The 10^5-node scale target of the spatially-tiled engine core: a dense
    # unit-disk audibility matrix at this size would be ~9.3 GiB, and the
    # engine keeps the sparse CSR tier (~10^6 entries) instead.  Density
    # 0.125 with radius 6 keeps the expected neighborhood ~14, comfortably
    # connected for the epidemic flood.
    {
        "name": "epidemic-unitdisk-100k",
        "protocol": "epidemic",
        "channel": "unitdisk",
        "num_nodes": 100_000,
        "map_size": 894.0,
        "radius": 6.0,
        "message_length": 4,
        "seed": 5,
    },
    # The PR 7 scale target: NeighborWatchRB at 10^5 nodes.  Unlike the
    # epidemic flood, the meta-square relay needs occupied squares, so this
    # macro keeps the nw-unitdisk-1200 density (~3 devices per unit area,
    # ~5 per R/3-square; the epidemic macro's 0.125 leaves most squares
    # empty and the relay never completes).  The struct-of-arrays slot
    # kernels carry the 6-phase 2Bit exchanges in packed-bitmask algebra,
    # which is what makes the protocol (not just the flood) tractable at
    # this size — so the macro only runs when the SoA tier is on (a
    # cohort/scalar baseline would take hours).
    {
        "name": "nw-unitdisk-100k",
        "protocol": "neighborwatch",
        "channel": "unitdisk",
        "num_nodes": 100_000,
        "map_size": 183.0,
        "radius": 4.0,
        "message_length": 4,
        "seed": 5,
        "requires_soa": True,
    },
)


def _canonical(value):
    """Reduce a result row/record to canonical JSON-compatible data."""
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, np.generic):
        return _canonical(value.item())
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    raise TypeError(f"cannot canonicalize {type(value).__name__} for hashing")


def series_hash(value) -> str:
    """Stable SHA-256 over a canonical JSON encoding of ``value``."""
    encoded = json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf8")).hexdigest()


def capture_suite(scale: str, cache_dir: Optional[str], log) -> dict:
    """Run every suite experiment serially; timings, hashes and cache stats."""
    from repro.experiments import run_spec
    from repro.registry import EXPERIMENT_SPECS
    from repro.sim.runner import SweepExecutor

    store = None
    if cache_dir is not None:
        from repro.store import ResultStore

        store = ResultStore(cache_dir)

    section: dict = {}
    with SweepExecutor(0) as executor:
        for experiment in SUITE_EXPERIMENTS:
            if store is not None:
                store.stats.reset()
            started = time.perf_counter()
            rows = run_spec(
                EXPERIMENT_SPECS.get(experiment), scale=scale, executor=executor, store=store
            )
            elapsed = time.perf_counter() - started
            entry = {
                "elapsed_s": round(elapsed, 4),
                "rows_sha256": series_hash(list(rows)),
            }
            if store is not None:
                entry["cache"] = store.stats.snapshot()
            section[experiment] = entry
            log(f"  suite {experiment:<6} {elapsed:8.2f}s  {entry['rows_sha256'][:12]}")
    return section


def capture_macros(log) -> dict:
    """Run the representative paper-scale single simulations serially.

    Macros flagged ``requires_soa`` are skipped (with a log line) unless the
    struct-of-arrays kernels are enabled: they are scale targets the SoA
    tier unlocks, not before/after comparisons, and running them on the
    cohort or scalar tier would take hours.
    """
    from repro.experiments.factories import UniformDeploymentFactory
    from repro.sim.builder import build_channel, run_scenario
    from repro.sim.config import ScenarioConfig
    from repro.sim.engine import _cached_link_state, default_soa_kernels
    from repro.sim.linkstate import SparseLinkState

    section: dict = {}
    for macro in MACROS:
        if macro.get("requires_soa") and not default_soa_kernels():
            log(f"  macro {macro['name']:<22} skipped (needs SoA kernels on)")
            continue
        deployment = UniformDeploymentFactory(
            macro["num_nodes"], macro["map_size"], macro["map_size"]
        )(macro["seed"])
        config = ScenarioConfig(
            protocol=macro["protocol"],
            radius=macro["radius"],
            message_length=macro["message_length"],
            seed=macro["seed"],
            channel=macro["channel"],
        )
        info: dict = {}
        started = time.perf_counter()
        result = run_scenario(deployment, config, info_sink=info)
        elapsed = time.perf_counter() - started
        entry = {
            "elapsed_s": round(elapsed, 4),
            "result_sha256": series_hash(result.to_record()),
            "total_rounds": result.total_rounds,
            "num_nodes": macro["num_nodes"],
            "channel": macro["channel"],
            "protocol": macro["protocol"],
            # Which execution tier actually carried the run — SoA slot
            # kernels, cohort batching, or the scalar oracle — with the SoA
            # compile/fallback counters when that tier was active.
            "runtime_tiers": {
                "soa_kernels": info.get("soa_kernels", {"enabled": False}),
                "cohort_runtime": {
                    "enabled": bool(info.get("cohort_runtime", {}).get("enabled"))
                },
            },
        }
        # The engine's module-level link cache still holds the state this run
        # used (same channel signature + positions), so its static summary
        # (CSR size, index dtype, dense bytes avoided) costs one cache
        # lookup, not a second run.
        state = _cached_link_state(build_channel(config), deployment.positions)
        if isinstance(state, SparseLinkState):
            entry["spatial_tiling"] = {"enabled": True, **state.info()}
        else:
            entry["spatial_tiling"] = {"enabled": False}
        section[macro["name"]] = entry
        log(f"  macro {macro['name']:<22} {elapsed:8.2f}s  {entry['result_sha256'][:12]}")
    return section


def capture_service_macro(log) -> dict:
    """Time a queue-backed FIG5 sweep served by two real worker daemons.

    The PR 10 service-fabric macro: the whole sweep travels through the
    durable work queue — submit-side enqueue, worker claim/run/persist into
    the shared store, poll-side readback — so the entry's wall clock tracks
    the queue's dispatch overhead on top of the simulation cost the suite
    section already records.  The rows hash must equal the serial FIG5 suite
    hash (byte-identity is the service's core contract), stored under
    ``result_sha256`` so the baseline/current drift check covers it too.
    """
    import os
    import subprocess
    import tempfile

    from repro.experiments import run_spec
    from repro.registry import EXPERIMENT_SPECS
    from repro.service.backend import QueueBackend
    from repro.service.queue import WorkQueue
    from repro.sim.runner import SweepExecutor

    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir if not existing else os.pathsep.join((src_dir, existing))
    with tempfile.TemporaryDirectory(prefix="bench-service-") as workdir:
        queue_dir = os.path.join(workdir, "queue")
        queue = WorkQueue.ensure(queue_dir)
        workers = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro.service", "worker",
                    "--queue", queue_dir, "--poll", "0.05", "--idle-exit", "5",
                    "--worker-id", f"bench-{index}",
                ],
                env=env,
                stderr=subprocess.DEVNULL,
            )
            for index in range(2)
        ]
        started = time.perf_counter()
        with SweepExecutor(0, backend=QueueBackend(queue, poll_interval=0.05)) as executor:
            rows = run_spec(EXPERIMENT_SPECS.get("FIG5"), scale="small", executor=executor)
        elapsed = time.perf_counter() - started
        for proc in workers:
            proc.wait(timeout=120)
    entry = {
        "elapsed_s": round(elapsed, 4),
        "result_sha256": series_hash(list(rows)),
        "transport": "queue",
        "workers": 2,
        "lease_requeues": executor.telemetry.lease_requeues,
    }
    log(f"  macro {'service-queue-fig5':<22} {elapsed:8.2f}s  {entry['result_sha256'][:12]}")
    return entry


def _load(path: Path) -> dict:
    if path.exists():
        with path.open("r", encoding="utf8") as handle:
            return json.load(handle)
    return {"schema": SCHEMA_VERSION, "pr": None, "runs": {}}


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "captured_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def compute_speedups(document: dict) -> dict:
    """Per-entry baseline/current speedups; raises on series-hash drift."""
    runs = document.get("runs", {})
    if "baseline" not in runs or "current" not in runs:
        return {}
    baseline, current = runs["baseline"], runs["current"]
    speedups: dict = {}
    for section, hash_key in (("suite", "rows_sha256"), ("macros", "result_sha256")):
        base_section = baseline.get(section, {})
        cur_section = current.get(section, {})
        for name in sorted(set(base_section) & set(cur_section)):
            before, after = base_section[name], cur_section[name]
            if before[hash_key] != after[hash_key]:
                raise SystemExit(
                    f"series hash drift in {section}/{name}: "
                    f"{before[hash_key][:16]} (baseline) != {after[hash_key][:16]} (current); "
                    "a perf PR must not change exported results"
                )
            if after["elapsed_s"] > 0:
                speedups[f"{section}/{name}"] = round(
                    before["elapsed_s"] / after["elapsed_s"], 3
                )
    return speedups


def check(path: Path, scale: str, log) -> int:
    """Re-run the suite and verify the newest stored run's hashes reproduce."""
    document = _load(path)
    runs = document.get("runs", {})
    if not runs:
        log(f"error: {path} is missing or has no recorded runs")
        return 1
    if "current" in runs:
        label = "current"
    else:
        # Fall back to the newest capture by timestamp, and say so — a file
        # holding only a pre-change baseline should be conspicuous in CI logs.
        label = max(runs, key=lambda name: runs[name].get("environment", {}).get("captured_at", ""))
        log(f"warning: no 'current' run recorded; checking newest run {label!r}")
    stored = runs[label].get("suite", {})
    if not stored:
        log(f"error: run {label!r} in {path} has no suite section")
        return 1
    fresh = capture_suite(scale, None, log)
    failures = 0
    for name, entry in sorted(stored.items()):
        if name not in fresh:
            continue
        if fresh[name]["rows_sha256"] != entry["rows_sha256"]:
            log(
                f"error: suite/{name} drifted: stored {entry['rows_sha256'][:16]} "
                f"!= fresh {fresh[name]['rows_sha256'][:16]}"
            )
            failures += 1
    if failures:
        return 1
    log(f"ok: {len(stored)} suite series match {path}:{label}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, default=3, help="PR number (names the output file)")
    parser.add_argument(
        "--label",
        default="current",
        help="run label to store under (convention: 'baseline' before a change, "
        "'current' after)",
    )
    parser.add_argument("--output", default=None, help="output path (default BENCH_<pr>.json)")
    parser.add_argument("--suite-scale", default="small", choices=("small", "paper"))
    parser.add_argument("--suite-only", action="store_true", help="skip the paper-scale macros")
    parser.add_argument("--macros-only", action="store_true", help="skip the experiment suite")
    parser.add_argument(
        "--cache-dir", default=None, help="route suite sweeps through a ResultStore"
    )
    parser.add_argument(
        "--runtime",
        choices=("cohort", "scalar", "soa"),
        default=None,
        help="force the protocol execution runtime for this capture (sets "
        "REPRO_COHORT_RUNTIME / REPRO_SOA_KERNELS): 'scalar' records the "
        "per-device oracle baseline, 'cohort' the shared-state batched path "
        "with the struct-of-arrays kernels off, 'soa' the struct-of-arrays "
        "slot kernels (cohort batching still covers ineligible runs); "
        "results are bit-identical, only the wall clock moves "
        "(default: environment)",
    )
    parser.add_argument(
        "--check",
        metavar="JSON",
        default=None,
        help="verify the stored suite hashes of JSON reproduce, then exit",
    )
    args = parser.parse_args(argv)

    import os

    if args.runtime is not None:
        # 'soa' layers on top of the cohort default: eligible runs compile to
        # the struct-of-arrays kernels, everything else (Friis, lossy
        # channels) still batches through cohorts.  'cohort' and 'scalar'
        # pin the kernels off so each tier is measured in isolation.
        os.environ["REPRO_COHORT_RUNTIME"] = "0" if args.runtime == "scalar" else "1"
        os.environ["REPRO_SOA_KERNELS"] = "1" if args.runtime == "soa" else "0"

    def log(message: str) -> None:
        print(message, file=sys.stderr)

    if args.check is not None:
        return check(Path(args.check), args.suite_scale, log)

    path = Path(args.output) if args.output else Path(f"BENCH_{args.pr}.json")
    document = _load(path)
    document["schema"] = SCHEMA_VERSION
    document["pr"] = args.pr

    run: dict = {"environment": _environment(), "suite_scale": args.suite_scale}
    log(f"capturing {args.label!r} -> {path}")
    if not args.macros_only:
        run["suite"] = capture_suite(args.suite_scale, args.cache_dir, log)
    if not args.suite_only:
        run["macros"] = capture_macros(log)
        run["macros"]["service-queue-fig5"] = capture_service_macro(log)
    document.setdefault("runs", {})[args.label] = run

    speedups = compute_speedups(document)
    if speedups:
        document["speedups"] = speedups
        for name, factor in sorted(speedups.items()):
            log(f"  speedup {name:<30} {factor:6.2f}x")

    with path.open("w", encoding="utf8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    log(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
