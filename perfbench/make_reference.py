"""Regenerate ``reference.json``, the output hashes every sample is checked against.

    python3 perfbench/make_reference.py

Runs in this process, in a few minutes:

1. the eight small-scale experiments in full, each into a fresh store.  Their
   rows hashes must equal the suite hashes recorded in ``BENCH_10.json``;
   every repetition's record hash is kept;
2. the full MultiPathRB lying sweep — ``LyingSpec.small_multipath()``'s
   parameters given to ``run_spec(FIG6, overrides=...)`` — whose rows hash
   must equal ``pins.lying_small_multipath_rows`` in ``reference.json``,
   keeping its records too.  That pin is
   ``series_hash(run_lying(LyingSpec.small_multipath()))`` from
   ``repro.experiments.compat``, computed at commit 179f41c; it is never
   taken from a fresh run;
3. each workload's own inputs through the code the benchmark runs
   (``sample.py``).  Every sweep record must be one of the full runs'
   records, and ``sweep-small``'s FIG5 rows must be rows of the full FIG5;
   each single simulation is recorded under its deployment seed.

It refuses to write anything if a pin does not hold.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import sample  # noqa: E402
import workloads  # noqa: E402
from outputs import REFERENCE_PATH, series_hash  # noqa: E402


def _lying_pin() -> str:
    with open(REFERENCE_PATH, "r", encoding="utf8") as handle:
        pin = json.load(handle).get("pins", {}).get("lying_small_multipath_rows")
    if pin is None:
        raise SystemExit(f"error: {REFERENCE_PATH} has no pins.lying_small_multipath_rows")
    return pin


def _bench10_suite() -> dict:
    with open(ROOT / "BENCH_10.json", "r", encoding="utf8") as handle:
        suite = json.load(handle)["runs"]["current"]["suite"]
    return {name: entry["rows_sha256"] for name, entry in suite.items()}


def _full_run(experiment: str, scale, overrides: dict, work_dir: Path) -> tuple[list, dict]:
    """Rows of one full experiment, plus its records' hashes by fingerprint."""
    from repro.experiments import driver
    from repro.registry import EXPERIMENT_SPECS
    from repro.sim.runner import SweepExecutor
    from repro.store import ResultStore

    store = ResultStore(work_dir)
    with SweepExecutor(0) as executor:
        rows = driver.run_spec(
            EXPERIMENT_SPECS.get(experiment), scale=scale, overrides=overrides,
            executor=executor, store=store,
        )
    records = {fp: series_hash(store.get(fp).to_record()) for fp in store.fingerprints()}
    return list(rows), records


def main() -> int:
    pinned = _lying_pin()
    suite_pins = _bench10_suite()
    problems: list[str] = []
    full_records: dict[str, str] = {}
    fig5_rows: list = []
    with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
        work = Path(scratch)
        for experiment in workloads.SUITE:
            rows, records = _full_run(experiment, "small", {}, work / experiment)
            full_records.update(records)
            if experiment == "FIG5":
                fig5_rows = rows
            if series_hash(rows) != suite_pins[experiment]:
                problems.append(f"{experiment} rows do not reproduce BENCH_10's suite hash")
            print(f"full {experiment}: {len(records)} records", file=sys.stderr)

        rows, records = _full_run("FIG6", None, workloads.LYING_MULTIPATH, work / "lying")
        full_records.update(records)
        if series_hash(rows) != pinned:
            problems.append("the full MultiPathRB lying sweep no longer reproduces its rows")
        print(f"full lying sweep: {len(records)} records", file=sys.stderr)

        reference: dict = {}
        for workload in workloads.SWEEPS:
            result = sample.run_sweep(workload, 0, work / workload)
            outputs = result["outputs"]
            for fingerprint, digest in outputs["records"].items():
                if full_records.get(fingerprint) != digest:
                    problems.append(f"{workload}: record {fingerprint[:16]} is not a full-run record")
            reference[workload] = outputs
            print(f"{workload}: {len(outputs['records'])} records", file=sys.stderr)
        fig5_full = {series_hash(row) for row in fig5_rows}
        from repro.experiments import driver
        from repro.registry import EXPERIMENT_SPECS

        fig5_reduced = driver.run_spec(
            EXPERIMENT_SPECS.get("FIG5"), scale="small", overrides=workloads.SUITE_OVERRIDES["FIG5"]
        )
        if not all(series_hash(row) in fig5_full for row in fig5_reduced):
            problems.append("sweep-small's FIG5 rows are not rows of the full FIG5")

    for workload, params in workloads.SINGLE.items():
        result = sample.run_single(workload)
        if result["failures"]:
            problems.append(f"{workload}: {result['failures']}")
        reference[workload] = {"records": result["outputs"]["records"]}
        print(f"{workload}: deployment seed {params['seed']}", file=sys.stderr)

    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    document = {
        "pins": {"bench10_suite_rows": suite_pins, "lying_small_multipath_rows": pinned},
        "workloads": reference,
    }
    with open(REFERENCE_PATH, "w", encoding="utf8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
