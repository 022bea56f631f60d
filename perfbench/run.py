"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace {0,1}

Workloads (parameters, and why each exists, in ``workloads.py``):
``sweep-small``, ``multipath-lying``, ``epidemic-10k`` and
``nw-capture-2400``.

The command runs samples of the workload one after another for about ``S``
seconds — each in a fresh interpreter (``sample.py``), with BLAS/OpenMP
pinned to one thread and the execution-tier knobs left at their process
defaults — and checks every sample's output hashes against
``reference.json``.  It prints each metric with its unit; its last stdout
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``:

* ``--trace 0`` reports the end-to-end metrics, medians over the samples:
  ``wall_s``, ``setup_s``, ``sim_rounds_per_s`` and ``peak_rss_mb``;
* ``--trace 1`` runs untraced samples, then one traced sample, and reports
  the per-layer metrics computed from its spans (``tracing.py``), with
  ``trace_overhead_frac`` against the untraced median.

Timings are scaled to a nominal machine speed.  On a small shared VM the
core a sample runs on is slowed by other tenants by up to 1.75x, in spells
that last from seconds to minutes, so raw wall clocks of one commit differ
by more than any useful regression bound from one run to the next.  The
samples therefore run on one CPU, and a thread of this process times a
tiny fixed loop on that same CPU every 50 ms while each sample runs
(``SpeedProbe``).  The set-up and the run phase of a sample are each
multiplied by ``PROBE_NOMINAL_S`` over the mean probe time during that
phase: seconds on a core running at the nominal speed.  The raw times are
printed beside them and kept in the result file.

``attempted`` and ``failed`` count simulations.  A sample whose output
hashes do not match, that quarantined a repetition or that crashed counts
all of its simulations as failed.  A failure, a counter that does not
repeat exactly from sample to sample, or (traced) a span the workload must
fire that did not, makes ``correct`` false and the exit code 1.  Result
files (with provenance) and spans go under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from outputs import load_reference, mismatches
from tracing import durations, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: The command must end well within 180 s, whatever ``--seconds`` asks for.
HARD_LIMIT_S = 170.0
#: A run takes at least two untraced samples, so their counters can be compared.
MIN_SAMPLES = 2
#: The traced sample is budgeted as this many untraced samples.
TRACE_COST = 2.0

#: How often the speed probe times its loop while a sample runs.
PROBE_PERIOD_S = 0.05
#: The probe loop's time on an uncontended core of the 2-vCPU Xeon VM the
#: benchmark was written on; timings are reported as if at this speed.
PROBE_NOMINAL_S = 0.0004

THREAD_PINS = dict.fromkeys(
    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"),
    "1",
)
#: Dropped from the samples' environment: every run uses the default tiers.
TIER_KNOBS = (
    "REPRO_SOA_KERNELS",
    "REPRO_SPATIAL_TILING",
    "REPRO_SPATIAL_TILING_AUTO_NODES",
    "REPRO_COHORT_RUNTIME",
)

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("sim_rounds_per_s", "1/s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("topology.deploy_s", "s"),
    ("core.schedule.build_s", "s"),
    ("sim.builder.node_setup_s", "s"),
    ("sim.linkstate.build_s", "s"),
    ("sim.linkstate.nnz", "count"),
    ("sim.linkstate.bytes", "bytes"),
    ("sim.plan.compile_s", "s"),
    ("sim.soa.compile_s", "s"),
    ("sim.soa.member_slots", "count"),
    ("sim.soa.slots_compiled", "count"),
    ("sim.batch.compile_s", "s"),
    ("sim.soa.run_s", "s"),
    ("sim.soa.slots_run", "count"),
    ("sim.soa.scalar_fallbacks", "count"),
    ("sim.soa.busy_cache_hit_ratio", "ratio"),
    ("sim.soa.busy_cache_lookups", "count"),
    ("core.commit_calls", "count"),
    ("sim.batch.run_s", "s"),
    ("sim.batch.share_hits", "count"),
    ("sim.batch.divergence_splits", "count"),
    ("sim.radio.resolve_s", "s"),
    ("sim.radio.rounds_resolved", "count"),
    ("sim.plan.round_memo_hit_ratio", "ratio"),
    ("sim.plan.round_memo_lookups", "count"),
    ("sim.engine.run_self_s", "s"),
    ("sim.engine.runs", "count"),
    ("sim.runner.repetitions", "count"),
    ("sim.runner.repetition_p50_s", "s"),
    ("sim.runner.repetition_p80_s", "s"),
    ("sim.runner.dispatch_self_s", "s"),
    ("experiments.self_s", "s"),
    ("store.put_s", "s"),
    ("store.puts", "count"),
    ("store.bytes_written", "bytes"),
    ("sim.supervision.retries", "count"),
    ("harness.setup_s", "s"),
    ("harness.self_s", "s"),
    ("trace.bookkeeping_s", "s"),
    ("trace.wall_s", "s"),
    ("trace_overhead_frac", "ratio"),
    ("machine.slowdown", "ratio"),
)


def _probe_loop() -> None:
    table: dict[int, int] = {}
    for i in range(3000):
        table[i % 50] = table.get(i % 50, 0) + i


class SpeedProbe:
    """Times ``_probe_loop`` every ``PROBE_PERIOD_S`` from a thread of this process.

    The thread shares its CPU with the sample (both are pinned to it), so
    each probe time reflects how fast that core runs at that moment; their
    mean over a sample tracks the sample's own slow-down closely (correlation
    0.98 over 16 samples on the VM the benchmark was written on).
    """

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []  # (perf_counter at start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            started = time.perf_counter()
            _probe_loop()
            self.probes.append((started, time.perf_counter() - started))

    def mean_between(self, start: float, end: float) -> float:
        """Mean probe time from ``start`` to ``end``, or of the last probe before ``end``.

        ``start``/``end`` are ``perf_counter`` values of any process: on Linux
        it reads the system-wide monotonic clock.
        """
        inside = [seconds for at, seconds in self.probes if start <= at <= end]
        if not inside:  # a phase shorter than the probe period
            inside = [seconds for at, seconds in self.probes if at <= end][-1:]
        return statistics.fmean(inside)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()


def child_env() -> dict:
    env = {key: value for key, value in os.environ.items() if key not in TIER_KNOBS}
    env.update(THREAD_PINS)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_sample(workload: str, seed: int, index: int, timeout: float, probe: SpeedProbe, spans=None) -> dict:
    """Run one sample in a fresh interpreter; its JSON result, or an error."""
    command = [
        sys.executable, str(HERE / "sample.py"),
        "--workload", workload, "--seed", str(seed),
        "--work-dir", str(OUT / "work" / f"{os.getpid()}-{index}"),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "process_s": time.perf_counter() - started}
    elapsed = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        return {"error": f"exited {proc.returncode}: {last}", "process_s": elapsed}
    sample = json.loads(lines[-1])
    sample["process_s"] = elapsed
    start, setup_done, finished = sample["phases_at"]
    sample["probe_setup_s"] = probe.mean_between(start, setup_done)
    sample["probe_run_s"] = probe.mean_between(setup_done, finished)
    return sample


def judge(workload: str, samples: list, expected: dict) -> tuple[list, int, int]:
    """``(problems, attempted, failed)`` over every sample of one run."""
    complete = workload in workloads.SWEEPS
    per_sample = len(expected.get("records", {})) if complete else 1
    problems: list[str] = []
    attempted = failed = 0
    for index, sample in enumerate(samples):
        if "error" in sample:
            bad, simulations = [sample["error"]], per_sample
        else:
            bad = mismatches(expected, sample["outputs"], complete=complete) + sample["failures"]
            simulations = sample["simulations"]
        attempted += simulations
        if bad:
            failed += simulations
            problems += [f"sample {index}: {problem}" for problem in bad]
    counted = [sample["counts"] for sample in samples if "error" not in sample]
    for counts in counted[1:]:
        differing = sorted(
            key for key in counts.keys() | counted[0].keys() if counts.get(key) != counted[0].get(key)
        )
        if differing:
            problems.append(f"counters differ between samples: {', '.join(differing)}")
    return problems, attempted, failed


def end_to_end(samples: list, scaled: bool = True) -> dict[str, list]:
    """Each end-to-end metric's values over the untraced samples that ran.

    With ``scaled`` each phase is timed at the nominal speed (``SpeedProbe``).
    """
    good = [sample for sample in samples if "error" not in sample]
    if not good:
        return {}
    setup, run = [], []
    for s in good:
        setup.append(s["setup_s"] * (PROBE_NOMINAL_S / s["probe_setup_s"] if scaled else 1.0))
        run.append((s["wall_s"] - s["setup_s"]) * (PROBE_NOMINAL_S / s["probe_run_s"] if scaled else 1.0))
    return {
        "wall_s": [a + b for a, b in zip(setup, run)],
        "setup_s": setup,
        "sim_rounds_per_s": [s["rounds"] / b for s, b in zip(good, run)],
        "peak_rss_mb": [s["peak_rss_mb"] for s in good],
    }


def _percentile(values: list, percent: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(workload: str, traced: dict, spans_doc: dict, untraced: list) -> tuple[dict, list]:
    """Per-layer self times and counters of the traced sample, plus missing spans.

    Self times are raw, so that they add up to the traced sample's wall
    clock; ``machine.slowdown`` says how slow the core ran meanwhile.
    """
    spans, counts = spans_doc["spans"], spans_doc["counts"]
    own = self_times(spans)

    def t(name: str) -> float:
        return own.get(name, 0.0)

    def c(key: str) -> float:
        return counts.get(key, 0)

    repetitions = durations(spans, "sim.runner.repetition")
    traced_wall = end_to_end([traced])["wall_s"][0]
    missing = [name for name in workloads.EXPECTED_SPANS[workload] if name not in own]
    busy = (c("sim.soa.busy_cache_hits"), c("sim.soa.busy_cache_misses"))
    memo = (c("sim.plan.round_memo_hits"), c("sim.plan.round_memo_misses"))
    values = {
        "topology.deploy_s": t("topology.deploy"),
        "core.schedule.build_s": t("core.schedule.build"),
        "sim.builder.node_setup_s": t("sim.builder.build_simulation"),
        "sim.linkstate.build_s": t("sim.linkstate.build"),
        "sim.linkstate.nnz": c("sim.linkstate.nnz"),
        "sim.linkstate.bytes": c("sim.linkstate.bytes"),
        "sim.plan.compile_s": t("sim.plan.compile"),
        "sim.soa.compile_s": t("sim.soa.compile"),
        "sim.soa.member_slots": c("sim.soa.member_slots"),
        "sim.soa.slots_compiled": c("sim.soa.slots_compiled"),
        "sim.batch.compile_s": t("sim.batch.compile"),
        "sim.soa.run_s": t("sim.soa.run"),
        "sim.soa.slots_run": c("sim.soa.slots_run"),
        "sim.soa.scalar_fallbacks": c("sim.soa.scalar_fallbacks"),
        "sim.soa.busy_cache_hit_ratio": _ratio(*busy),
        "sim.soa.busy_cache_lookups": sum(busy),
        "core.commit_calls": c("core.commit_calls"),
        "sim.batch.run_s": t("sim.batch.run"),
        "sim.batch.share_hits": c("sim.batch.share_hits"),
        "sim.batch.divergence_splits": c("sim.batch.divergence_splits"),
        "sim.radio.resolve_s": t("sim.radio.resolve"),
        "sim.radio.rounds_resolved": len(durations(spans, "sim.radio.resolve")),
        "sim.plan.round_memo_hit_ratio": _ratio(*memo),
        "sim.plan.round_memo_lookups": sum(memo),
        "sim.engine.run_self_s": t("sim.engine.run"),
        "sim.engine.runs": c("sim.engine.runs"),
        "sim.runner.repetitions": len(repetitions),
        "sim.runner.repetition_p50_s": _percentile(repetitions, 50),
        "sim.runner.repetition_p80_s": _percentile(repetitions, 80),
        "sim.runner.dispatch_self_s": t("sim.runner.dispatch") + t("sim.runner.repetition"),
        "experiments.self_s": t("experiments.run_spec"),
        "store.put_s": t("store.put"),
        "store.puts": traced.get("store_puts", 0),
        "store.bytes_written": traced.get("store_bytes", 0),
        "sim.supervision.retries": traced.get("retries", 0),
        "harness.setup_s": t("harness.setup"),
        "harness.self_s": t("harness.workload"),
        "trace.bookkeeping_s": t("trace.bookkeeping"),
        "trace.wall_s": traced["wall_s"],
        "trace_overhead_frac": traced_wall / statistics.median(end_to_end(untraced)["wall_s"]) - 1.0,
        "machine.slowdown": traced["wall_s"] / traced_wall,
    }
    return values, missing


def _commit() -> str | None:
    """The checked-out commit, or None when the checkout is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    expected = load_reference()["workloads"][args.workload]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    # The samples (children inherit this) and the probe thread share one CPU.
    sample_cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {sample_cpu})
    started = time.perf_counter()
    samples: list[dict] = []
    traced = None
    with SpeedProbe() as probe:
        while True:
            remaining = HARD_LIMIT_S - (time.perf_counter() - started)
            samples.append(run_sample(args.workload, args.seed, len(samples), remaining, probe))
            elapsed = time.perf_counter() - started
            ahead = max(s["process_s"] for s in samples) * (1.0 + (TRACE_COST if args.trace else 0.0))
            if elapsed + ahead > HARD_LIMIT_S:
                break
            if len(samples) >= MIN_SAMPLES and elapsed + ahead > args.seconds:
                break
        if args.trace:
            spans_path = OUT / "spans" / f"{name}.json"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            remaining = HARD_LIMIT_S - (time.perf_counter() - started)
            traced = run_sample(args.workload, args.seed, len(samples), remaining, probe, spans_path)
    shutil.rmtree(OUT / "work", ignore_errors=True)

    problems, attempted, failed = judge(
        args.workload, samples + ([traced] if traced is not None else []), expected
    )
    values = end_to_end(samples)
    e2e = {metric: statistics.median(series) for metric, series in values.items()}
    raw = {metric: statistics.median(series) for metric, series in end_to_end(samples, scaled=False).items()}
    metrics: dict[str, tuple[float, str]] = {}
    if not args.trace:
        metrics = {metric: (e2e[metric], unit) for metric, unit in END_TO_END if metric in e2e}
    elif traced is not None and "error" not in traced and e2e:
        with open(spans_path, "r", encoding="utf8") as handle:
            layers, missing = per_layer(args.workload, traced, json.load(handle), samples)
        units = dict(PER_LAYER)
        metrics = {metric: (value, units[metric]) for metric, value in layers.items()}
        installed = set(traced["installed"])
        problems += [
            f"coverage: span {span} "
            + ("did not fire" if span in installed else "has no entry point to wrap")
            for span in missing
        ]
    correct = not problems and bool(metrics)

    good = [s for s in samples if "error" not in s]
    provenance = dict(good[0]["provenance"]) if good else {}
    provenance.update(commit=_commit(), sample_cpu=sample_cpu, probe_nominal_s=PROBE_NOMINAL_S)
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}: {len(samples)} untraced sample(s)"
        + (", 1 traced" if traced is not None else "")
    )
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for metric, unit in END_TO_END:
        if metric in e2e:
            series = values[metric]
            print(
                f"  {metric:<18} {e2e[metric]:14.4f} {unit:<5} median of {len(series)} "
                f"(min {min(series):.4f}, max {max(series):.4f}; unscaled {raw[metric]:.4f})"
            )
    print(f"  {'failed_frac':<18} {failed / max(attempted, 1):14.4f} ratio ({failed} of {attempted} simulations)")
    if args.trace:
        for metric, (value, unit) in metrics.items():
            print(f"  {metric:<32} {value:16.6f} {unit}")
        if metrics and not any(problem.startswith("coverage:") for problem in problems):
            print(f"coverage: all {args.workload} spans fired")
    for problem in problems:
        print(f"FAILED {problem}")

    results = OUT / "results" / f"{name}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    with open(results, "w", encoding="utf8") as handle:
        json.dump(
            {
                "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "provenance": provenance, "problems": problems,
                "samples": samples, "traced": traced,
                "metrics": {metric: value for metric, (value, _unit) in metrics.items()},
            },
            handle, indent=1, sort_keys=True,
        )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
