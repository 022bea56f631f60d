"""Tests of the benchmark's own machinery: the hash gate, spans, workload inputs.

None of them runs a simulation; they check the parts of ``run.py`` that
decide whether a sample counts.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
import workloads
from outputs import load_reference
from tracing import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = load_reference()


def _honest_sample(workload: str) -> dict:
    """A sample reporting exactly the pinned outputs of its workload."""
    expected = REFERENCE["workloads"][workload]
    outputs = {kind: dict(hashes) for kind, hashes in expected.items()}
    return {
        "outputs": outputs,
        "failures": [],
        "simulations": len(outputs["records"]),
        "counts": {"rounds": 7, "soa_kernels.slots_run": 3},
    }


def _forge(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def test_reference_covers_every_workload():
    assert set(REFERENCE["workloads"]) == set(workloads.WORKLOADS)
    for workload, params in workloads.SINGLE.items():
        assert set(REFERENCE["workloads"][workload]["records"]) == {str(params["seed"])}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pinned_outputs_pass(workload):
    samples = [_honest_sample(workload), _honest_sample(workload)]
    problems, attempted, failed = run.judge(workload, samples, REFERENCE["workloads"][workload])
    assert problems == []
    assert attempted == 2 * samples[0]["simulations"] and failed == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_forged_hash_is_rejected(workload):
    forged = _honest_sample(workload)
    key = sorted(forged["outputs"]["records"])[-1]
    forged["outputs"]["records"][key] = _forge(forged["outputs"]["records"][key])
    samples = [_honest_sample(workload), forged]
    problems, attempted, failed = run.judge(workload, samples, REFERENCE["workloads"][workload])
    assert any(key in problem for problem in problems)
    # The forged sample's simulations all count as failed; the honest one's do not.
    assert failed == forged["simulations"]
    assert attempted == 2 * forged["simulations"]


def test_forged_rows_and_missing_records_are_rejected():
    expected = REFERENCE["workloads"]["sweep-small"]
    sample = _honest_sample("sweep-small")
    sample["outputs"]["rows"]["FIG5"] = _forge(sample["outputs"]["rows"]["FIG5"])
    dropped = sorted(sample["outputs"]["records"])[0]
    del sample["outputs"]["records"][dropped]
    problems, _attempted, failed = run.judge("sweep-small", [sample], expected)
    assert any("rows[FIG5]" in problem for problem in problems)
    assert any(dropped in problem and "missing" in problem for problem in problems)
    assert failed == sample["simulations"]


def test_unpinned_input_and_crashed_sample_fail():
    sample = _honest_sample("epidemic-10k")
    sample["outputs"]["records"] = {"999": "ab" * 32}
    crashed = {"error": "exited 1: boom", "process_s": 0.1}
    problems, attempted, failed = run.judge(
        "epidemic-10k", [sample, crashed], REFERENCE["workloads"]["epidemic-10k"]
    )
    assert any("no reference hash" in problem for problem in problems)
    assert any("boom" in problem for problem in problems)
    assert (attempted, failed) == (2, 2)


def test_counters_must_repeat_exactly():
    first, second = _honest_sample("nw-capture-2400"), _honest_sample("nw-capture-2400")
    second["counts"]["soa_kernels.slots_run"] += 1
    problems, _attempted, failed = run.judge(
        "nw-capture-2400", [first, second], REFERENCE["workloads"]["nw-capture-2400"]
    )
    assert problems == ["counters differ between samples: soa_kernels.slots_run"]
    assert failed == 0


def test_sweep_small_pins_bench10_suite_hashes():
    pins = REFERENCE["pins"]["bench10_suite_rows"]
    rows = REFERENCE["workloads"]["sweep-small"]["rows"]
    for experiment in workloads.SUITE:
        if experiment not in workloads.SUITE_OVERRIDES:
            assert rows[experiment] == pins[experiment]
    suite = json.loads((ROOT / "BENCH_10.json").read_text(encoding="utf8"))["runs"]["current"]["suite"]
    assert pins == {name: entry["rows_sha256"] for name, entry in suite.items()}


def test_self_times_subtract_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["layer", 1.0, 4.0, 0],
        ["inner", 2.0, 3.0, 1],
        ["layer", 5.0, 6.0, 0],
    ]
    own = self_times(spans)
    assert own == {"root": 6.0, "layer": 3.0, "inner": 1.0}
    assert sum(own.values()) == 10.0


def _timed(wall: float, slowdown: float, run_slowdown=None) -> dict:
    return {"wall_s": wall, "setup_s": wall / 4, "rounds": 30, "peak_rss_mb": 9.0,
            "probe_setup_s": run.PROBE_NOMINAL_S * slowdown,
            "probe_run_s": run.PROBE_NOMINAL_S * (run_slowdown or slowdown)}


def test_each_phase_is_scaled_to_the_nominal_speed():
    values = run.end_to_end([_timed(4.0, 2.0, 1.5), {"error": "boom"}])
    assert values == {"wall_s": [2.5], "setup_s": [0.5], "sim_rounds_per_s": [15.0], "peak_rss_mb": [9.0]}
    assert run.end_to_end([_timed(4.0, 2.0)], scaled=False)["wall_s"] == [4.0]


def test_probe_means_follow_the_phase():
    probe = run.SpeedProbe()
    probe.probes = [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]
    assert probe.mean_between(0.5, 2.5) == 4.0
    assert probe.mean_between(1.2, 1.4) == 3.0  # no probe inside: the last one before


def test_spans_that_did_not_fire_are_reported():
    spans_doc = {"spans": [["harness.workload", 0.0, 2.0, -1]], "counts": {}}
    values, missing = run.per_layer("epidemic-10k", _timed(2.0, 1.0), spans_doc, [_timed(2.0, 2.0)])
    assert missing == list(workloads.EXPECTED_SPANS["epidemic-10k"])
    assert values["harness.self_s"] == 2.0 and values["trace_overhead_frac"] == 1.0
    assert values["machine.slowdown"] == 1.0


def test_tracer_wraps_and_restores_entry_points():
    class Target:
        def work(self, value):
            return value * 2

    original = Target.__dict__["work"]
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    assert tracer.patch(Target, "work", lambda fn: tracer.timed("target.work", fn))
    assert not tracer.patch(Target, "absent", lambda fn: fn)
    counted = tracer.counted("calls", Target().work)
    assert counted(3) == 6
    assert tracer.spans == [["target.work", 0.0, 1.0, -1]]
    assert tracer.counts == {"calls": 1}
    tracer.restore()
    assert Target.__dict__["work"] is original


def test_sweep_order_follows_the_seed_and_keeps_the_inputs():
    for workload in workloads.SWEEPS:
        first = workloads.sweep_parts(workload, 11)
        assert first == workloads.sweep_parts(workload, 11)
        keys = {part[0] for part in first}
        assert keys == set(REFERENCE["workloads"][workload]["rows"])
        orders = {tuple(part[0] for part in workloads.sweep_parts(workload, seed)) for seed in range(8)}
        assert len(orders) > 1
