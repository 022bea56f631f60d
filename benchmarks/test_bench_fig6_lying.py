"""Benchmark FIG6 — tolerating lying devices (Figure 6).

Regenerates the "percentage of delivered messages that are correct vs fraction
of malicious devices" series.  Expected shape: perfect correctness with no
liars, graceful degradation for small fractions, steep drop-off once the
tolerated threshold is exceeded; the 2-voting variant is at least as robust as
the plain one.  MultiPathRB is exercised separately on a smaller map because
its simulations are far slower (as the paper also notes).
"""

from __future__ import annotations

from conftest import attach_rows, run_once

from repro.experiments import run_spec
from repro.experiments.driver import resolve_context
from repro.registry import EXPERIMENT_SPECS


def test_fig6_lying_neighborwatch(benchmark, bench_executor):
    spec = EXPERIMENT_SPECS.get("FIG6")
    params = resolve_context(spec, scale="small")
    rows = run_once(benchmark, run_spec, spec, scale="small", executor=bench_executor)
    attach_rows(
        benchmark,
        rows,
        title="FIG6: correctness vs Byzantine fraction (NeighborWatchRB variants)",
        columns=["protocol", "byzantine_fraction", "correct_%", "completion_%", "rounds"],
    )

    for label in [proto["label"] for proto in params["protocols"]]:
        series = {r["byzantine_fraction"]: r for r in rows if r["protocol"] == label}
        assert series[0.0]["correct_%"] >= 99.9
        # Correctness is non-increasing (up to noise) in the fraction of liars.
        ordered = [series[f]["correct_%"] for f in sorted(series)]
        assert ordered[-1] <= ordered[0] + 5.0

    # The 2-voting variant is at least as robust as plain NeighborWatchRB at the
    # largest attacked fraction.
    worst = max(params["fractions"])
    plain = next(r for r in rows if r["protocol"] == "NeighborWatchRB" and r["byzantine_fraction"] == worst)
    two_vote = next(
        r for r in rows if r["protocol"] == "NeighborWatchRB-2vote" and r["byzantine_fraction"] == worst
    )
    assert two_vote["correct_%"] >= plain["correct_%"] - 10.0


def test_fig6_lying_multipath(benchmark, bench_executor):
    spec = EXPERIMENT_SPECS.get("FIG6")
    overrides = {
        "map_size": 8.0,
        "num_nodes": 110,
        "radius": 3.0,
        "message_length": 2,
        "fractions": (0.0, 0.03, 0.20),
        "protocols": ({"label": "MultiPathRB(t=2)", "protocol": "multipath", "tolerance": 2},),
        "repetitions": 2,
    }
    rows = run_once(benchmark, run_spec, spec, overrides=overrides, executor=bench_executor)
    attach_rows(
        benchmark,
        rows,
        title="FIG6 (MultiPathRB): correctness vs Byzantine fraction",
        columns=["protocol", "byzantine_fraction", "correct_%", "completion_%", "rounds"],
    )
    series = {r["byzantine_fraction"]: r for r in rows}
    # Below the tuned tolerance the voting rule keeps authenticity intact.
    assert series[0.0]["correct_%"] >= 99.9
    assert series[min(f for f in series if f > 0)]["correct_%"] >= 90.0
    # Far beyond the threshold correctness may degrade (steep drop-off).
    assert series[max(series)]["correct_%"] <= 100.0
