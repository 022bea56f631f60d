"""Benchmark JAM — resilience to jamming (Section 6.1).

Regenerates the completion-time-vs-jamming-budget series and checks the
paper's observation that the delay grows (approximately) linearly with the
budget while authenticity is never affected.
"""

from __future__ import annotations

from conftest import attach_rows, run_once

from repro.experiments import fit_linear_trend, run_spec
from repro.experiments.driver import resolve_context
from repro.registry import EXPERIMENT_SPECS


def test_jamming_delay_scales_with_budget(benchmark, bench_executor):
    spec = EXPERIMENT_SPECS.get("JAM")
    params = resolve_context(spec, scale="small")
    rows = run_once(benchmark, run_spec, spec, scale="small", executor=bench_executor)
    attach_rows(
        benchmark,
        rows,
        title="JAM: completion time vs per-jammer broadcast budget",
        columns=["budget", "rounds", "completion_%", "correct_%", "adversary_broadcasts"],
    )

    assert [r["budget"] for r in rows] == list(params["budgets"])
    # Jamming can only delay, never corrupt.
    assert all(r["correct_%"] >= 99.9 for r in rows)
    # Delay is non-decreasing in the budget and the trend is consistent with a line.
    rounds = [r["rounds"] for r in rows]
    assert rounds[-1] >= rounds[0]
    slope, _intercept, r_squared = fit_linear_trend(rows)
    benchmark.extra_info["slope_rounds_per_budget"] = slope
    benchmark.extra_info["r_squared"] = r_squared
    assert slope >= 0.0
