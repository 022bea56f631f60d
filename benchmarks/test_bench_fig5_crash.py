"""Benchmark FIG5 — crash resilience (Figure 5).

Regenerates the "percentage of devices that complete the protocol vs density
of active devices" series for NeighborWatchRB, its 2-voting variant and
MultiPathRB, on a scaled-down map.  Expected shape (as in the paper): every
protocol improves with density; NeighborWatchRB needs the least density,
MultiPathRB the most; crashes never cause incorrect deliveries.
"""

from __future__ import annotations

from conftest import attach_rows, run_once

from repro.experiments import run_spec
from repro.experiments.driver import resolve_context
from repro.registry import EXPERIMENT_SPECS


def test_fig5_crash_resilience(benchmark, bench_executor):
    spec = EXPERIMENT_SPECS.get("FIG5")
    params = resolve_context(spec, scale="small")
    rows = run_once(benchmark, run_spec, spec, scale="small", executor=bench_executor)
    attach_rows(
        benchmark,
        rows,
        title="FIG5: completion vs active-device density",
        columns=["protocol", "density", "completion_%", "correct_%", "rounds"],
    )

    by_key = {(r["protocol"], r["density"]) for r in rows}
    assert len(by_key) == len(params["protocols"]) * len(params["densities"])
    # Crashes never violate authenticity.
    assert all(r["correct_%"] >= 99.9 for r in rows)
    for label in [proto["label"] for proto in params["protocols"]]:
        series = sorted(
            (r for r in rows if r["protocol"] == label), key=lambda r: r["density"]
        )
        # Completion improves (weakly, up to sampling noise) with density and is
        # high at the densest point for the NeighborWatch variants.
        assert series[-1]["completion_%"] >= series[0]["completion_%"] - 10.0
        if "NeighborWatch" in label:
            assert series[-1]["completion_%"] > 85.0
