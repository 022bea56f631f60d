"""Benchmark FIG7 — maximum tolerated Byzantine fraction vs deployment density.

Regenerates the Figure 7 search: for each density, the largest fraction of
lying devices such that at least 90% of honest devices still receive the
correct message.  Expected shape: the tolerated fraction grows with density
(NeighborWatchRB "benefits most from the increase in density").
"""

from __future__ import annotations

from conftest import attach_rows, run_once

from repro.experiments import run_spec
from repro.experiments.driver import resolve_context
from repro.registry import EXPERIMENT_SPECS


def test_fig7_density_tolerance(benchmark, bench_executor):
    spec = EXPERIMENT_SPECS.get("FIG7")
    params = resolve_context(spec, scale="small")
    rows = run_once(benchmark, run_spec, spec, scale="small", executor=bench_executor)
    attach_rows(
        benchmark,
        rows,
        title="FIG7: max tolerated Byzantine fraction vs density (>=90% correct)",
        columns=["protocol", "density", "num_nodes", "max_tolerated_%"],
    )

    assert len(rows) == len(params["densities"]) * len(params["protocols"])
    for label in [proto["label"] for proto in params["protocols"]]:
        series = sorted((r for r in rows if r["protocol"] == label), key=lambda r: r["density"])
        # Robustness scales (weakly) with density.
        assert series[-1]["max_tolerated_%"] >= series[0]["max_tolerated_%"]
        # At the densest point some non-zero fraction of liars is tolerated.
        assert series[-1]["max_tolerated_%"] > 0.0
